"""Tests for the perf-regression gate (scripts/bench_gate.py)."""

import importlib.util
import json
import os

import pytest

from repro.obs.sink import load_archive

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "scripts", "bench_gate.py")
_spec = importlib.util.spec_from_file_location("bench_gate", _SCRIPT)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    """Keep baselines and observability archives out of the repo."""
    monkeypatch.setenv("BENCH_METRICS_DIR", str(tmp_path / "out"))
    return tmp_path


class TestJudge:
    BASE = {"metrics": {"events_run": 1000, "sim_time": 30.0,
                        "peak_queue_depth": 50.0, "peak_link_queue": 10.0,
                        "peak_player_buffer": 8.0}}

    def current(self, **overrides):
        metrics = dict(self.BASE["metrics"], **overrides)
        return {"metrics": metrics}

    def verdicts(self, cur, scenario="s"):
        rows = bench_gate.judge(scenario, self.BASE, cur)
        return {metric: verdict for metric, *_, verdict in rows}

    def test_identical_run_is_ok(self):
        assert set(self.verdicts(self.current()).values()) == {"ok"}

    def test_deterministic_drift_fails_both_directions(self):
        assert self.verdicts(
            self.current(events_run=1200))["events_run"] == "FAIL"
        assert self.verdicts(
            self.current(events_run=800))["events_run"] == "FAIL"
        assert self.verdicts(
            self.current(events_run=1090))["events_run"] == "ok"

    def test_peak_queue_growth_fails_but_shrink_is_fine(self):
        assert self.verdicts(
            self.current(peak_queue_depth=70.0))["peak_queue_depth"] \
            == "FAIL"
        assert self.verdicts(
            self.current(peak_queue_depth=20.0))["peak_queue_depth"] \
            == "ok"

    def test_obs_overhead_ceiling_is_judged_on_every_run(self):
        """The A/B overhead is held to the absolute ceiling whatever
        the baseline says, with no switch that skips it."""
        under = bench_gate.MAX_OBS_OVERHEAD_PCT - 0.5
        over = bench_gate.MAX_OBS_OVERHEAD_PCT + 0.5
        assert self.verdicts(self.current(obs_overhead_pct=under)) \
            ["obs_overhead_pct"] == "ok"
        base = {"metrics": dict(self.BASE["metrics"],
                                obs_overhead_pct=over)}
        rows = bench_gate.judge("s", base,
                                self.current(obs_overhead_pct=over))
        assert {m: v for m, *_, v in rows}["obs_overhead_pct"] == "FAIL"

    def test_events_per_sim_sec_floor_is_absolute(self):
        """The deterministic load floor: judged against the floor, not
        the baseline."""
        floor = bench_gate.MIN_EVENTS_PER_SIM_SEC["classroom"]
        ok = self.verdicts(self.current(events_per_sim_sec=floor + 20),
                           scenario="classroom")
        assert ok["events_per_sim_sec"] == "ok"
        bad = self.verdicts(self.current(events_per_sim_sec=floor - 30),
                            scenario="classroom")
        assert bad["events_per_sim_sec"] == "FAIL"

    def test_floor_defaults_to_per_scenario_table(self):
        assert self.verdicts(self.current(events_per_sim_sec=1.0),
                             scenario="classroom")["events_per_sim_sec"] \
            == "FAIL"
        # unknown scenario: no floor row at all
        assert "events_per_sim_sec" not in self.verdicts(
            self.current(events_per_sim_sec=1.0))

    def test_named_scenario_floors_sit_under_recorded_values(self):
        """The tracked floors must exist for every named scenario and
        be honest — below the recorded events/sim-sec, not aspirational
        numbers the gate could never meet."""
        from repro.core.scenarios import SCENARIOS
        assert set(bench_gate.MIN_EVENTS_PER_SIM_SEC) == set(SCENARIOS)
        for floor in bench_gate.MIN_EVENTS_PER_SIM_SEC.values():
            assert floor > 0

    def test_metric_missing_from_baseline_is_new_not_fail(self):
        base = {"metrics": {k: v for k, v in self.BASE["metrics"].items()
                            if k != "peak_player_buffer"}}
        rows = bench_gate.judge("s", base, self.current())
        verdicts = {metric: verdict for metric, *_, verdict in rows}
        assert verdicts["peak_player_buffer"] == "NEW"
        assert "FAIL" not in verdicts.values()


class TestGateEndToEnd:
    """The acceptance criterion: --update writes a baseline, a clean
    rerun passes, and an injected regression trips the gate non-zero."""

    def test_update_then_pass_then_injected_regression(
            self, sandbox, capsys):
        out = str(sandbox)
        assert bench_gate.main(
            ["quickstart", "--update", "--out-dir", out]) == 0
        baseline_file = sandbox / "BENCH_quickstart.json"
        assert baseline_file.exists()
        baseline = json.loads(baseline_file.read_text())
        assert baseline["metrics"]["events_run"] > 0
        assert set(baseline) == {"metrics", "scenario"}
        assert {m for m, _ in bench_gate.METRIC_SPECS} \
            == set(baseline["metrics"])
        capsys.readouterr()

        assert bench_gate.main(["quickstart", "--out-dir", out]) == 0
        assert "BENCH GATE: ok" in capsys.readouterr().out

        baseline["metrics"]["events_run"] = \
            int(baseline["metrics"]["events_run"] * 1.5)
        baseline_file.write_text(json.dumps(baseline))
        assert bench_gate.main(["quickstart", "--out-dir", out]) == 1
        report = capsys.readouterr().out
        assert "BENCH GATE: REGRESSION" in report
        # only the perturbed metric trips the gate
        for line in report.splitlines():
            if line.strip().startswith(("events_run", "sim_time")):
                verdict = "FAIL" if "events_run" in line else "ok"
                assert line.rstrip().endswith(verdict)

    def test_missing_baseline_is_exit_2(self, sandbox, capsys):
        assert bench_gate.main(
            ["quickstart", "--out-dir", str(sandbox)]) == 2
        assert "MISSING baseline" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, sandbox):
        with pytest.raises(SystemExit):
            bench_gate.main(["warp-drive", "--out-dir", str(sandbox)])

    def test_sidecars_dumped_for_offline_debugging(self, sandbox):
        bench_gate.main(
            ["quickstart", "--update", "--out-dir", str(sandbox)])
        out = sandbox / "out"
        assert sorted(p.name for p in out.iterdir()) \
            == ["obs_gate_quickstart.jsonl"]
        archive = load_archive(str(out / "obs_gate_quickstart.jsonl"))
        assert archive.complete
        assert archive.spans and archive.timeseries
        assert set(archive.wall) == {"overhead"}
        assert archive.overhead is not None


class TestFailureAttribution:
    """Acceptance: a failing gate explains itself — a ranked
    attribution table naming span kinds and critical-path components,
    plus a machine-readable diff artifact."""

    def test_gate_failure_prints_ranked_attribution(
            self, sandbox, capsys):
        out = str(sandbox)
        bench_gate.main(["quickstart", "--update", "--out-dir", out])
        baseline_file = sandbox / "BENCH_quickstart.json"
        baseline = json.loads(baseline_file.read_text())
        baseline["metrics"]["events_run"] = \
            int(baseline["metrics"]["events_run"] * 1.5)
        baseline_file.write_text(json.dumps(baseline))
        capsys.readouterr()

        assert bench_gate.main(["quickstart", "--out-dir", out]) == 1
        report = capsys.readouterr().out
        assert "ranked attribution" in report
        assert "span-kind" in report
        assert "diff_gate_quickstart.json" in report

        diff_path = sandbox / "out" / "diff_gate_quickstart.json"
        assert diff_path.exists()
        payload = json.loads(diff_path.read_text())
        # the attribution names span kinds and critical-path components
        sources = {row["source"] for row in payload["attribution"]}
        assert sources == {"span-kind", "critical-path"}
        kinds = {row["key"] for row in payload["attribution"]
                 if row["source"] == "span-kind"}
        assert any(k.startswith("streaming") for k in kinds)
        # the perturbed deterministic vector is itself a counted delta
        moved = {r["metric"] for r in payload["bench"]
                 if abs(r["delta"]) > 1e-9}
        assert "events_run" in moved
        assert payload["deterministic_delta_count"] >= 1

    def test_passing_gate_stays_quiet(self, sandbox, capsys):
        out = str(sandbox)
        bench_gate.main(["quickstart", "--update", "--out-dir", out])
        capsys.readouterr()
        assert bench_gate.main(["quickstart", "--out-dir", out]) == 0
        report = capsys.readouterr().out
        assert "ranked attribution" not in report
        assert not (sandbox / "out" / "diff_gate_quickstart.json").exists()
