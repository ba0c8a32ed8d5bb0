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
    monkeypatch.delenv("BENCH_GATE_HANDICAP", raising=False)
    return tmp_path


class TestJudge:
    BASE = {"metrics": {"events_run": 1000, "sim_time": 30.0,
                        "wall_seconds": 1.0, "events_per_sec": 1000.0,
                        "peak_queue_depth": 50.0, "peak_link_queue": 10.0,
                        "peak_player_buffer": 8.0}}

    def current(self, **overrides):
        metrics = dict(self.BASE["metrics"], **overrides)
        return {"metrics": metrics}

    def verdicts(self, cur, **kwargs):
        kwargs.setdefault("tolerance", 0.10)
        kwargs.setdefault("wall_tolerance", 0.50)
        kwargs.setdefault("no_wall", False)
        rows = bench_gate.judge("s", self.BASE, cur, **kwargs)
        return {metric: verdict for metric, *_, verdict in rows}

    def test_identical_run_is_ok(self):
        assert set(self.verdicts(self.current()).values()) == {"ok"}

    def test_slower_wall_fails_only_past_tolerance(self):
        within = self.verdicts(self.current(wall_seconds=1.4))
        assert within["wall_seconds"] == "ok"
        beyond = self.verdicts(self.current(wall_seconds=1.6))
        assert beyond["wall_seconds"] == "FAIL"

    def test_faster_wall_never_fails(self):
        v = self.verdicts(self.current(wall_seconds=0.1,
                                       events_per_sec=10000.0))
        assert v["wall_seconds"] == "ok"
        assert v["events_per_sec"] == "ok"

    def test_throughput_drop_fails(self):
        v = self.verdicts(self.current(events_per_sec=400.0))
        assert v["events_per_sec"] == "FAIL"

    def test_deterministic_drift_fails_both_directions(self):
        assert self.verdicts(
            self.current(events_run=1200))["events_run"] == "FAIL"
        assert self.verdicts(
            self.current(events_run=800))["events_run"] == "FAIL"

    def test_peak_queue_growth_fails_but_shrink_is_fine(self):
        assert self.verdicts(
            self.current(peak_queue_depth=70.0))["peak_queue_depth"] \
            == "FAIL"
        assert self.verdicts(
            self.current(peak_queue_depth=20.0))["peak_queue_depth"] \
            == "ok"

    def test_no_wall_skips_hardware_metrics(self):
        v = self.verdicts(self.current(wall_seconds=99.0,
                                       events_per_sec=1.0), no_wall=True)
        assert "wall_seconds" not in v and "events_per_sec" not in v

    def test_events_per_sim_sec_floor_is_absolute(self):
        """The deterministic load floor: judged against the floor, not
        the baseline, and active regardless of wall settings."""
        cur = self.current(events_per_sim_sec=250.0)
        ok = self.verdicts(cur, min_events_per_sec=200.0)
        assert ok["events_per_sim_sec"] == "ok"
        bad = self.verdicts(cur, min_events_per_sec=300.0)
        assert bad["events_per_sim_sec"] == "FAIL"
        # stays active under --no-wall: the metric is seeded, not timed
        bad = self.verdicts(cur, min_events_per_sec=300.0, no_wall=True)
        assert bad["events_per_sim_sec"] == "FAIL"

    def test_floor_defaults_to_per_scenario_table(self):
        rows = bench_gate.judge(
            "classroom", self.BASE,
            self.current(events_per_sim_sec=1.0),
            tolerance=0.10, wall_tolerance=0.50, no_wall=True)
        verdicts = {metric: verdict for metric, *_, verdict in rows}
        assert verdicts["events_per_sim_sec"] == "FAIL"
        # unknown scenario + no override: no floor row at all
        rows = bench_gate.judge(
            "s", self.BASE, self.current(events_per_sim_sec=1.0),
            tolerance=0.10, wall_tolerance=0.50, no_wall=True)
        assert "events_per_sim_sec" not in {m for m, *_ in rows}

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
        rows = bench_gate.judge("s", base, self.current(),
                                tolerance=0.10, wall_tolerance=0.50,
                                no_wall=False)
        verdicts = {metric: verdict for metric, *_, verdict in rows}
        assert verdicts["peak_player_buffer"] == "NEW"
        assert "FAIL" not in verdicts.values()


class TestGateEndToEnd:
    """The acceptance criterion: --update writes a baseline, a clean
    rerun passes, and an injected slowdown trips the gate non-zero."""

    def test_update_then_pass_then_injected_regression(
            self, sandbox, monkeypatch, capsys):
        out = str(sandbox)
        assert bench_gate.main(
            ["quickstart", "--update", "--out-dir", out]) == 0
        baseline_file = sandbox / "BENCH_quickstart.json"
        assert baseline_file.exists()
        baseline = json.loads(baseline_file.read_text())
        assert baseline["metrics"]["events_run"] > 0
        capsys.readouterr()

        assert bench_gate.main(["quickstart", "--out-dir", out]) == 0
        assert "BENCH GATE: ok" in capsys.readouterr().out

        monkeypatch.setenv("BENCH_GATE_HANDICAP", "4.0")
        assert bench_gate.main(["quickstart", "--out-dir", out]) == 1
        report = capsys.readouterr().out
        assert "FAIL" in report
        assert "BENCH GATE: REGRESSION" in report
        # deterministic metrics are unaffected by the handicap
        for line in report.splitlines():
            if line.strip().startswith(("events_run", "sim_time")):
                assert line.rstrip().endswith("ok")

    def test_handicapped_run_still_passes_without_wall(
            self, sandbox, monkeypatch, capsys):
        out = str(sandbox)
        bench_gate.main(["quickstart", "--update", "--out-dir", out])
        monkeypatch.setenv("BENCH_GATE_HANDICAP", "4.0")
        assert bench_gate.main(
            ["quickstart", "--no-wall", "--out-dir", out]) == 0

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
        assert archive.spans and archive.timeseries["series"]
        assert archive.profile["hotspots"]
        assert archive.overhead is not None


class TestFailureAttribution:
    """Acceptance: a failing gate explains itself — a ranked
    attribution table naming regressed callsites / span kinds, plus a
    machine-readable diff artifact."""

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

        assert bench_gate.main(
            ["quickstart", "--no-wall", "--out-dir", out]) == 1
        report = capsys.readouterr().out
        assert "ranked attribution" in report
        assert "callsite" in report
        assert "span-kind" in report
        assert "diff_gate_quickstart.json" in report

        diff_path = sandbox / "out" / "diff_gate_quickstart.json"
        assert diff_path.exists()
        payload = json.loads(diff_path.read_text())
        # the attribution names actual code locations and span kinds
        sources = {row["source"] for row in payload["attribution"]}
        assert {"callsite", "span-kind"} <= sources
        callsites = {row["key"] for row in payload["attribution"]
                     if row["source"] == "callsite"}
        assert any("." in c for c in callsites)  # Class.method names
        # the perturbed deterministic vector is itself a counted delta
        moved = {r["metric"] for r in payload["bench"]
                 if abs(r["delta"]) > 1e-9}
        assert "events_run" in moved
        assert payload["deterministic_delta_count"] >= 1

    def test_passing_gate_stays_quiet(self, sandbox, capsys):
        out = str(sandbox)
        bench_gate.main(["quickstart", "--update", "--out-dir", out])
        capsys.readouterr()
        assert bench_gate.main(
            ["quickstart", "--no-wall", "--out-dir", out]) == 0
        report = capsys.readouterr().out
        assert "ranked attribution" not in report
        assert not (sandbox / "out" / "diff_gate_quickstart.json").exists()
