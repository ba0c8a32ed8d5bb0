"""Fleet runner (scripts/fleet.py): parallel shards, one table row per
shard's own archive, wall/RSS attribution over each shard's pipe and
obs overhead from each archive's wall record; a failed, killed or hung
shard is named in its row and cannot hang the fleet."""

import importlib.util
import os
import signal
import sys
import time

import pytest

_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _load_fleet():
    spec = importlib.util.spec_from_file_location(
        "fleet", os.path.join(_ROOT, "scripts", "fleet.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fleet = _load_fleet()


class TestShardSpecs:
    def test_single_scenario_fans_out_with_derived_seeds(self):
        specs = fleet.shard_specs(["classroom"], 3, 2024, "/tmp/x")
        assert [s["seed"] for s in specs] \
            == [2024000, 2024001, 2024002]
        assert [s["name"] for s in specs] \
            == ["classroom_s0", "classroom_s1", "classroom_s2"]

    def test_explicit_scenarios_run_one_shard_each(self):
        specs = fleet.shard_specs(["quickstart", "classroom"], 4,
                                  1996, "/tmp/x")
        assert [(s["scenario"], s["seed"]) for s in specs] \
            == [("quickstart", 1996000), ("classroom", 1996001)]


def _table(text):
    """The table rows of a fleet's stdout, wall/RSS/obs columns masked
    (they are the last three and never hold spaces)."""
    return [" ".join(line.split()[:-3]) for line in text.splitlines()
            if line.startswith("   ")]


def _row(text, shard):
    (line,) = [line for line in text.splitlines()
               if line.split()[:1] == [shard]]
    return line


class TestFleetRun:
    @pytest.fixture(scope="class")
    def fleet_run(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("fleet"))
        rows = fleet.run_fleet(["classroom"], shards=2, seed=1996,
                               procs=2, out_dir=out)
        return out, rows

    def test_each_shard_reports_a_clean_row(self, fleet_run):
        _, rows = fleet_run
        assert [r["shard"] for r in rows] \
            == ["classroom_s0", "classroom_s1"]
        for row in rows:
            assert row["status"] == "ok"
            assert row["archive"] == "complete"
            assert row["audit"] == 0
            assert row["slo"] == "ok"
        assert fleet.exit_code(rows) == 0

    def test_wall_and_rss_attribution_rides_the_pool_not_the_stream(
            self, fleet_run):
        out, rows = fleet_run
        for row in rows:
            assert row["wall_s"] > 0
            assert row["peak_rss_kb"] > 0
            assert row["obs_pct"] is not None
        # in a shard's archive, wall clock is confined to the one wall
        # record before fin; peak RSS only travels over the pipe
        names = sorted(os.listdir(out))
        assert names == ["obs_classroom_s0.jsonl",
                         "obs_classroom_s1.jsonl"]
        for name in names:
            with open(os.path.join(out, name)) as fh:
                lines = fh.read().splitlines()
            assert '"record": "wall"' in lines[-2]
            assert "obs_overhead_pct" in lines[-2]
            text = "\n".join(lines[:-2] + lines[-1:])
            assert "obs_overhead_pct" not in text
            assert '"wall_seconds"' not in text
            assert '"peak_rss_kb"' not in "\n".join(lines)

    def test_render_fleet_mentions_every_shard(self, fleet_run):
        _, rows = fleet_run
        text = fleet.render_fleet(rows)
        for row in rows:
            assert row["shard"] in text
        assert " ".join(fleet.COLUMNS) in " ".join(text.split())

    def test_same_seed_fleets_print_identical_tables(
            self, tmp_path, capsys):
        tables = []
        for side in "ab":
            code = fleet.main(["classroom", "--shards", "2",
                               "--procs", "2",
                               "--out-dir", str(tmp_path / side)])
            assert code == 0
            tables.append(_table(capsys.readouterr().out))
        assert len(tables[0]) == 3
        assert tables[0] == tables[1]

    def test_a_shard_is_the_seed_it_reports(self, fleet_run, tmp_path,
                                            capsys):
        """Shard 0 of base seed 1996 is exactly the in-process run of
        seed 1996000: zero deterministic deltas under ``diff``."""
        from repro.core.scenarios import build
        from repro.obs.__main__ import main as obs_main

        out, rows = fleet_run
        assert rows[0]["seed"] == 1996000
        path = str(tmp_path / "obs_classroom.jsonl")
        run = build("classroom", accounting=True, seed=1996000,
                    stream=path)
        run.run_to_horizon()
        run.mits.sink.close()
        code = obs_main(["diff", os.path.join(out, "obs_classroom_s0.jsonl"),
                         path])
        assert "deterministic deltas: 0" in capsys.readouterr().out
        assert code == 0


class TestFleetInputs:
    @pytest.mark.parametrize("flag", ["--shards", "--procs"])
    def test_zero_is_rejected_before_any_process_starts(
            self, flag, monkeypatch, tmp_path):
        def no_fleet(*args, **kwargs):
            raise AssertionError("the fleet must not start")

        monkeypatch.setattr(fleet, "run_fleet", no_fleet)
        with pytest.raises(SystemExit) as exc:
            fleet.main([flag, "0", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_scenario_is_a_failed_shard_with_exit_3(
            self, tmp_path, capsys):
        code = fleet.main(["bogus", "--shards", "1",
                           "--out-dir", str(tmp_path)])
        assert code == 3
        row = _row(capsys.readouterr().out, "bogus_s0")
        assert "failed: unknown scenario 'bogus'" in row
        assert "missing" in row


class TestShardFailures:
    def test_sigkilled_shard_is_named_with_exit_3(
            self, tmp_path, monkeypatch, capsys):
        real = fleet.run_shard

        def dies(spec):
            if spec["shard"] == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(spec)

        monkeypatch.setattr(fleet, "run_shard", dies)
        t0 = time.monotonic()
        code = fleet.main(["quickstart", "--shards", "2", "--procs", "2",
                           "--out-dir", str(tmp_path)])
        assert time.monotonic() - t0 < 30
        assert code == 3
        out = capsys.readouterr().out
        assert "killed: signal 9" in _row(out, "quickstart_s1")
        assert " ok " in _row(out, "quickstart_s0")

    def test_hung_shard_is_killed_and_reported_as_timeout(
            self, tmp_path, monkeypatch, capsys):
        def hangs(spec):
            while True:
                time.sleep(60)

        monkeypatch.setattr(fleet, "run_shard", hangs)
        monkeypatch.setattr(fleet, "SHARD_TIMEOUT_S", 2.0)
        t0 = time.monotonic()
        code = fleet.main(["quickstart", "--shards", "1", "--procs", "1",
                           "--out-dir", str(tmp_path)])
        assert time.monotonic() - t0 < 30
        assert code == 3
        assert "timeout" in _row(capsys.readouterr().out,
                                 "quickstart_s0").split()


class TestIncompleteShard:
    def test_fleet_refuses_a_torn_shard_with_exit_2(
            self, tmp_path, monkeypatch, capsys):
        real = fleet.run_shard

        def torn(spec):
            result = real(spec)
            with open(spec["path"]) as fh:
                text = fh.read()
            with open(spec["path"], "w") as fh:
                fh.write(text[:-40])
            return result

        monkeypatch.setattr(fleet, "run_shard", torn)
        code = fleet.main(["quickstart", "--shards", "1", "--procs", "1",
                           "--out-dir", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        row = _row(captured.out, "quickstart_s0")
        assert " ok " in row and "torn final line" in row
        assert "obs_quickstart_s0.jsonl" in captured.err
        assert "torn final line" in captured.err
        assert os.listdir(tmp_path) == ["obs_quickstart_s0.jsonl"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
