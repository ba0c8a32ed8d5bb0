"""Merge operators and the split-run equivalence harness
(repro.obs.merge): sharded observability must fold back into exactly
the monolithic view, whatever order the shards arrive in."""

import json
import os
import subprocess
import sys

import pytest

from repro.core.scenarios import build
from repro.obs.accounting import account_weight
from repro.obs.merge import (
    merge_archives,
    merge_ledger,
    merge_metrics,
    merge_timeseries,
    merged_canonical_form,
    remap_disjoint,
    shard_from_mits,
    sketch_trim,
    split_shard,
    write_merged,
)
from repro.obs.sink import load_archive

_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _shard(name, sim_time, metrics, **over):
    base = {"name": name, "path": f"<test:{name}>",
            "sim_time": sim_time, "events_run": 0, "metrics": metrics,
            "spans": [], "events": [], "timeseries": None,
            "accounting": None, "watchdog": None, "audit": None,
            "telemetry": None, "overhead": None}
    base.update(over)
    return base


@pytest.fixture(scope="module")
def classroom_mono():
    """One monolithic classroom run, snapshotted as a shard."""
    run = build("classroom", accounting=True)
    run.run_to_horizon()
    return shard_from_mits(run.mits, "classroom")


class TestMetricsMerge:
    def test_counters_sum(self):
        a = {"link": {"drops": [{"labels": {"link": "a"},
                                 "type": "counter", "value": 3}]}}
        b = {"link": {"drops": [{"labels": {"link": "a"},
                                 "type": "counter", "value": 4}]}}
        merged, _ = merge_metrics([_shard("a", 1.0, a),
                                   _shard("b", 1.0, b)])
        assert merged["link"]["drops"][0]["value"] == 7

    def test_gauge_latest_sim_time_wins_with_provenance(self):
        a = {"link": {"q": [{"labels": {}, "type": "gauge", "value": 5,
                             "min": 0, "max": 9}]}}
        b = {"link": {"q": [{"labels": {}, "type": "gauge", "value": 2,
                             "min": 1, "max": 4}]}}
        merged, prov = merge_metrics(
            [_shard("early", 10.0, a), _shard("late", 20.0, b)])
        entry = merged["link"]["q"][0]
        assert entry["value"] == 2          # the later shard's level
        assert entry["min"] == 0 and entry["max"] == 9
        assert prov["link.q{}"] == {"shard": "late", "sim_time": 20.0}

    def test_histograms_bucket_add_and_requantile(self):
        h1 = {"labels": {}, "type": "histogram", "count": 2, "sum": 3.0,
              "mean": 1.5, "min": 1.0, "max": 2.0, "overflow": 0,
              "buckets": [{"le": 1.0, "count": 1},
                          {"le": 4.0, "count": 1}],
              "p50": 1.0, "p99": 4.0}
        h2 = {"labels": {}, "type": "histogram", "count": 1, "sum": 9.0,
              "mean": 9.0, "min": 9.0, "max": 9.0, "overflow": 1,
              "buckets": [{"le": 16.0, "count": 1}],
              "p50": 16.0, "p99": 16.0}
        merged, _ = merge_metrics(
            [_shard("a", 1.0, {"c": {"m": [h1]}}),
             _shard("b", 1.0, {"c": {"m": [h2]}})])
        entry = merged["c"]["m"][0]
        assert entry["count"] == 3
        assert entry["sum"] == 12.0
        assert entry["mean"] == 4.0
        assert entry["min"] == 1.0 and entry["max"] == 9.0
        assert entry["overflow"] == 1
        assert entry["buckets"] == [{"le": 1.0, "count": 1},
                                    {"le": 4.0, "count": 1},
                                    {"le": 16.0, "count": 1}]
        # target 1.5 → first bound whose running count crosses it
        assert entry["p50"] == 4.0
        assert entry["p99"] == 16.0

    def test_merge_is_order_insensitive(self, classroom_mono):
        parts = split_shard(classroom_mono, 3)
        fwd = merge_archives(parts, name="x")
        rev = merge_archives(list(reversed(parts)), name="x")
        assert json.dumps(fwd, sort_keys=True, default=repr) \
            == json.dumps(rev, sort_keys=True, default=repr)


class TestTraceRemap:
    def test_disjoint_ids_pass_through(self):
        a = _shard("a", 1.0, {}, spans=[
            {"span_id": 1, "parent_id": None, "trace_id": 1,
             "name": "x", "start": 0.0, "end": 1.0, "duration": 1.0,
             "attrs": {}}])
        b = _shard("b", 1.0, {}, spans=[
            {"span_id": 2, "parent_id": None, "trace_id": 2,
             "name": "y", "start": 0.0, "end": 1.0, "duration": 1.0,
             "attrs": {}}])
        out, remaps = remap_disjoint([a, b])
        assert remaps == {"trace_id_remaps": 0, "span_id_remaps": 0}
        assert out[0]["spans"] == a["spans"]

    def test_colliding_ids_are_remapped_above_the_global_max(self):
        span = {"span_id": 1, "parent_id": None, "trace_id": 7,
                "name": "x", "start": 0.0, "end": 1.0, "duration": 1.0,
                "attrs": {}}
        child = {"span_id": 2, "parent_id": 1, "trace_id": 7,
                 "name": "y", "start": 0.2, "end": 0.8,
                 "duration": 0.6, "attrs": {}}
        event = {"time": 0.5, "component": "c", "kind": "k",
                 "severity": "info", "trace_id": 7, "attrs": {}}
        a = _shard("a", 1.0, {}, spans=[dict(span)],
                   events=[dict(event)])
        b = _shard("b", 1.0, {}, spans=[dict(span), dict(child)],
                   events=[dict(event)])
        out, remaps = remap_disjoint([a, b])
        assert remaps["trace_id_remaps"] == 1
        # only the root's span_id collides; the child's id 2 is unique
        assert remaps["span_id_remaps"] == 1
        new_trace = out[1]["spans"][0]["trace_id"]
        assert new_trace > 7
        # the parent link and the event correlation follow the remap
        assert out[1]["spans"][1]["parent_id"] \
            == out[1]["spans"][0]["span_id"]
        assert out[1]["events"][0]["trace_id"] == new_trace
        # the earlier (canonical-order) shard is untouched
        assert out[0]["spans"][0]["trace_id"] == 7


class TestTimeseriesMerge:
    def test_counter_series_tick_align_sums_values_and_rates(self):
        s1 = {"component": "link", "name": "cells", "labels": {},
              "kind": "counter", "evicted": 0,
              "times": [1.0, 2.0], "values": [10, 20],
              "rates": [0.0, 10.0], "rollup": {}, "rate_rollup": {}}
        s2 = {"component": "link", "name": "cells", "labels": {},
              "kind": "counter", "evicted": 0,
              "times": [1.0, 3.0], "values": [5, 11],
              "rates": [0.0, 3.0], "rollup": {}, "rate_rollup": {}}
        snap = lambda s: {"enabled": True, "interval": 1.0,  # noqa: E731
                          "capacity": 8, "samples": 2, "evictions": 0,
                          "series": [s]}
        merged = merge_timeseries(
            [_shard("a", 3.0, {}, timeseries=snap(s1)),
             _shard("b", 3.0, {}, timeseries=snap(s2))])
        series = merged["series"][0]
        assert series["times"] == [1.0, 2.0, 3.0]
        # carry-forward: at t=2 shard b still reads 5; at t=3 shard a
        # still reads 20
        assert series["values"] == [15, 25, 31]
        # re-derived on the union grid: sum of the shard rates
        assert series["rates"] == [0.0, 10.0, 6.0]
        assert merged["samples"] == 4

    def test_single_source_series_pass_through_verbatim(self):
        s1 = {"component": "player", "name": "buffer",
              "labels": {"player": "a"}, "kind": "gauge", "evicted": 2,
              "times": [1.0], "values": [4.0], "rollup": {}}
        merged = merge_timeseries([_shard("a", 1.0, {}, timeseries={
            "enabled": True, "interval": 0.25, "capacity": 8,
            "samples": 1, "evictions": 2, "series": [s1]})])
        assert merged["series"][0] == s1


class TestLedgerMerge:
    ROW = {"kind": "vc", "key": "vc1", "note": "", "units_sent": 2,
           "units_delivered": 2, "cells_sent": 10, "cells_delivered": 10,
           "bytes_sent": 480, "bytes_delivered": 480, "drops": 0,
           "residency_seconds": 0.5}

    def test_exact_merge_sums_fields_and_recomputes_share(self):
        a = {"enabled": True, "kinds": {"vc": [dict(self.ROW)]}}
        b = {"enabled": True, "kinds": {"vc": [dict(self.ROW)]}}
        merged = merge_ledger(
            [_shard("a", 2.0, {}, accounting=a),
             _shard("b", 2.0, {}, accounting=b)], sim_time=2.0)
        row = merged["kinds"]["vc"][0]
        assert row["cells_sent"] == 20
        assert row["bytes_sent"] == 960
        assert row["share"] == 1.0
        assert row["bits_per_sec"] == 960 * 8 / 2.0
        assert "top_k" not in merged and "weight" not in row

    def test_sketch_merge_propagates_error_for_absent_entities(self):
        # shard a evicted in kind vc (its min kept weight bounds what
        # any absent entity may have accumulated there)
        ra = dict(self.ROW, weight=100.0, error=2.0)
        rb = dict(self.ROW, key="vc2", weight=50.0, error=0.0)
        a = {"enabled": True, "top_k": 2, "evictions": {"vc": 3},
             "kinds": {"vc": [ra]}}
        b = {"enabled": True, "top_k": 2, "evictions": {},
             "kinds": {"vc": [rb]}}
        merged = merge_ledger(
            [_shard("a", 1.0, {}, accounting=a),
             _shard("b", 1.0, {}, accounting=b)], sim_time=1.0)
        rows = {r["key"]: r for r in merged["kinds"]["vc"]}
        # vc1: present in a only; b never evicted, so no extra error
        assert rows["vc1"]["error"] == 2.0
        # vc2: absent from a, which evicted in vc — its min kept
        # weight (100) joins vc2's bound
        assert rows["vc2"]["error"] == 100.0
        assert rows["vc2"]["approx"] is True
        assert merged["top_k"] == 2
        assert merged["evictions"] == {"vc": 3}

    def test_sketch_trim_marks_trimmed_rows_as_evictions(self):
        rows = [dict(self.ROW, key=f"vc{i}", bytes_sent=100 * (i + 1))
                for i in range(4)]
        snap = {"enabled": True, "kinds": {"vc": rows}}
        trimmed = sketch_trim(snap, 2)
        assert len(trimmed["kinds"]["vc"]) == 2
        assert trimmed["evictions"] == {"vc": 2}
        kept = {r["key"] for r in trimmed["kinds"]["vc"]}
        assert kept == {"vc2", "vc3"}  # the heaviest two
        for r in trimmed["kinds"]["vc"]:
            assert r["weight"] == account_weight(r)

    def test_sketch_bound_holds_against_the_exact_ledger(
            self, classroom_mono):
        """|true - estimate| <= error for every kept row, with the
        monolithic exact ledger as ground truth."""
        exact = classroom_mono["accounting"]
        parts = split_shard(classroom_mono, 2)
        for p in parts:
            p["accounting"] = sketch_trim(p["accounting"], 3)
        merged = merge_ledger(parts, sim_time=classroom_mono["sim_time"])
        truth = {(k, r["key"]): account_weight(r)
                 for k, rows in exact["kinds"].items() for r in rows}
        checked = 0
        for kind, rows in merged["kinds"].items():
            for r in rows:
                true_w = truth[(kind, r["key"])]
                assert abs(true_w - r["weight"]) <= r["error"] + 1e-9, \
                    (kind, r["key"])
                checked += 1
        assert checked > 0


class TestSplitRunEquivalence:
    """The PR's correctness anchor: classroom sharded by entity must
    merge back to the monolithic run's canonical snapshot exactly."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_merge_equals_monolithic(self, classroom_mono, n):
        mono = merge_archives([classroom_mono], name="mono")
        parts = split_shard(classroom_mono, n)
        merged = merge_archives(parts, name="split")
        assert merged_canonical_form(merged) \
            == merged_canonical_form(mono)

    def test_split_merge_matches_the_live_stores_directly(
            self, classroom_mono):
        merged = merge_archives(split_shard(classroom_mono, 2),
                                name="split")
        assert merged["metrics"] == classroom_mono["metrics"]
        assert merged["accounting"]["kinds"] \
            == classroom_mono["accounting"]["kinds"]
        assert merged["audit"]["checks"] \
            == classroom_mono["audit"]["checks"]
        assert merged["events_run"] == classroom_mono["events_run"]
        assert merged["slo"]["verdict"] in ("ok", "degraded")

    def test_slo_is_rejudged_not_merged(self, classroom_mono):
        """The merged slo block is exactly what the monitor says about
        the merged registry — shard verdicts never vote."""
        from repro.obs.slo import judge_report
        merged = merge_archives(split_shard(classroom_mono, 2),
                                name="split")
        expected = judge_report(
            merged["metrics"],
            watchdog_alerts=merged["watchdog"]["alerts"]
            if "watchdog" in merged else None)
        assert merged["slo"] == expected


class TestLoadShardAndCli:
    @pytest.fixture(scope="class")
    def archives(self, tmp_path_factory):
        """Two quickstart seeds — one streamed, one archived by a
        late-attached sink — merged via the CLI."""
        from repro.obs.export import dump_observability

        out = str(tmp_path_factory.mktemp("merge_cli"))
        run = build("quickstart", accounting=True, seed=11,
                    stream=os.path.join(out, "obs_q11.jsonl"))
        run.run_to_horizon()
        run.mits.sink.close()
        run2 = build("quickstart", accounting=True, seed=22)
        run2.run_to_horizon()
        dump_observability(run2.mits, "q22", out)
        merged_path = os.path.join(out, "fleet_pair.jsonl")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "merge",
             os.path.join(out, "obs_q11.jsonl"),
             os.path.join(out, "obs_q22.jsonl"),
             "-o", merged_path, "--name", "pair"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(_ROOT, "src")})
        assert proc.returncode == 0, proc.stderr
        return out, merged_path, proc.stdout

    def test_load_shard_normalises_both_archive_shapes(self, archives):
        out, _, _ = archives
        s1 = load_archive(os.path.join(out, "obs_q11.jsonl")).shard()
        s2 = load_archive(os.path.join(out, "obs_q22.jsonl")).shard()
        for s in (s1, s2):
            assert s["metrics"] and s["spans"]
            assert s["accounting"]["kinds"]
            assert s["audit"]["ok"] is True
        # a plain-closed stream carries no wall clock; dump_observability
        # adds the wall record
        assert s1["overhead"] is None
        assert s2["overhead"] is not None

    def test_cli_merge_reports_the_fold(self, archives):
        _, merged_path, stdout = archives
        assert "merged 2 shard(s)" in stdout
        merged = load_archive(merged_path)
        assert merged.complete and merged.merged
        assert len(merged.shards) == 2
        assert merged.summary["slo"]["verdict"] in ("ok", "degraded")

    def test_remerging_a_merged_archive_keeps_gauge_provenance(
            self, archives):
        out, merged_path, _ = archives
        reshard = load_archive(merged_path).shard()
        assert reshard["gauge_provenance"]
        again = merge_archives([reshard], name="again")
        assert again["metrics"] == reshard["metrics"]

    @pytest.mark.parametrize("command", [
        ("report", "--top", "3"),
        ("top", "--limit", "3"),
        ("critical", "--top", "3"),
        ("audit",),
        ("dashboard",),
        ("report", "--strict"),
    ])
    def test_every_renderer_accepts_the_merged_archive(
            self, archives, command):
        _, merged_path, _ = archives
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", command[0],
             merged_path, *command[1:]],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(_ROOT, "src")})
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout.strip()

    def test_diff_accepts_merged_archives_and_finds_no_self_delta(
            self, archives):
        _, merged_path, _ = archives
        from repro.obs.diff import diff_runs
        payload = diff_runs(load_archive(merged_path),
                            load_archive(merged_path))
        assert payload["deterministic_delta_count"] == 0

    def test_write_merged_is_stable_json(self, archives, tmp_path):
        _, merged_path, _ = archives
        shard = load_archive(merged_path).shard()
        m1 = merge_archives([shard], name="w")
        p1 = write_merged(m1, str(tmp_path / "a.jsonl"))
        p2 = write_merged(merge_archives([shard], name="w"),
                          str(tmp_path / "b.jsonl"))
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()

    def test_merge_refuses_an_incomplete_archive(self, archives, tmp_path,
                                                 capsys):
        from repro.obs.__main__ import main

        out, _, _ = archives
        cut = tmp_path / "obs_cut.jsonl"
        lines = open(os.path.join(out, "obs_q11.jsonl")).readlines()
        cut.write_text("".join(lines[:-1]))
        assert main(["merge", os.path.join(out, "obs_q22.jsonl"),
                     str(cut), "-o", str(tmp_path / "m.jsonl")]) == 2
        err = capsys.readouterr().err
        assert str(cut) in err and "no fin record" in err
        assert not (tmp_path / "m.jsonl").exists()
