"""Tests for differential run comparison (repro.obs.diff).

The two acceptance properties: same-seed runs diff to ZERO
deterministic deltas (the CI determinism smoke job hangs off that),
and a genuine regression produces a ranked attribution table naming
the span kinds / components that moved.
"""

import copy
import dataclasses
import json
import os

import pytest

from repro.core.scenarios import build
from repro.obs.__main__ import main
from repro.obs.diff import (
    BENCH_DETERMINISTIC, LEDGER_TOP, diff_runs, load_side,
    render_attribution_table, render_diff_report, write_diff,
)
from repro.obs.export import dump_observability
from tests.obs.archives import write_archive

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


@pytest.fixture(scope="module")
def same_seed_pair(tmp_path_factory):
    """Two independent quickstart runs, same seed, archived apart."""
    paths = []
    for label in ("a", "b"):
        out = str(tmp_path_factory.mktemp(f"run_{label}"))
        run = build("quickstart", accounting=True,
                    stream=os.path.join(out, "obs_q.jsonl"))
        run.run_to_horizon()
        paths += dump_observability(run.mits, "q", out)
    return paths


def _bump_counters(summary, component, amount):
    """A copy of *summary* with every *component* counter raised."""
    summary = copy.deepcopy(summary)
    for rows in summary["metrics"][component].values():
        for row in rows:
            if row.get("type") == "counter":
                row["value"] = row.get("value", 0) + amount
    return summary


class TestSameSeedIsEquivalent:
    def test_zero_deterministic_deltas(self, same_seed_pair):
        a, b = (load_side(p) for p in same_seed_pair)
        payload = diff_runs(a, b)
        assert payload["deterministic_delta_count"] == 0
        assert payload["metrics"] == {}
        assert payload["slo"]["transitions"] == []
        assert not payload["slo"]["verdict_changed"]
        assert all(abs(r["delta_seconds"]) < 1e-9
                   for r in payload["attribution"])

    def test_cli_exits_zero(self, same_seed_pair, capsys):
        a, b = same_seed_pair
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "deterministic deltas: 0" in out


class TestRegressionAttribution:
    def _mutated(self, same_seed_pair, tmp_path):
        """An 'after' archive with a deliberate regression baked in:
        more retransmits and a longer streaming span."""
        src = load_side(same_seed_pair[0])
        archive = dataclasses.replace(
            src, summary=_bump_counters(src.summary, "connection", 5),
            spans=copy.deepcopy(src.spans))
        # stretch one streaming span
        for span in archive.spans:
            if span["name"].startswith("streaming"):
                span["end"] += 1.0
                span["duration"] = span["end"] - span["start"]
                break
        return archive

    def test_deltas_are_named_and_counted(self, same_seed_pair,
                                          tmp_path):
        before = load_side(same_seed_pair[0])
        after = self._mutated(same_seed_pair, tmp_path)
        payload = diff_runs(before, after)
        assert payload["deterministic_delta_count"] > 0
        moved_keys = set(payload["metrics"])
        assert any(k.startswith("connection.") for k in moved_keys)
        top = payload["attribution"][0]
        assert top["source"] in ("span-kind", "critical-path")
        assert abs(top["delta_seconds"]) == pytest.approx(1.0)
        rendered = render_attribution_table(payload)
        assert "ranked attribution" in rendered
        assert "streaming" in rendered

    def test_full_report_renders(self, same_seed_pair, tmp_path):
        before = load_side(same_seed_pair[0])
        after = self._mutated(same_seed_pair, tmp_path)
        report = render_diff_report(diff_runs(before, after))
        assert "top instrument movements" in report
        assert "deterministic deltas:" in report


class TestFallingCounters:
    """Each archive is one run's own registry, so a counter that falls
    between two runs is a negative delta like any other."""

    @staticmethod
    def _archive(path, retransmits):
        metrics = {"transport": {"retransmits": [
            {"labels": {}, "type": "counter", "value": retransmits}]}}
        return str(write_archive(path, summary={"metrics": metrics}))

    @pytest.mark.parametrize("after,delta", [(0, -12.0), (5, -7.0)])
    def test_fall_is_one_negative_delta(self, tmp_path, capsys, after,
                                        delta):
        a = self._archive(tmp_path / "obs_a.jsonl", 12)
        b = self._archive(tmp_path / "obs_b.jsonl", after)
        payload = diff_runs(load_side(a), load_side(b))
        assert payload["deterministic_delta_count"] == 1
        assert payload["metrics"] == {"transport.retransmits{}": {
            "kind": "counter", "before": 12.0, "after": float(after),
            "delta": delta}}
        assert main(["diff", a, b]) == 1
        assert f"({delta:+.4g})" in capsys.readouterr().out


class TestLedgerDrift:
    """A ledger row counts as moved when any of its numbers moved, not
    only ``bytes_sent``."""

    @staticmethod
    def _archive(path, **moved):
        row = {"kind": "link", "key": "sw0->b", "note": "",
               "units_sent": 0, "units_delivered": 0, "cells_sent": 0,
               "cells_delivered": 0, "bytes_sent": 0, "bytes_delivered": 0,
               "drops": 0, "residency_seconds": 0.25, "share": 0.0,
               **moved}
        ledger = {"enabled": True, "kinds": {"link": [row]}}
        return str(write_archive(path, ledger=ledger))

    @pytest.mark.parametrize("field,value", [
        ("residency_seconds", 1.25), ("cells_delivered", 5), ("drops", 1)])
    def test_any_moved_field_is_a_delta(self, tmp_path, field, value):
        a = self._archive(tmp_path / "obs_a.jsonl")
        b = self._archive(tmp_path / "obs_b.jsonl", **{field: value})
        same = diff_runs(load_side(a), load_side(a))
        assert same["deterministic_delta_count"] == 0
        payload = diff_runs(load_side(a), load_side(b))
        assert payload["deterministic_delta_count"] == 1
        assert payload["ledger"] == [{
            "kind": "link", "key": "sw0->b", "before_bytes": 0,
            "after_bytes": 0, "delta_bytes": 0}]
        assert main(["diff", a, b]) == 1

    def test_every_moved_row_counts(self, tmp_path, capsys):
        """More moved rows than a diff lists: each one is a delta, and
        the listing stays capped at LEDGER_TOP."""
        assert main(["audit", "classroom", "--out-dir", str(tmp_path)]) == 0
        before = load_side(str(tmp_path / "obs_audit_classroom.jsonl"))
        accounting = copy.deepcopy(before.accounting)
        kinds = accounting["kinds"]
        for row in kinds["link"] + kinds["vc"]:
            row["bytes_sent"] += 53
        after = dataclasses.replace(before, accounting=accounting)
        assert (len(kinds["link"]), len(kinds["vc"])) == (14, 19)
        assert diff_runs(before, before)["deterministic_delta_count"] == 0
        payload = diff_runs(before, after)
        assert payload["deterministic_delta_count"] == 33
        assert len(payload["ledger"]) == LEDGER_TOP
        assert "deterministic deltas: 33" in render_diff_report(payload)


class TestBenchArchives:
    def test_bench_baseline_loads(self):
        archive = load_side(os.path.join(REPO_ROOT,
                                         "BENCH_quickstart.json"))
        bench = archive.summary["bench"]
        assert set(BENCH_DETERMINISTIC) <= set(bench)

    def test_perturbed_bench_vector_is_deterministic_delta(
            self, tmp_path):
        src = os.path.join(REPO_ROOT, "BENCH_quickstart.json")
        with open(src) as fh:
            payload = json.load(fh)
        payload["metrics"]["events_run"] += 1000
        perturbed = tmp_path / "BENCH_quickstart.json"
        perturbed.write_text(json.dumps(payload))
        diff = diff_runs(load_side(src), load_side(str(perturbed)))
        assert diff["deterministic_delta_count"] >= 1
        moved = {r["metric"] for r in diff["bench"]
                 if abs(r["delta"]) > 1e-9}
        assert moved == {"events_run"}

    def test_wall_metrics_never_count_as_deterministic(self, tmp_path):
        src = os.path.join(REPO_ROOT, "BENCH_quickstart.json")
        with open(src) as fh:
            payload = json.load(fh)
        payload["metrics"]["obs_overhead_pct"] = 99.0
        perturbed = tmp_path / "BENCH_quickstart.json"
        perturbed.write_text(json.dumps(payload))
        diff = diff_runs(load_side(src), load_side(str(perturbed)))
        assert diff["deterministic_delta_count"] == 0


class TestDiffArtifact:
    def test_write_diff_names_the_file(self, same_seed_pair, tmp_path):
        a, b = (load_side(p) for p in same_seed_pair)
        path = write_diff(diff_runs(a, b), str(tmp_path), "demo")
        assert os.path.basename(path) == "diff_demo.json"
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["deterministic_delta_count"] == 0

    def test_cli_json_flag_and_exit_code(self, same_seed_pair,
                                         tmp_path, capsys):
        src = same_seed_pair[0]
        archive = load_side(src)
        mutated = write_archive(
            tmp_path / "obs_m.jsonl", name=archive.name,
            summary=_bump_counters(archive.summary, "simulator", 17),
            spans=archive.spans)
        out_json = tmp_path / "d.json"
        assert main(["diff", src, str(mutated),
                     "--json", str(out_json)]) == 1
        # the artifact name is canonicalised to diff_<stem>.json
        assert (tmp_path / "diff_d.json").exists()
        report = capsys.readouterr().out
        assert "simulator.events_run" in report
