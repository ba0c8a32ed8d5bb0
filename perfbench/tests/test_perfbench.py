"""Tests for the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.
"""

import json
import os
import statistics

import pytest

from perfbench import run, stats, tracing
from perfbench.stats import Tally
from perfbench.tracing import UNATTRIBUTED, layer_table, self_times
from perfbench.workloads import WORKLOADS, Catalog, Publish, make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- self-time arithmetic ------------------------------------------------

def test_nested_spans_subtract_only_direct_children():
    spans = [("root", 0.0, 10.0, -1), ("atm", 2.0, 5.0, 0),
             ("util.crc", 3.0, 4.0, 1)]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def test_adjacent_children_cover_the_parent_exactly():
    spans = [("root", 0.0, 10.0, -1), ("atm", 0.0, 5.0, 0),
             ("transport", 5.0, 10.0, 0)]
    assert self_times(spans) == [0.0, 5.0, 5.0]


def test_overlapping_children_are_counted_once():
    spans = [("root", 0.0, 10.0, -1), ("atm", 1.0, 6.0, 0),
             ("atm", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_child_overhanging_its_parent_is_clipped():
    spans = [("root", 0.0, 10.0, -1), ("atm", 8.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_layer_rows_plus_unattributed_sum_to_the_roots():
    spans = [(UNATTRIBUTED, 0.0, 4.0, -1), ("atm", 1.0, 2.0, 0),
             ("atm.sim", 2.0, 3.5, 0), ("atm", 2.5, 3.0, 2),
             (UNATTRIBUTED, 4.0, 6.0, -1), ("database", 4.5, 5.0, 4)]
    table = layer_table(spans)
    assert table["atm"] == pytest.approx(1.5)
    assert table["atm.sim"] == pytest.approx(1.0)
    assert table[UNATTRIBUTED] == pytest.approx(3.0)
    assert table["streaming"] == 0.0  # every layer has a row
    assert sum(table.values()) == pytest.approx(6.0)


def test_layer_of_module_maps_packages_and_named_sub_layers():
    assert tracing.layer_of_module("repro.atm.simulator") == "atm.sim"
    assert tracing.layer_of_module("repro.atm.link") == "atm"
    assert tracing.layer_of_module("repro.obs.timeseries") == "obs.telemetry"
    assert tracing.layer_of_module("repro.obs.audit") == "obs"
    assert tracing.layer_of_module("repro.database.api") == "database"
    assert tracing.layer_of_module("perfbench.workloads") == UNATTRIBUTED


def test_instrumentation_spans_callbacks_and_restores_the_program():
    from repro.atm.simulator import Simulator
    from repro.streaming.sender import pack_frame

    original = Simulator.__dict__["schedule"]
    log = tracing.SpanLog()
    with tracing.Instrumentation(log):
        sim = Simulator()
        log.active = True
        root = log.begin(UNATTRIBUTED)
        sim.schedule(0.1, pack_frame, 0, 0.0, True, b"x")
        sim.schedule(0.2, lambda: None)
        sim.run()
        log.end(root)
        log.active = False
    assert Simulator.__dict__["schedule"] is original
    names = log.names
    assert names[0] == UNATTRIBUTED and "atm.sim" in names
    assert "streaming" in names  # pack_frame lives in repro.streaming
    spans = log.spans()
    assert sum(layer_table(spans).values()) == pytest.approx(
        spans[0][2] - spans[0][1])


# -- order statistics ----------------------------------------------------

def test_quartiles_interpolate_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert stats.quartiles(values) == (2.0, 3.0, 4.0)
    assert stats.lower_quartile(values) == 2.0
    assert stats.lower_quartile([1.0, 2.0]) == pytest.approx(1.25)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(statistics.StatisticsError):
        stats.quartiles([])


def test_tail_keeps_ten_samples_beyond_it():
    assert stats.tail(list(range(10))) is None
    assert stats.tail(list(range(20))) == (50, 9)
    assert stats.tail(list(range(40))) == (75, 29)
    pct, value = stats.tail([float(v) for v in range(11)])
    assert value == 0.0 and pct == 9


def test_slice_floor_sums_the_fastest_copy_of_each_slice():
    runs = [[1.0, 5.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 1.5]]
    assert stats.slice_floor(runs) == pytest.approx(1.0 + 1.0 + 1.5)
    assert stats.slice_floor([[1.0, 2.0], [1.0]]) is None
    assert stats.slice_floor([]) is None


def test_unit_slices_add_up_to_its_phase_times(tmp_path):
    timed = run.run_unit("publish", make_inputs("publish", 5), str(tmp_path))
    assert len(timed.slices) > 1 and len(timed.setup_slices) > 1
    assert sum(timed.slices) == pytest.approx(timed.wall_s)
    assert sum(timed.setup_slices) == pytest.approx(timed.setup_s)


def test_untraced_runs_time_a_fixed_number_of_units():
    assert run.unit_count("publish", 25) == round(
        run.UNITS_PER_SECOND["publish"] * 25)
    assert run.unit_count("lecture", 0.1) == run.MIN_UNITS
    assert set(run.UNITS_PER_SECOND) == set(WORKLOADS)


def test_traced_unit_splits_rows_and_counts_by_phase(tmp_path):
    inputs = make_inputs("publish", 5)
    rec = run.Record()
    timed, _log, tables, counts = run.traced_unit(
        "publish", inputs, str(tmp_path), rec)
    assert rec.correct, rec.problems
    assert sum(tables["setup"].values()) == pytest.approx(
        timed.setup_s, rel=run.SUM_TOLERANCE)
    assert sum(tables["measured"].values()) == pytest.approx(
        timed.wall_s, rel=run.SUM_TOLERANCE)
    # documents are compiled and encoded only in the measured phase,
    # media only at set-up
    assert tables["setup"]["mheg.encode"] == 0.0
    assert tables["measured"]["mheg.encode"] > 0.0
    assert tables["measured"]["media"] == pytest.approx(0.0, abs=1e-9)
    assert tables["setup"]["media"] > 0.0
    assert counts["database.writes"] == len(inputs["docs"])
    assert counts["transport.rpc.failed"] == 0


def test_summary_reports_count_and_tail():
    s = stats.summary([float(v) for v in range(20)])
    assert s["n"] == 20 and s["p50"] == 9.0 and s["min"] == 0.0


# -- digest and failure accounting ---------------------------------------

def test_tally_counts_failures_against_attempts():
    tally = Tally()
    for k in range(10):
        tally.check(k % 3 != 0, f"op {k}")
    assert (tally.attempted, tally.failed) == (10, 4)
    other = Tally()
    for k in range(8):
        other.check(False, f"other {k}")
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (18, 12)
    assert len(tally.failures) == Tally.KEEP


def test_digests_agree_needs_one_digest_and_no_disagreement():
    assert stats.digests_agree(["a", "a", None])
    assert not stats.digests_agree(["a", "b"])
    assert not stats.digests_agree([None])
    assert not stats.digests_agree([])


def test_record_is_incorrect_when_digests_differ():
    from perfbench.workloads import Outcome
    rec = run.Record()
    rec.add(Outcome(Tally(), "a"))
    assert rec.correct
    rec.add(Outcome(Tally(), "b"))
    assert not rec.correct


# -- inputs and units ----------------------------------------------------

def test_inputs_repeat_per_seed_and_keep_their_shape():
    for name in WORKLOADS:
        assert make_inputs(name, 3) == make_inputs(name, 3)
    a, b = make_inputs("catalog", 1), make_inputs("catalog", 2)
    assert a["plans"] != b["plans"]
    assert [len(p) for p in a["plans"]] == [len(p) for p in b["plans"]]
    for inp in (a, b):
        per_keyword = {}
        for course in inp["courses"]:
            for kw in course.keywords:
                per_keyword[kw] = per_keyword.get(kw, 0) + 1
        assert len(set(per_keyword.values())) == 1


def test_publish_unit_verifies_and_repeats_its_digest(tmp_path):
    inputs = make_inputs("publish", 5)
    digests = []
    for _ in range(2):
        outcome = run.run_unit("publish", inputs, str(tmp_path)).outcome
        assert outcome.tally.failed == 0
        assert outcome.tally.attempted >= len(inputs["docs"])
        digests.append(outcome.digest)
    assert digests[0] == digests[1]


def test_catalog_counts_a_wrong_answer_as_a_failure(tmp_path):
    unit = Catalog(make_inputs("catalog", 5), str(tmp_path))
    unit.setup()
    unit.measure()
    assert unit.verify().tally.failed == 0
    unit.answers[0][0] = "wrong"
    outcome = unit.verify()
    assert outcome.tally.failed == 1
    assert outcome.tally.attempted == sum(
        len(p) for p in unit.inputs["plans"]) + 1


def test_publish_counts_a_missing_upload_as_a_failure(tmp_path):
    unit = Publish(make_inputs("publish", 5), str(tmp_path))
    unit.setup()
    unit.measure()
    unit.stored.pop()
    assert unit.verify().tally.failed == 1


# -- the benchmark definition --------------------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)
