"""Chaos coverage for cell-train forwarding.

Cell trains must not merely survive fault plans — they must experience
them *identically* to the event-per-cell loop.  For each plan (the
full ``classroom-chaos`` mix, the ``link-flaps`` random outage storm,
and ``switchbound-jitter``: jitter into the switch with a crash and a
teardown inside the jitter windows) the Course-On-Demand flow runs and
the test compares it with the per-cell golden recorded in
``tests/perf/goldens.json``:

* zero conservation violations (``run_course`` already asserts this on
  exit for every run it returns);
* identical fault fingerprints: the FlightRecorder's injected/cleared
  event sequence — times, fault kinds, targets, ids — so trains
  neither reorder nor swallow an injection;
* identical damage: SLO verdict, per-layer drop totals, retransmit and
  recovery counters, because the horizon rule expands any train a
  fault window touches into the per-cell queue;
* the same canonical snapshot digest, byte for byte.
"""

from tests.faults.conftest import run_course
from tests.perf import goldens

GOLDENS = goldens.load()["chaos"]

_runs = {}


def _run(plan_name):
    if plan_name not in _runs:
        _runs[plan_name] = run_course(goldens.CHAOS_PLANS[plan_name]())
    return _runs[plan_name]


def _assert_matches_golden(plan_name):
    run = _run(plan_name)
    got = goldens.chaos_record(run)
    want = GOLDENS[plan_name]
    assert got["injected"] == want["injected"]
    assert got["cleared"] == want["cleared"]
    assert run.audit() == []
    # same damage, same verdict — not merely "both degraded"
    assert got["damage"] == want["damage"]
    assert got["verdict"] == want["verdict"]
    assert got["digest"] == want["digest"]


class TestChaosFidelity:
    def test_classroom_chaos_fingerprints_match_per_cell(self):
        _assert_matches_golden("classroom-chaos")

    def test_link_flaps_fingerprints_match_per_cell(self):
        _assert_matches_golden("link-flaps")

    def test_switchbound_jitter_fingerprints_match_per_cell(self):
        _assert_matches_golden("switchbound-jitter")

    def test_chaos_plans_really_bite(self):
        """Guard against vacuous equality: both plans must actually
        drop cells, proving trains carried the traffic straight
        through the fault windows."""
        for plan_name in ("classroom-chaos", "link-flaps"):
            run = _run(plan_name)
            assert run.metric_total("link", "drops_total") > 0, plan_name

    def test_switchbound_jitter_really_bites(self):
        """The crash drops cells that jitter delivers one by one."""
        run = _run("switchbound-jitter")
        assert run.mits.network.switches["sw0"].stats.crash_dropped > 0

