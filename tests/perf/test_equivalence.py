"""Golden equivalence: cell-train forwarding must EQUAL the per-cell loop.

Cell trains replace ~6 scheduled events per cell with one callback per
pipeline stage.  The correctness claim is not "close enough" — it is
exact: for every named scenario the canonical snapshot (every per-VC
delay, link/switch/host counter, gauge extreme, SLO result,
conservation audit, flight-recorder ring — everything except the raw
event count and wall-clock noise, see :mod:`repro.obs.equivalence`)
must hash to the digest recorded from the event-per-cell forwarding
loop.  The goldens live in ``goldens.json``; :mod:`tests.perf.goldens`
documents how and when to re-record them.
"""

import pytest

from tests.perf import goldens

GOLDENS = goldens.load()

#: scenario snapshots are deterministic, so one run per scenario
#: serves every assertion in the module
_cache = {}


def _snapshot(name):
    if name not in _cache:
        _cache[name] = goldens.scenario_snapshot(name)
    return _cache[name]


@pytest.mark.parametrize("name", goldens.SCENARIOS)
class TestBatchedIsExact:
    def test_canonical_snapshot_is_byte_identical(self, name):
        assert goldens.digest(_snapshot(name)) \
            == GOLDENS["scenarios"][name]["digest"], (
                f"{name}: canonical snapshot moved off its per-cell golden")

    def test_event_count_shrinks_but_work_is_conserved(self, name):
        """Per-cell-equivalent events are conserved (charge_cells bills
        each train at per-cell weight), so the count agrees with the
        per-cell loop's within the handful of continuation/deferral
        events trains add — never by a whole frame's worth."""
        per_cell = GOLDENS["scenarios"][name]["events_run"]
        got = _snapshot(name)["events_run"]
        assert abs(got - per_cell) < 500
        assert abs(got - per_cell) / per_cell < 0.02


class TestFloodGoldens:
    """Raw cells arriving one by one at the switch: no named scenario
    polices a cell or floods an output queue, so the EX.6 flood pins
    both paths on its own."""

    def test_policed_flood_is_byte_identical(self):
        snap = goldens.ex6_flood(police=True)
        assert snap["switch"]["policed_dropped"] > 0
        assert goldens.digest(snap) == GOLDENS["policing-flood"]

    def test_unpoliced_flood_is_byte_identical(self):
        """The flood and the victim's trains meet in the output link's
        per-cell queue, where admission and priority see every cell."""
        snap = goldens.ex6_flood(police=False)
        assert snap["links"]["sw0->sink"]["dropped_overflow"] > 0
        assert goldens.digest(snap) == GOLDENS["unpoliced-flood"]
