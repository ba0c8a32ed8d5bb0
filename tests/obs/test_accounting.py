"""Tests for the per-entity accounting ledger (repro.obs.accounting).

The ledger keeps no totals of its own: components register with
``Ledger.track`` and every snapshot row is read from their counters.
"""

import json
from types import SimpleNamespace

import pytest

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.cell import Cell, CellHeader
from repro.atm.link import Link
from repro.atm.topology import star_campus
from repro.core.scenarios import build
from repro.obs.accounting import FIELDS, Ledger, render_top
from repro.obs.equivalence import canonical_form, canonical_snapshot
from repro.obs.sink import load_archive
from tests.obs.archives import write_archive


def _sender(frames, nbytes):
    """Stand-in for a stream sender: what it counts of its own sends."""
    return SimpleNamespace(frames_sent=frames, bytes_sent=nbytes)


def _rows(ledger, kind, sim_time=None):
    return {r["key"]: r for r in
            ledger.snapshot(sim_time=sim_time)["kinds"][kind]}


@pytest.fixture
def network():
    """Hosts a and b on a one-switch star, accounting on, with two
    PDUs a->b and one b->a delivered."""
    sim = Simulator(ledger=Ledger())
    net, _spec = star_campus(sim, ["a", "b"])
    contract = TrafficContract(ServiceCategory.UBR, pcr=366e3)
    ab = net.open_vc("a", "b", contract, lambda *_: None)
    ba = net.open_vc("b", "a", contract, lambda *_: None)
    ab.send(bytes(100))
    ab.send(bytes(1000))
    ba.send(bytes(10))
    sim.run(until=1.0)
    return sim, net, ab, ba


@pytest.fixture(scope="module")
def quickstarts():
    """The quickstart deployment run to its horizon, by ``accounting``."""
    runs = {}
    for accounting in (True, False):
        run = build("quickstart", accounting=accounting)
        run.run_to_horizon()
        runs[accounting] = run.mits
    return runs


class TestLedger:
    def test_accounts_memoised_by_kind_and_key(self):
        ledger = Ledger()
        first, second = _sender(1, 10), _sender(2, 20)
        ledger.track("stream", "1", first, note="x->y")
        ledger.track("stream", "1", second)
        ledger.track("link", "1", SimpleNamespace(
            stats=SimpleNamespace(drops_total=0), residency_seconds=0.0))
        snap = ledger.snapshot()
        assert sorted(snap["kinds"]) == ["link", "stream"]
        (row,) = snap["kinds"]["stream"]
        assert row["note"] == "x->y"  # the first registration wins
        assert row["units_sent"] == 1

    def test_rows_read_the_components_counters(self):
        ledger = Ledger()
        sender = _sender(0, 0)
        ledger.track("stream", "vc1", sender)
        assert _rows(ledger, "stream")["vc1"]["bytes_sent"] == 0
        sender.frames_sent, sender.bytes_sent = 3, 720
        row = _rows(ledger, "stream")["vc1"]
        assert (row["units_sent"], row["bytes_sent"]) == (3, 720)

    def test_every_entity_keeps_an_exact_account(self):
        ledger = Ledger()
        for i in range(50):
            ledger.track("stream", f"light{i}", _sender(1, 1))
        ledger.track("stream", "heavy", _sender(1, 1000))
        rows = _rows(ledger, "stream")
        assert len(rows) == 51
        assert rows["heavy"]["bytes_sent"] == 1000
        assert rows["light0"]["bytes_sent"] == 1

    def test_snapshot_rows_are_the_account_fields(self):
        ledger = Ledger()
        ledger.track("stream", "a", _sender(1, 10))
        snap = ledger.snapshot(sim_time=1.0)
        assert set(snap) == {"enabled", "kinds"}
        row = snap["kinds"]["stream"][0]
        assert list(row) == ["kind", "key", "note", *FIELDS,
                             "share", "bits_per_sec"]

    def test_snapshot_is_json_stable(self, network):
        sim, *_ = network
        snap = sim.ledger.snapshot(sim_time=sim.now)
        assert json.loads(json.dumps(snap)) == snap

    def test_disabled_ledger_tracks_nothing(self):
        ledger = Ledger(enabled=False)
        ledger.track("stream", "1", _sender(5, 500))
        assert ledger.snapshot() == {"enabled": False, "kinds": {}}

    def test_snapshot_shares_and_rates(self):
        ledger = Ledger()
        ledger.track("stream", "1", _sender(1, 750))
        ledger.track("stream", "2", _sender(1, 250))
        snap = ledger.snapshot(sim_time=10.0)
        assert snap["enabled"]
        rows = {r["key"]: r for r in snap["kinds"]["stream"]}
        assert rows["1"]["share"] == pytest.approx(0.75)
        assert rows["2"]["share"] == pytest.approx(0.25)
        assert rows["1"]["bits_per_sec"] == pytest.approx(750 * 8 / 10.0)

    def test_snapshot_without_traffic_has_zero_shares(self):
        ledger = Ledger()
        ledger.track("site", "quiet", object())
        rows = ledger.snapshot()["kinds"]["site"]
        assert rows[0]["share"] == 0.0
        assert rows[0]["residency_seconds"] == 0.0

    def test_trace_tally(self):
        ledger = Ledger()
        ledger.trace_sent(0xab, 100)
        ledger.trace_sent(0xab, 50)
        ledger.trace_delivered(0xab, 120)
        row = _rows(ledger, "trace")["tab"]
        assert (row["units_sent"], row["bytes_sent"]) == (2, 150)
        assert (row["units_delivered"], row["bytes_delivered"]) == (1, 120)


class TestTrackedComponents:
    """Each row of a live network is the counters its component keeps."""

    def test_vc_rows(self, network):
        sim, _net, ab, ba = network
        rows = _rows(sim.ledger, "vc")
        for vc in (ab, ba):
            row = rows[str(vc.vc_id)]
            assert row["note"] == f"{vc.src.name}->{vc.dst.name}"
            assert row["units_sent"] == vc.stats.pdus_sent
            assert row["units_delivered"] == vc.stats.pdus_delivered
            assert row["bytes_sent"] == vc.stats.bytes_sent
            assert row["bytes_delivered"] == vc.stats.bytes_delivered
            assert row["cells_sent"] == vc.sender.cells_sent
            assert row["cells_delivered"] == vc.receiver.cells_delivered
        # 100 and 1000 bytes plus the 8-byte trailer: 3 + 21 cells
        assert rows[str(ab.vc_id)]["cells_sent"] == 24
        assert rows[str(ab.vc_id)]["cells_delivered"] == 24

    def test_site_rows_sum_their_vcs(self, network):
        sim, *_ = network
        sites = _rows(sim.ledger, "site")
        assert set(sites) == {"a", "b"}
        a = sites["a"]
        assert (a["units_sent"], a["cells_sent"], a["bytes_sent"]) == \
            (2, 24, 1100)
        assert (a["units_delivered"], a["cells_delivered"],
                a["bytes_delivered"]) == (1, 1, 10)
        assert sites["b"]["bytes_delivered"] == 1100
        assert sites["b"]["bytes_sent"] == 10

    def test_link_rows(self, network):
        sim, net, *_ = network
        links = _rows(sim.ledger, "link")
        assert set(links) == {link.name for link in net.links.values()}
        for link in net.links.values():
            row = links[link.name]
            assert row["drops"] == link.stats.drops_total
            assert row["residency_seconds"] == link.residency_seconds

    def test_link_residency_is_the_queue_wait(self):
        """Three cells offered at once to the per-cell queue wait 0, 1
        and 2 cell times for their service start."""
        sim = Simulator(ledger=Ledger())
        link = Link(sim, 155.52e6, name="x->y")
        for i in range(3):
            link.enqueue(Cell(header=CellHeader(vpi=0, vci=32),
                              payload=bytes(48), seqno=i))
        sim.run(until=1.0)
        assert link.residency_seconds == pytest.approx(3 * link.cell_time)
        row = _rows(sim.ledger, "link")["x->y"]
        assert row["residency_seconds"] == link.residency_seconds

    def test_quickstart_rows_match_the_components(self, quickstarts):
        mits = quickstarts[True]
        snap = mits.sim.ledger.snapshot()["kinds"]
        links = {r["key"]: r for r in snap["link"]}
        for link in mits.network.links.values():
            assert links[link.name]["drops"] == link.stats.drops_total
        (player,) = mits.sim.entities["player"]
        streams = {r["key"]: r for r in snap["stream"]}
        row = streams[player.name]
        assert row["units_delivered"] == player.stats.frames_received
        assert row["bytes_delivered"] == player.stats.bytes_received > 0
        assert snap["trace"]


class TestAccountingOnlyReports:
    def test_accounting_changes_only_what_is_reported(self, quickstarts):
        """The ledger reads counters the run keeps anyway, so turning
        it on moves nothing but the ``accounting`` block."""
        on, off = (canonical_snapshot(quickstarts[accounting].snapshot())
                   for accounting in (True, False))
        assert on.pop("accounting")["kinds"]
        assert off.pop("accounting") == {"enabled": False, "kinds": {}}
        assert canonical_form(on) == canonical_form(off)


class TestRenderTop:
    def _payload(self):
        ledger = Ledger()
        ledger.track("stream", "1", _sender(10, 2000), note="db->user1")
        ledger.track("stream", "2", _sender(1, 200))
        ledger.track("link", "sw0->user1", SimpleNamespace(
            stats=SimpleNamespace(drops_total=3), residency_seconds=0.5))
        return ledger.snapshot(sim_time=5.0)

    def test_renders_every_kind_with_headers(self):
        out = render_top(self._payload())
        assert "-- stream (2) --" in out
        assert "-- link (1) --" in out
        assert "1 (db->user1)" in out

    def test_kind_filter_and_limit(self):
        out = render_top(self._payload(), kind="stream", limit=1)
        assert "-- link" not in out
        assert "1 more" in out

    def test_sort_by_drops(self):
        payload = self._payload()
        out = render_top(payload, sort="drops")
        assert out  # valid column accepted
        with pytest.raises(ValueError):
            render_top(payload, sort="favourite-colour")

    def test_disabled_payload_renders_hint(self):
        out = render_top({"enabled": False, "kinds": {}})
        assert "accounting disabled" in out


class TestLoadAccountingFile:
    """The ledger rides in the run's archive as ``ledger`` records."""

    def test_round_trip(self, tmp_path):
        ledger = Ledger()
        ledger.track("stream", "1", _sender(1, 100))
        path = write_archive(tmp_path / "obs_x.jsonl",
                             ledger=ledger.snapshot())
        data = load_archive(str(path)).accounting
        assert data["kinds"]["stream"][0]["key"] == "1"

    def test_rejects_non_accounting_json(self, tmp_path):
        path = tmp_path / "metrics_x.json"
        path.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ValueError, match=":1: not an obs archive"):
            load_archive(str(path))
