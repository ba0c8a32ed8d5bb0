"""Tests for the per-entity accounting ledger (repro.obs.accounting)."""

import json

import pytest

from repro.obs.accounting import (
    Account, Ledger, NULL_ACCOUNT, render_top,
)
from repro.obs.sink import load_archive
from tests.obs.archives import write_archive


class TestAccount:
    def test_totals_accumulate(self):
        acct = Account("vc", "7", note="a->b")
        acct.sent(units=2, cells=10, nbytes=480)
        acct.sent(units=1, cells=5, nbytes=240)
        acct.delivered(units=3, cells=15, nbytes=720)
        for _ in range(5):
            acct.drop()
        acct.dwell(0.5)
        assert acct.units_sent == 3
        assert acct.cells_sent == 15
        assert acct.bytes_sent == 720
        assert acct.units_delivered == 3
        assert acct.drops == 5
        assert acct.residency_seconds == 0.5

    def test_to_dict_is_json_stable(self):
        acct = Account("site", "user1")
        acct.sent(units=1, nbytes=100)
        row = acct.to_dict()
        assert json.loads(json.dumps(row)) == row
        assert row["kind"] == "site" and row["key"] == "user1"


class TestLedger:
    def test_accounts_memoised_by_kind_and_key(self):
        ledger = Ledger()
        a = ledger.account("vc", "1", note="x->y")
        b = ledger.account("vc", "1")
        c = ledger.account("site", "1")
        assert a is b
        assert a is not c
        assert a.note == "x->y"  # first note wins

    def test_every_entity_keeps_an_exact_account(self):
        ledger = Ledger()
        for i in range(50):
            ledger.account("vc", f"light{i}").sent(cells=1)
        ledger.account("vc", "heavy").sent(cells=1000)
        assert len(ledger.accounts("vc")) == 51
        assert ledger.account("vc", "heavy").cells_sent == 1000
        assert ledger.account("vc", "light0").cells_sent == 1

    def test_snapshot_rows_are_the_account_fields(self):
        ledger = Ledger()
        ledger.account("vc", "a").sent(cells=10)
        snap = ledger.snapshot(sim_time=1.0)
        assert set(snap) == {"enabled", "kinds"}
        row = snap["kinds"]["vc"][0]
        assert set(row) == set(Account("vc", "a").to_dict()) \
            | {"share", "bits_per_sec"}

    def test_disabled_ledger_hands_out_the_null_account(self):
        ledger = Ledger(enabled=False)
        acct = ledger.account("vc", "1")
        assert acct is NULL_ACCOUNT
        acct.sent(units=5, cells=5, nbytes=500)
        acct.drop()
        acct.dwell(1.0)
        assert NULL_ACCOUNT.units_sent == 0
        assert NULL_ACCOUNT.drops == 0
        assert NULL_ACCOUNT.residency_seconds == 0.0
        assert ledger.accounts() == []

    def test_snapshot_shares_and_rates(self):
        ledger = Ledger()
        ledger.account("vc", "1").sent(units=1, nbytes=750)
        ledger.account("vc", "2").sent(units=1, nbytes=250)
        snap = ledger.snapshot(sim_time=10.0)
        assert snap["enabled"]
        rows = {r["key"]: r for r in snap["kinds"]["vc"]}
        assert rows["1"]["share"] == pytest.approx(0.75)
        assert rows["2"]["share"] == pytest.approx(0.25)
        assert rows["1"]["bits_per_sec"] == pytest.approx(750 * 8 / 10.0)

    def test_snapshot_without_traffic_has_zero_shares(self):
        ledger = Ledger()
        ledger.account("site", "quiet")
        rows = ledger.snapshot()["kinds"]["site"]
        assert rows[0]["share"] == 0.0

    def test_reconcile_flags_divergence(self):
        from repro.obs.metrics import MetricsRegistry
        ledger = Ledger()
        reg = MetricsRegistry()
        reg.counter("vc", "pdus_sent", vc="1").value += 5
        ledger.account("vc", "1").sent(units=5)
        assert ledger.reconcile(reg) == []
        ledger.account("vc", "1").sent(units=2)  # now 7 vs 5
        div = ledger.reconcile(reg)
        assert len(div) == 1
        assert div[0]["kind"] == "vc" and div[0]["key"] == "1"
        assert div[0]["ledger"] == 7 and div[0]["registry"] == 5

    def test_reconcile_disabled_is_empty(self):
        from repro.obs.metrics import MetricsRegistry
        assert Ledger(enabled=False).reconcile(MetricsRegistry()) == []


class TestRenderTop:
    def _payload(self):
        ledger = Ledger()
        ledger.account("vc", "1", note="db->user1").sent(
            units=10, cells=50, nbytes=2000)
        ledger.account("vc", "2").sent(units=1, cells=5, nbytes=200)
        ledger.account("stream", "classroom-user1").delivered(
            units=8, nbytes=1600)
        return ledger.snapshot(sim_time=5.0)

    def test_renders_every_kind_with_headers(self):
        out = render_top(self._payload())
        assert "-- vc (2) --" in out
        assert "-- stream (1) --" in out
        assert "1 (db->user1)" in out

    def test_kind_filter_and_limit(self):
        out = render_top(self._payload(), kind="vc", limit=1)
        assert "-- stream" not in out
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
        ledger.account("vc", "1").sent(units=1, nbytes=100)
        path = write_archive(tmp_path / "obs_x.jsonl",
                             ledger=ledger.snapshot())
        data = load_archive(str(path)).accounting
        assert data["kinds"]["vc"][0]["key"] == "1"

    def test_rejects_non_accounting_json(self, tmp_path):
        path = tmp_path / "metrics_x.json"
        path.write_text(json.dumps({"metrics": {}}))
        with pytest.raises(ValueError, match=":1: not an obs archive"):
            load_archive(str(path))
