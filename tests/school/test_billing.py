"""Tests for the billing service."""

import pytest

from repro.school.billing import BillingService, Tariff
from repro.util.errors import DatabaseError


class TestTariff:
    def test_defaults_valid(self):
        Tariff()

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            Tariff(per_session_minute=-1)


class TestLedger:
    def test_registration_charge(self):
        billing = BillingService(Tariff(per_registration=50))
        billing.record_registration("S1", "ELG5376")
        assert billing.balance("S1") == 50.0

    def test_session_charged_by_minute(self):
        billing = BillingService(Tariff(per_session_minute=0.30))
        billing.record_session("S1", "ELG5376", seconds=600)
        assert billing.balance("S1") == pytest.approx(3.0)

    def test_negative_quantities_rejected(self):
        billing = BillingService()
        with pytest.raises(DatabaseError):
            billing.record_session("S1", "c", seconds=-1)

    def test_statement_grouped(self):
        billing = BillingService(Tariff(per_registration=10,
                                        per_session_minute=1.0))
        billing.record_registration("S1", "A")
        billing.record_session("S1", "A", seconds=60)
        billing.record_session("S1", "A", seconds=120)
        stmt = billing.statement("S1")
        assert stmt["entries"] == 3
        assert stmt["by_kind"]["session"]["items"] == 2
        assert stmt["by_kind"]["session"]["quantity"] == pytest.approx(3.0)
        assert stmt["total"] == pytest.approx(13.0)

    def test_ledgers_isolated(self):
        billing = BillingService(Tariff(per_registration=10))
        billing.record_registration("S1", "A")
        billing.record_registration("S2", "A")
        assert billing.balance("S1") == 10
        assert billing.balance("S2") == 10

    def test_unknown_student_zero(self):
        assert BillingService().balance("ghost") == 0.0
