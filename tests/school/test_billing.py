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
        billing = BillingService()
        billing.record_registration("S1", "ELG5376")
        assert billing.balance("S1") == Tariff().per_registration

    def test_session_charged_by_minute(self):
        billing = BillingService()
        billing.record_session("S1", "ELG5376", seconds=600)
        assert billing.balance("S1") == pytest.approx(
            10 * Tariff().per_session_minute)

    def test_negative_quantities_rejected(self):
        billing = BillingService()
        with pytest.raises(DatabaseError):
            billing.record_session("S1", "c", seconds=-1)

    def test_statement_grouped(self):
        tariff = Tariff()
        billing = BillingService()
        billing.record_registration("S1", "A")
        billing.record_session("S1", "A", seconds=60)
        billing.record_session("S1", "A", seconds=120)
        stmt = billing.statement("S1")
        assert stmt["entries"] == 3
        assert stmt["by_kind"]["session"]["items"] == 2
        assert stmt["by_kind"]["session"]["quantity"] == pytest.approx(3.0)
        assert stmt["total"] == pytest.approx(
            tariff.per_registration + 3 * tariff.per_session_minute)

    def test_ledgers_isolated(self):
        billing = BillingService()
        billing.record_registration("S1", "A")
        billing.record_registration("S2", "A")
        billing.record_registration("S2", "B")
        assert billing.balance("S1") == Tariff().per_registration
        assert billing.balance("S2") == 2 * Tariff().per_registration

    def test_unknown_student_zero(self):
        assert BillingService().balance("ghost") == 0.0
