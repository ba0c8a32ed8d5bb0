"""Integration: billing meters the RPC flows automatically."""

import pytest

from repro.core import MitsSystem
from repro.school.billing import BillingService, Tariff
from tests.core.test_resume_and_multiuser import deploy_long_course


def test_registration_and_sessions_billed():
    mits = deploy_long_course()
    fee = Tariff().per_registration
    billing = BillingService()
    mits.database.server.billing = billing

    nav = mits.add_user("payer").navigator
    nav.start()
    nav.register("Payer")
    mits.sim.run(until=mits.sim.now + 5)
    number = nav.student["student_number"]

    mits.wait(nav.register_for_course("LC1"))
    # duplicate registration is free
    mits.wait(nav.register_for_course("LC1"))
    assert billing.balance(number) == fee

    nav.enter_classroom("LC1", "long-course")
    mits.sim.run(until=mits.sim.now + 10)
    position = nav.leave_classroom()
    mits.sim.run(until=mits.sim.now + 3)

    stmt = billing.statement(number)
    assert stmt["by_kind"]["registration"]["amount"] == fee
    session = stmt["by_kind"]["session"]
    assert session["quantity"] == pytest.approx(position / 60.0)

    # a second sitting bills only the increment past the saved position
    nav.enter_classroom("LC1", "long-course")
    mits.sim.run(until=mits.sim.now + 10)
    position2 = nav.leave_classroom()
    mits.sim.run(until=mits.sim.now + 3)
    stmt2 = billing.statement(number)
    assert stmt2["by_kind"]["session"]["quantity"] == pytest.approx(
        max(position, position2) / 60.0)
