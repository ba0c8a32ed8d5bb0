"""Billing services (§5.2.1 Administration).

"On the other hand, this leaves some space for the further studying
and development of the billing services for the TeleLearning
applications."  This fills that space with usage-based accounting:

* every classroom session is metered by connect time, and every
  course registration is an event;
* a :class:`Tariff` prices the meters; :class:`BillingService`
  accumulates per-student ledgers and renders itemised statements.

Deliberately simple — flat tariffs, no proration — matching what a
1996 virtual school would have fielded first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.errors import DatabaseError


@dataclass(frozen=True)
class Tariff:
    """Prices per metered unit (currency units are abstract)."""

    per_registration: float = 50.0
    per_session_minute: float = 0.25

    def __post_init__(self) -> None:
        for name in ("per_registration", "per_session_minute"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class LedgerEntry:
    kind: str          # registration / session
    detail: str
    quantity: float
    amount: float


class BillingService:
    """Per-student usage ledgers under the school's tariff."""

    def __init__(self) -> None:
        self.tariff = Tariff()
        self._ledgers: Dict[str, List[LedgerEntry]] = {}

    def _add(self, student: str, entry: LedgerEntry) -> LedgerEntry:
        self._ledgers.setdefault(student, []).append(entry)
        return entry

    # -- metering events ----------------------------------------------------

    def record_registration(self, student: str,
                            course_code: str) -> LedgerEntry:
        return self._add(student, LedgerEntry(
            kind="registration", detail=course_code, quantity=1,
            amount=self.tariff.per_registration))

    def record_session(self, student: str, course_code: str,
                       seconds: float) -> LedgerEntry:
        if seconds < 0:
            raise DatabaseError("session duration cannot be negative")
        minutes = seconds / 60.0
        return self._add(student, LedgerEntry(
            kind="session", detail=course_code, quantity=minutes,
            amount=minutes * self.tariff.per_session_minute))

    # -- statements ---------------------------------------------------------

    def balance(self, student: str) -> float:
        return sum(e.amount for e in self._ledgers.get(student, []))

    def statement(self, student: str) -> Dict:
        """An itemised statement, grouped by kind."""
        entries = self._ledgers.get(student, [])
        by_kind: Dict[str, Dict[str, float]] = {}
        for e in entries:
            bucket = by_kind.setdefault(e.kind, {"quantity": 0.0,
                                                 "amount": 0.0,
                                                 "items": 0})
            bucket["quantity"] += e.quantity
            bucket["amount"] += e.amount
            bucket["items"] += 1
        return {"student": student,
                "entries": len(entries),
                "by_kind": by_kind,
                "total": self.balance(student)}
