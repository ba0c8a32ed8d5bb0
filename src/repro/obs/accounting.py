"""Per-entity accounting ledger.

The thesis costs the MITS deployment per *tenant*: each virtual
circuit, site, and media stream consumes cells, bytes, and buffer
residency that the operator must attribute.  The :class:`Ledger`
collects that attribution at the points where traffic actually moves —
host transmit/deliver, link drop/dwell, stream send/playout, and the
transport layer's per-trace byte counts — so a single snapshot answers
"who used the network, and how much".

The cost model follows ``metrics.py``: a disabled ledger hands every
caller the shared :data:`NULL_ACCOUNT`, whose mutators are no-ops, so
instrumented hot paths pay one attribute call and nothing else.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.report import _pad

__all__ = [
    "Account",
    "Ledger",
    "NULL_ACCOUNT",
    "SORT_COLUMNS",
    "render_top",
]

#: columns accepted by ``render_top(sort=...)`` / ``repro.obs top --sort``
SORT_COLUMNS = ("bytes", "cells", "units", "drops", "residency")

class Account:
    """Running totals for one accountable entity.

    ``units`` are the entity's natural quantum (PDUs for a VC or site,
    frames for a stream, messages for a trace); cells and bytes are the
    ATM-level cost of moving them.
    """

    __slots__ = ("kind", "key", "note", "units_sent", "units_delivered",
                 "cells_sent", "cells_delivered", "bytes_sent",
                 "bytes_delivered", "drops", "residency_seconds")

    def __init__(self, kind: str, key: str, note: str = "") -> None:
        self.kind = kind
        self.key = key
        self.note = note
        self.units_sent = 0
        self.units_delivered = 0
        self.cells_sent = 0
        self.cells_delivered = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.drops = 0
        self.residency_seconds = 0.0

    def sent(self, units: int = 0, cells: int = 0, nbytes: int = 0) -> None:
        self.units_sent += units
        self.cells_sent += cells
        self.bytes_sent += nbytes

    def delivered(self, units: int = 0, cells: int = 0, nbytes: int = 0) -> None:
        self.units_delivered += units
        self.cells_delivered += cells
        self.bytes_delivered += nbytes

    def drop(self) -> None:
        self.drops += 1

    def dwell(self, seconds: float) -> None:
        """Charge queue-residency time (cell sat *seconds* buffered)."""
        self.residency_seconds += seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "key": self.key,
            "note": self.note,
            "units_sent": self.units_sent,
            "units_delivered": self.units_delivered,
            "cells_sent": self.cells_sent,
            "cells_delivered": self.cells_delivered,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "drops": self.drops,
            "residency_seconds": self.residency_seconds,
        }


class _NullAccount(Account):
    """Shared sink for disabled ledgers: every mutator is a no-op."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", "null")

    def sent(self, units: int = 0, cells: int = 0, nbytes: int = 0) -> None:
        pass

    def delivered(self, units: int = 0, cells: int = 0, nbytes: int = 0) -> None:
        pass

    def drop(self) -> None:
        pass

    def dwell(self, seconds: float) -> None:
        pass


NULL_ACCOUNT = _NullAccount()


class Ledger:
    """Registry of :class:`Account` rows keyed by ``(kind, key)``.

    Entity kinds used by the instrumented stack: ``vc`` (virtual
    circuits, keyed by numeric id), ``site`` (hosts), ``stream``
    (video senders/players), ``trace`` (per-request byte attribution),
    and ``link`` (drop + residency attribution at the buffer that
    measured it).
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._accounts: Dict[Tuple[str, str], Account] = {}

    def account(self, kind: str, key: str, note: str = "") -> Account:
        if not self.enabled:
            return NULL_ACCOUNT
        acct = self._accounts.get((kind, key))
        if acct is None:
            acct = Account(kind, key, note)
            self._accounts[(kind, key)] = acct
        return acct

    def accounts(self, kind: Optional[str] = None) -> List[Account]:
        return [a for a in self._accounts.values()
                if kind is None or a.kind == kind]

    def kinds(self) -> List[str]:
        return sorted({a.kind for a in self._accounts.values()})

    def snapshot(self, sim_time: Optional[float] = None) -> Dict[str, object]:
        """Export every account, with per-kind bandwidth shares.

        ``share`` is the account's fraction of its kind's total bytes
        sent; ``bits_per_sec`` is its average offered rate over the
        run (only when *sim_time* is given and positive).
        """
        kinds: Dict[str, List[Dict[str, object]]] = {}
        for kind in self.kinds():
            rows = [a.to_dict() for a in
                    sorted(self.accounts(kind), key=lambda a: a.key)]
            total_bytes = sum(r["bytes_sent"] for r in rows)
            for row in rows:
                row["share"] = (row["bytes_sent"] / total_bytes
                                if total_bytes else 0.0)
                if sim_time:
                    row["bits_per_sec"] = row["bytes_sent"] * 8.0 / sim_time
            kinds[kind] = rows
        return {"enabled": self.enabled, "kinds": kinds}

    def reconcile(self, registry) -> List[Dict[str, object]]:
        """Cross-check ledger totals against the metrics registry.

        The ledger's accounts and the registry's counters (which read
        the components' own stats) are fed by separate hooks; a
        refactor that loses one shows up here as a divergence.
        Returns a list of divergence records (empty when consistent);
        byte totals must agree to within rounding (exactly, since both
        count integers).
        """
        out: List[Dict[str, object]] = []
        if not self.enabled:
            return out

        # (component, name) -> the label naming the ledger key; one
        # pass over the registry collects each metric's value per key
        label_of = {("vc", "pdus_sent"): "vc", ("vc", "pdus_delivered"): "vc",
                    ("streaming", "bytes_sent"): "stream",
                    ("streaming", "frames_sent"): "stream",
                    ("link", "drops_total"): "link"}
        by_metric: Dict[Tuple[str, str], Dict[object, object]] = {
            metric: {} for metric in label_of}
        for (component, name, labels), inst in registry.find().items():
            label = label_of.get((component, name))
            if label is not None:
                by_metric[component, name][dict(labels).get(label)] = \
                    inst.value

        checks = [
            ("vc", by_metric["vc", "pdus_sent"],
             lambda a: a.units_sent, "pdus_sent"),
            ("vc", by_metric["vc", "pdus_delivered"],
             lambda a: a.units_delivered, "pdus_delivered"),
            ("stream", by_metric["streaming", "bytes_sent"],
             lambda a: a.bytes_sent, "bytes_sent"),
            ("stream", by_metric["streaming", "frames_sent"],
             lambda a: a.units_sent, "frames_sent"),
            ("link", by_metric["link", "drops_total"],
             lambda a: a.drops, "drops_total"),
        ]
        for kind, registry_vals, getter, field in checks:
            for acct in self.accounts(kind):
                if acct.key not in registry_vals:
                    continue
                ledger_val = getter(acct)
                registry_val = registry_vals[acct.key]
                if abs(ledger_val - registry_val) > 0.5:
                    out.append({"kind": kind, "key": acct.key,
                                "field": field, "ledger": ledger_val,
                                "registry": registry_val})
        return out


# -- rendering --------------------------------------------------------------

def _fmt_bytes(n: float) -> str:
    if n >= 1e9:
        return f"{n / 1e9:.2f}G"
    if n >= 1e6:
        return f"{n / 1e6:.2f}M"
    if n >= 1e3:
        return f"{n / 1e3:.1f}k"
    return f"{int(n)}"


_SORT_KEYS = {
    "bytes": lambda r: r.get("bytes_sent", 0) + r.get("bytes_delivered", 0),
    "cells": lambda r: r.get("cells_sent", 0) + r.get("cells_delivered", 0),
    "units": lambda r: r.get("units_sent", 0) + r.get("units_delivered", 0),
    "drops": lambda r: r.get("drops", 0),
    "residency": lambda r: r.get("residency_seconds", 0.0),
}


def render_top(payload: Dict[str, object], *, kind: Optional[str] = None,
               sort: str = "bytes", limit: int = 20,
               title: str = "accounting") -> str:
    """Render a ledger snapshot as per-kind `top`-style tables."""
    if sort not in _SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_COLUMNS}, got {sort!r}")
    lines: List[str] = [f"== {title} =="]
    if not payload.get("enabled", False):
        lines.append("  accounting disabled (run with accounting enabled)")
        return "\n".join(lines)
    kinds: Dict[str, List[Dict]] = payload.get("kinds", {})  # type: ignore
    wanted: Iterable[str] = [kind] if kind else sorted(kinds)
    header = (f"  {_pad('entity', 26)} {'units s/d':>11} {'cells s/d':>13} "
              f"{'bytes s/d':>15} {'drops':>6} {'dwell':>8} {'share':>6}")
    for k in wanted:
        rows = kinds.get(k, [])
        lines.append(f"-- {k} ({len(rows)}) --")
        if not rows:
            lines.append("  (no accounts)")
            continue
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        ordered = sorted(rows, key=_SORT_KEYS[sort], reverse=True)[:limit]
        for r in ordered:
            name = r["key"] + (f" ({r['note']})" if r.get("note") else "")
            units = f"{r['units_sent']}/{r['units_delivered']}"
            cells = f"{r['cells_sent']}/{r['cells_delivered']}"
            nbytes = (f"{_fmt_bytes(r['bytes_sent'])}/"
                      f"{_fmt_bytes(r['bytes_delivered'])}")
            lines.append(
                f"  {_pad(name, 26)} {units:>11} {cells:>13} {nbytes:>15} "
                f"{r['drops']:>6} {r['residency_seconds']:>7.3f}s "
                f"{r['share'] * 100:>5.1f}%")
        if len(rows) > limit:
            lines.append(f"  ... {len(rows) - limit} more "
                         f"(raise --limit to see them)")
    return "\n".join(lines)
