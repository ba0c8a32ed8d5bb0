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

At scale, one account per entity ever seen is itself an unbounded
memory cost.  A ledger constructed with ``top_k=K`` switches to a
*space-saving* sketch (Metwally et al.): at most K accounts per kind
are kept; when a new entity arrives at a full kind the lightest
account (by ``weight``, a monotone sum of everything charged) is
evicted and the newcomer *inherits* its weight as an ``error`` bound.
Truly heavy entities are guaranteed to surface; any row whose error
bound is nonzero is rendered with a ``~`` marker because part of its
weight may belong to evicted predecessors.  ``reconcile`` is skipped
in this mode — evicted accounts would show as false divergences.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ACCOUNT_SUM_FIELDS",
    "Account",
    "Ledger",
    "NULL_ACCOUNT",
    "SORT_COLUMNS",
    "account_weight",
    "render_top",
]

#: columns accepted by ``render_top(sort=...)`` / ``repro.obs top --sort``
SORT_COLUMNS = ("bytes", "cells", "units", "drops", "residency")

#: every additive charge field on an :class:`Account` row — shard
#: merges sum exactly these (share/bits_per_sec are derived, not summed)
ACCOUNT_SUM_FIELDS = ("units_sent", "units_delivered", "cells_sent",
                      "cells_delivered", "bytes_sent", "bytes_delivered",
                      "drops", "residency_seconds")


def account_weight(row: Dict[str, object]) -> float:
    """The space-saving rank of a snapshot row: the sum of everything
    charged (exactly what :class:`Account` accumulates into ``weight``
    live).  Falls back to recomputing when the snapshot was exact and
    carried no ``weight`` column."""
    if row.get("weight") is not None:
        return float(row["weight"])  # type: ignore[arg-type]
    return float(sum(row.get(f, 0) or 0  # type: ignore[arg-type]
                     for f in ACCOUNT_SUM_FIELDS))


class Account:
    """Running totals for one accountable entity.

    ``units`` are the entity's natural quantum (PDUs for a VC or site,
    frames for a stream, messages for a trace); cells and bytes are the
    ATM-level cost of moving them.
    """

    __slots__ = ("kind", "key", "note", "units_sent", "units_delivered",
                 "cells_sent", "cells_delivered", "bytes_sent",
                 "bytes_delivered", "drops", "residency_seconds",
                 "weight", "error")

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
        #: monotone total of everything charged — the space-saving
        #: sketch's eviction rank (see Ledger top_k)
        self.weight = 0.0
        #: inherited weight ceiling: how much of ``weight`` may belong
        #: to evicted predecessors (0 for exact accounts)
        self.error = 0.0

    def sent(self, units: int = 0, cells: int = 0, nbytes: int = 0) -> None:
        self.units_sent += units
        self.cells_sent += cells
        self.bytes_sent += nbytes
        self.weight += units + cells + nbytes

    def delivered(self, units: int = 0, cells: int = 0, nbytes: int = 0) -> None:
        self.units_delivered += units
        self.cells_delivered += cells
        self.bytes_delivered += nbytes
        self.weight += units + cells + nbytes

    def drop(self, cells: int = 1) -> None:
        self.drops += cells
        self.weight += cells

    def dwell(self, seconds: float) -> None:
        """Charge queue-residency time (cell sat *seconds* buffered)."""
        self.residency_seconds += seconds
        self.weight += seconds

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

    def drop(self, cells: int = 1) -> None:
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

    def __init__(self, *, enabled: bool = True,
                 top_k: Optional[int] = None) -> None:
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1 when set")
        self.enabled = enabled
        self.top_k = top_k
        self._accounts: Dict[Tuple[str, str], Account] = {}
        #: per-kind count of accounts evicted by the top-K sketch
        self.evictions: Dict[str, int] = {}

    def account(self, kind: str, key: str, note: str = "") -> Account:
        if not self.enabled:
            return NULL_ACCOUNT
        acct = self._accounts.get((kind, key))
        if acct is None:
            acct = Account(kind, key, note)
            if self.top_k is not None:
                held = [a for a in self._accounts.values()
                        if a.kind == kind]
                if len(held) >= self.top_k:
                    # space-saving: evict the lightest, the newcomer
                    # inherits its weight as an error bound — a truly
                    # heavy entity always climbs into the kept set
                    victim = min(held, key=lambda a: (a.weight, a.key))
                    del self._accounts[(victim.kind, victim.key)]
                    self.evictions[kind] = self.evictions.get(kind, 0) + 1
                    acct.weight = victim.weight
                    acct.error = victim.weight
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
            accounts = sorted(self.accounts(kind), key=lambda a: a.key)
            rows = []
            for a in accounts:
                row = a.to_dict()
                if self.top_k is not None:
                    row["weight"] = a.weight
                    row["error"] = a.error
                    row["approx"] = a.error > 0
                rows.append(row)
            total_bytes = sum(r["bytes_sent"] for r in rows)
            for row in rows:
                row["share"] = (row["bytes_sent"] / total_bytes
                                if total_bytes else 0.0)
                if sim_time:
                    row["bits_per_sec"] = row["bytes_sent"] * 8.0 / sim_time
            kinds[kind] = rows
        snap: Dict[str, object] = {"enabled": self.enabled, "kinds": kinds}
        if self.top_k is not None:
            snap["top_k"] = self.top_k
            snap["evictions"] = dict(sorted(self.evictions.items()))
        return snap

    def reconcile(self, registry) -> List[Dict[str, object]]:
        """Cross-check ledger totals against the metrics registry.

        The ledger and the registry are fed at the same call sites but
        through independent objects; a refactor that loses one hook
        shows up here as a divergence.  Returns a list of divergence
        records (empty when consistent); byte totals must agree to
        within rounding (exactly, since both count integers).

        A top-K ledger cannot reconcile — evicted accounts would show
        as false divergences — so the check is skipped entirely.
        """
        out: List[Dict[str, object]] = []
        if (not self.enabled or self.top_k is not None
                or registry is None or not registry.enabled):
            return out

        def counter_by_label(component, name, label_key):
            found = {}
            for (comp, nm, labels), inst in registry.find(component, name).items():
                found[dict(labels).get(label_key)] = inst.value
            return found

        checks = [
            ("vc", "vc", counter_by_label("vc", "pdus_sent", "vc"),
             lambda a: a.units_sent, "pdus_sent"),
            ("vc", "vc", counter_by_label("vc", "pdus_delivered", "vc"),
             lambda a: a.units_delivered, "pdus_delivered"),
            ("stream", "stream", counter_by_label("streaming", "bytes_sent",
                                                  "stream"),
             lambda a: a.bytes_sent, "bytes_sent"),
            ("stream", "stream", counter_by_label("streaming", "frames_sent",
                                                  "stream"),
             lambda a: a.units_sent, "frames_sent"),
            ("link", "link", counter_by_label("link", "drops_total", "link"),
             lambda a: a.drops, "drops_total"),
        ]
        for kind, _label, registry_vals, getter, field in checks:
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

def _pad(text: str, width: int) -> str:
    return text[:width].ljust(width)


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
        lines.append("  accounting disabled (run with accounting enabled "
                     "or pass --live)")
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
            # `~` flags a top-K row whose inherited error bound is
            # nonzero: part of its weight may belong to evicted rows
            marker = "~" if r.get("approx") else ""
            name = (marker + r["key"]
                    + (f" ({r['note']})" if r.get("note") else ""))
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
    if payload.get("top_k") is not None:
        evictions = payload.get("evictions") or {}
        total_evicted = (sum(evictions.values())
                         if isinstance(evictions, dict) else 0)
        lines.append(f"  top-{payload['top_k']} space-saving sketch: "
                     f"~ rows carry an inherited error bound "
                     f"({total_evicted} accounts evicted)")
    return "\n".join(lines)
