"""Per-entity accounting ledger.

The thesis costs the MITS deployment per *tenant*: each virtual
circuit, site, and media stream consumes cells, bytes, and buffer
residency that the operator must attribute.  The :class:`Ledger`
answers "who used the network, and how much" without counting any of
it again: each component registers itself once with
:meth:`Ledger.track`, and :meth:`Ledger.snapshot` reads every row from
the counters that component already keeps.  A site's row is the sum of
the VCs it sends from and delivers to.  The one fact no component
keeps, the bytes each trace moved, is a small tally the transport
feeds while the ledger is enabled.

A disabled ledger tracks nothing and reports no rows, so a run without
accounting pays one attribute test per constructed component and per
traced message.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.report import _pad

__all__ = [
    "FIELDS",
    "Ledger",
    "SORT_COLUMNS",
    "render_top",
]

#: columns accepted by ``render_top(sort=...)`` / ``repro.obs top --sort``
SORT_COLUMNS = ("bytes", "cells", "units", "drops", "residency")

#: the counted fields of a ledger row, in the order a snapshot writes
#: them.  ``units`` are the entity's natural quantum (PDUs for a VC or
#: site, frames for a stream, messages for a trace); cells and bytes
#: are the ATM-level cost of moving them.
FIELDS = ("units_sent", "units_delivered", "cells_sent",
          "cells_delivered", "bytes_sent", "bytes_delivered", "drops",
          "residency_seconds")


def _zero() -> List[Any]:
    return [0, 0, 0, 0, 0, 0, 0, 0.0]


def _vc(vc: Any) -> Tuple:
    s = vc.stats
    rx = vc.receiver
    return (s.pdus_sent, s.pdus_delivered, vc.sender.cells_sent,
            0 if rx is None else rx.cells_delivered,
            s.bytes_sent, s.bytes_delivered, 0, 0.0)


def _link(link: Any) -> Tuple:
    return (0, 0, 0, 0, 0, 0, link.stats.drops_total,
            link.residency_seconds)


def _stream(end: Any) -> Tuple:
    if hasattr(end, "frames_sent"):  # the sender counts what it sent
        return (end.frames_sent, 0, 0, 0, end.bytes_sent, 0, 0, 0.0)
    s = end.stats  # the player counts what it received
    return (0, s.frames_received, 0, 0, 0, s.bytes_received, 0, 0.0)


def _row(kind: str, key: str, note: str, counts: Iterable) -> Dict[str, Any]:
    row: Dict[str, Any] = {"kind": kind, "key": key, "note": note}
    row.update(zip(FIELDS, counts))
    return row


#: kind -> the reader of a tracked component's counters
_READERS = {"vc": _vc, "link": _link, "stream": _stream}


class Ledger:
    """The accountable entities, keyed by ``(kind, key)``.

    Entity kinds used by the stack: ``vc`` (virtual circuits, keyed by
    numeric id), ``site`` (hosts), ``stream`` (video senders and
    players), ``link`` (drops and queue residency at the buffer that
    measured them) and ``trace`` (per-request byte attribution).
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        #: (kind, key) -> (component, note); the first registration wins
        self._tracked: Dict[Tuple[str, str], Tuple[Any, str]] = {}
        #: trace id -> its row's counts, in FIELDS order
        self._traces: Dict[int, List[Any]] = {}

    def track(self, kind: str, key: str, component: Any,
              note: str = "") -> None:
        """Register *component* as the ``(kind, key)`` entity."""
        if self.enabled:
            self._tracked.setdefault((kind, key), (component, note))

    def trace_sent(self, trace_id: int, nbytes: int) -> None:
        counts = self._traces.get(trace_id)
        if counts is None:
            counts = self._traces[trace_id] = _zero()
        counts[0] += 1
        counts[4] += nbytes

    def trace_delivered(self, trace_id: int, nbytes: int) -> None:
        counts = self._traces.get(trace_id)
        if counts is None:
            counts = self._traces[trace_id] = _zero()
        counts[1] += 1
        counts[5] += nbytes

    def _rows(self) -> List[Dict[str, Any]]:
        """One row per entity, read from its component's counters."""
        rows = []
        sites: List[Tuple[str, str]] = []
        #: host name -> the totals of the VCs it sends from and
        #: delivers to (sent fields are even, delivered ones odd)
        totals: Dict[str, List[Any]] = {}
        for (kind, key), (component, note) in self._tracked.items():
            if kind == "site":
                sites.append((key, note))
                continue
            counts = _READERS[kind](component)
            rows.append(_row(kind, key, note, counts))
            if kind == "vc":
                src = totals.setdefault(component.src.name, _zero())
                dst = totals.setdefault(component.dst.name, _zero())
                for i in (0, 2, 4):
                    src[i] += counts[i]
                    dst[i + 1] += counts[i + 1]
        for key, note in sites:
            rows.append(_row("site", key, note, totals.get(key) or _zero()))
        for trace_id, counts in self._traces.items():
            rows.append(_row("trace", f"t{trace_id:x}", "", counts))
        return rows

    def snapshot(self, sim_time: Optional[float] = None) -> Dict[str, object]:
        """Export every entity's row, with per-kind bandwidth shares.

        ``share`` is the row's fraction of its kind's total bytes sent;
        ``bits_per_sec`` is its average offered rate over the run (only
        when *sim_time* is given and positive).
        """
        kinds: Dict[str, List[Dict[str, Any]]] = {}
        for row in self._rows():
            kinds.setdefault(row["kind"], []).append(row)
        for rows in kinds.values():
            rows.sort(key=itemgetter("key"))
            total_bytes = sum(r["bytes_sent"] for r in rows)
            for row in rows:
                row["share"] = (row["bytes_sent"] / total_bytes
                                if total_bytes else 0.0)
                if sim_time:
                    row["bits_per_sec"] = row["bytes_sent"] * 8.0 / sim_time
        return {"enabled": self.enabled, "kinds": dict(sorted(kinds.items()))}


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
