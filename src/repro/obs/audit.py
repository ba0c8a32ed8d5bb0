"""Conservation audit: prove the counters balance.

Every layer of the stack keeps flow counters, and every layer's
counters obey a conservation law — cells, PDUs, messages, and frames
move between buckets (queued, in flight, delivered, dropped), they
never vanish.  The :class:`ConservationAuditor` walks a live
deployment and checks those laws.  This is the one place each law is
written: components keep the counters, not predicates over them.

===========  =========================================================
layer        invariant
===========  =========================================================
Link buffer  enqueued == transmitted + shed + queued + in_service
Link wire    transmitted == delivered + errors + down + no_sink
Switch       received == emitted + crash + unroutable + policed;
             switched == emitted
VC table     every open VC's label chain is installed; no orphans
AAL5         cells received == delivered + discarded + buffered
VC           pdus/bytes delivered <= pdus/bytes sent
Transport    seqs assigned == acked + in_flight + backlog + flushed
Playout      cursor == played + skipped + concealed;
             received == played + buffered
Mirrors      link/switch read-through counters export the stats
             field they name (a wiring check)
===========  =========================================================

Because in-transit terms (queue depth, cells in service, ARQ windows)
are part of each law, the audit holds at *any* event boundary — it can
run mid-scenario, from ``snapshot()``, or after a chaos run.  A fault
plan moves counts into drop buckets; it must never create or destroy
a count, which is exactly what the chaos suite now asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["ConservationAuditor", "Violation"]

#: at most this many correlated trace ids are attached per violation
TRACE_ID_CAP = 8


@dataclass
class Violation:
    """One broken invariant, with enough context to chase it."""

    component: str          # "link", "switch", "aal5", "transport", ...
    entity: str             # which instance (link label, conn name, ...)
    invariant: str          # short name of the law that failed
    expected: float
    actual: float
    detail: str = ""
    #: trace ids of recent FlightRecorder events touching this entity
    trace_ids: Tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "entity": self.entity,
            "invariant": self.invariant,
            "expected": self.expected,
            "actual": self.actual,
            "detail": self.detail,
            "trace_ids": list(self.trace_ids),
        }

    def __str__(self) -> str:
        return (f"{self.component}/{self.entity}: {self.invariant} "
                f"expected {self.expected} got {self.actual}"
                + (f" ({self.detail})" if self.detail else ""))


def _exported(owner: Any, component: str, name: str, **labels: Any) -> float:
    """The value *owner*'s registry exports for one counter (0 if absent)."""
    inst = owner.sim.metrics.get(component, name, **labels)
    return 0 if inst is None else inst.value


class ConservationAuditor:
    """Cross-checks live instruments against per-layer flow invariants.

    Construct from a :class:`~repro.core.system.MitsSystem` (or any
    object with ``.sim`` and ``.network``).
    """

    def __init__(self, system: Any) -> None:
        self.sim = system.sim
        self.network = system.network
        self.checks = 0
        self.violations: List[Violation] = []

    # -- running ---------------------------------------------------------

    def check(self) -> List[Violation]:
        """Evaluate every invariant; returns the violations found."""
        self.checks = 0
        self.violations = []
        for link in self._links():
            self._audit_link(link)
        for sw in self.network.switches.values():
            self._audit_switch(sw)
        self._audit_routes()
        for host in self.network.hosts.values():
            for vci, (rx, _handler, _vc) in host._rx.items():
                self._audit_receiver(rx, f"{host.name}:vci{vci}")
        for vc in self.network.vcs.values():
            self._audit_vc(vc)
        for conn in self.sim.entities.get("connection", []):
            self._audit_connection(conn)
        for player in self.sim.entities.get("player", []):
            self._audit_player(player)
        return list(self.violations)

    def report(self) -> Dict[str, Any]:
        """``check()`` packaged for ``snapshot()`` / JSON export."""
        violations = self.check()
        return {
            "ok": not violations,
            "checks": self.checks,
            "violations": [v.to_dict() for v in violations],
        }

    # -- plumbing --------------------------------------------------------

    def _links(self):
        seen = set()
        for link in self.network.links.values():
            if id(link) not in seen:
                seen.add(id(link))
                yield link

    def _expect(self, component: str, entity: str, invariant: str,
                expected: float, actual: float, detail: str = "") -> None:
        self.checks += 1
        if expected != actual:
            self.violations.append(Violation(
                component=component, entity=entity, invariant=invariant,
                expected=expected, actual=actual, detail=detail,
                trace_ids=self._trace_ids(entity)))

    def _trace_ids(self, entity: str) -> Tuple[int, ...]:
        """Recent FlightRecorder trace ids whose events mention *entity*."""
        ids: List[int] = []
        short = entity.split(":", 1)[0]
        for event in reversed(self.sim.recorder.events):
            if event.trace_id is None:
                continue
            values = event.attrs.values()
            if entity in values or short in values:
                if event.trace_id not in ids:
                    ids.append(event.trace_id)
                    if len(ids) >= TRACE_ID_CAP:
                        break
        return tuple(ids)

    # -- per-layer laws --------------------------------------------------

    def _audit_link(self, link) -> None:
        label = link._label
        s = link.stats
        self._expect(
            "link", label, "buffer_conservation",
            s.enqueued,
            s.transmitted + s.dropped_shed + link.queue_length
            + link.in_service,
            detail="enqueued == transmitted + shed + queued + in_service")
        self._expect(
            "link", label, "wire_conservation",
            s.transmitted,
            s.delivered + s.dropped_errors + s.dropped_down_wire
            + s.dropped_no_sink,
            detail="transmitted == delivered + errors + down + no_sink")
        self._expect(
            "link", label, "shed_subset",
            min(s.dropped_shed, s.dropped_overflow), s.dropped_shed,
            detail="shed cells are a subset of overflow drops")
        self._expect(
            "link", label, "down_wire_subset",
            min(s.dropped_down_wire, s.dropped_down), s.dropped_down_wire,
            detail="wire losses are a subset of link-down drops")
        self._expect("link", label, "metrics_mirror_enqueued",
                     s.enqueued,
                     _exported(link, "link", "cells_enqueued", link=label),
                     detail="stats.enqueued vs link.cells_enqueued")
        self._expect("link", label, "metrics_mirror_transmitted",
                     s.transmitted,
                     _exported(link, "link", "cells_transmitted", link=label),
                     detail="stats.transmitted vs link.cells_transmitted")
        self._expect(
            "link", label, "metrics_mirror_drops",
            s.dropped_overflow + s.dropped_errors + s.dropped_down
            + s.dropped_no_sink,
            _exported(link, "link", "drops_total", link=label),
            detail="summed stats drops vs link.drops_total")

    def _audit_switch(self, sw) -> None:
        s = sw.stats
        self._expect(
            "switch", sw.name, "receive_conservation",
            s.received,
            s.crash_dropped + s.unroutable + s.policed_dropped
            + s.emitted,
            detail="received == crash + unroutable + policed + emitted")
        self._expect("switch", sw.name, "fabric_occupancy",
                     s.switched, s.emitted,
                     detail="switched == emitted")
        self._expect("switch", sw.name, "metrics_mirror_received",
                     s.received,
                     _exported(sw, "switch", "cells_received",
                               switch=sw.name),
                     detail="stats.received vs switch.cells_received")
        self._expect("switch", sw.name, "metrics_mirror_unroutable",
                     s.unroutable,
                     _exported(sw, "switch", "cells_unroutable",
                               switch=sw.name),
                     detail="stats.unroutable vs switch.cells_unroutable")

    def _audit_routes(self) -> None:
        """Every open VC's label-swap chain must be installed end to
        end, terminate at the dst host's receive binding, and no table
        entry may exist that belongs to no open VC."""
        used = set()
        for vc in self.network.vcs.values():
            if not vc.open:
                continue
            entity = f"vc{vc.vc_id}"
            in_vci = vc.first_vci
            in_port = vc.path[0]
            broken = False
            for i in range(1, len(vc.path) - 1):
                sw_name = vc.path[i]
                sw = self.network.switches[sw_name]
                key = (in_port, 0, in_vci)
                entry = sw._table.get(key)
                self.checks += 1
                if entry is None:
                    self.violations.append(Violation(
                        "switch", sw_name, "missing_route", 1, 0,
                        detail=f"{entity}: no table entry for "
                               f"(in={in_port}, vci={in_vci})",
                        trace_ids=self._trace_ids(sw_name)))
                    broken = True
                    break
                used.add((sw_name,) + key)
                if entry.out_port != vc.path[i + 1]:
                    self.violations.append(Violation(
                        "switch", sw_name, "route_mismatch", 1, 0,
                        detail=f"{entity}: entry points at "
                               f"{entry.out_port}, path says "
                               f"{vc.path[i + 1]}",
                        trace_ids=self._trace_ids(sw_name)))
                    broken = True
                    break
                in_port = sw_name
                in_vci = entry.out_vci
            if broken:
                continue
            self._expect("atm", entity, "label_chain",
                         vc.last_vci, in_vci,
                         detail="walked label chain must end at the "
                                "VC's last VCI")
            self.checks += 1
            bound = vc.dst._rx.get(vc.last_vci)
            if bound is None or bound[2] is not vc:
                self.violations.append(Violation(
                    "atm", entity, "dst_binding", 1, 0,
                    detail=f"host {vc.dst.name} has no receive binding "
                           f"for vci {vc.last_vci}",
                    trace_ids=self._trace_ids(entity)))
        for sw_name, sw in self.network.switches.items():
            for key in sw._table:
                self.checks += 1
                if (sw_name,) + key not in used:
                    self.violations.append(Violation(
                        "switch", sw_name, "orphan_route", 0, 1,
                        detail=f"table entry (in={key[0]}, vci={key[2]}) "
                               f"belongs to no open VC",
                        trace_ids=self._trace_ids(sw_name)))

    def _audit_receiver(self, rx, label: str) -> None:
        self._expect(
            "aal5", label, "cell_conservation",
            rx.cells_received,
            rx.cells_delivered + rx.cells_discarded + rx.cells_buffered,
            detail="cells received == delivered + discarded + buffered")

    def _audit_vc(self, vc) -> None:
        self._expect("vc", f"vc{vc.vc_id}", "pdus_delivered_bound",
                     min(vc.stats.pdus_delivered, vc.stats.pdus_sent),
                     vc.stats.pdus_delivered,
                     detail="a VC cannot deliver more PDUs than were sent")
        self._expect("vc", f"vc{vc.vc_id}", "bytes_delivered_bound",
                     min(vc.stats.bytes_delivered, vc.stats.bytes_sent),
                     vc.stats.bytes_delivered,
                     detail="a VC cannot deliver more bytes than were sent")

    def _audit_connection(self, conn) -> None:
        s = conn.stats
        self._expect(
            "transport", conn._label, "seq_conservation",
            conn._next_seq,
            s.acked + len(conn._in_flight) + len(conn._backlog) + s.flushed,
            detail="seqs assigned == acked + in_flight + backlog + flushed")

    def _audit_player(self, player) -> None:
        s = player.stats
        self._expect(
            "playout", player.name, "cursor_conservation",
            player._next_frame,
            s.frames_played + s.frames_skipped + s.frames_concealed,
            detail="cursor == played + skipped + concealed")
        self._expect(
            "playout", player.name, "arrival_conservation",
            s.frames_received,
            s.frames_played + len(player._buffer),
            detail="frames received == played + buffered")
