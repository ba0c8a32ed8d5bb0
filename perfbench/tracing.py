"""The traced pass: spans around each layer, self time by layer.

Nothing inside ``src/repro`` changes.  :class:`Instrumentation`
replaces, for the duration of a traced unit, a list of public
functions and methods with wrappers that record a span around the
call, and wraps every callback handed to the simulator's scheduling
entry points so that each event runs inside a span named after the
package that defines the callback.

A span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span, or -1.  Spans stay in memory (:class:`SpanLog`)
and are written out when the run ends.  A span's *self time* is its
duration minus the part of it that its child spans cover
(:func:`self_times`); summing self time by span name gives the layer
table (:func:`layer_table`).  The unit's root span is named
``unattributed``, so benchmark code and anything no layer span covers
lands in that row and the rows sum to the traced wall time.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

UNATTRIBUTED = "unattributed"

#: module prefix -> layer name, most specific first
_LAYER_BY_MODULE = (
    ("repro.atm.simulator", "atm.sim"),
    ("repro.atm", "atm"),
    ("repro.util.crc", "util.crc"),
    ("repro.transport.wire", "transport.wire"),
    ("repro.mheg.codec", "mheg.encode"),
    ("repro.mheg.asn1", "mheg.encode"),
    ("repro.mheg", "mheg.engine"),
    ("repro.obs.timeseries", "obs.telemetry"),
    ("repro.obs.sink", "obs.sink"),
    ("repro.obs.export", "obs.export"),
)

#: every row the layer table reports, in print order
LAYERS = (
    "atm.sim", "atm", "util.crc", "transport", "transport.wire",
    "database", "mheg.encode", "mheg.decode", "mheg.engine", "authoring",
    "streaming", "navigator", "media", "obs", "obs.telemetry", "obs.sink",
    "obs.export", "core", "school", "faults", "hytime", "util",
    UNATTRIBUTED,
)

Span = Tuple[str, float, float, int]


def layer_of_module(module: str) -> str:
    """The layer a module of the program belongs to."""
    for prefix, layer in _LAYER_BY_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return UNATTRIBUTED


def defining_module(cb: Any) -> str:
    """Module that defines callback *cb* (partials and wrappers are
    unwrapped, bound methods resolve to their function)."""
    for _ in range(8):
        if isinstance(cb, functools.partial):
            cb = cb.func
            continue
        wrapped = getattr(cb, "__wrapped__", None)
        if wrapped is None:
            break
        cb = wrapped
    module = getattr(cb, "__module__", None)
    if module is None:
        module = type(cb).__module__
    return module or ""


# -- span storage and arithmetic -----------------------------------------

class SpanLog:
    """Spans of one traced unit, in memory, in parallel lists."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []
        #: spans are recorded only while active
        self.active = False
        #: per-layer work counters bumped by the wrappers
        self.counts: Dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    def spans(self) -> List[Span]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write(self, path: str) -> None:
        """One span per line: name, start, end, parent (tab-separated,
        times in seconds from the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, s, e, p in zip(self.names, self.starts, self.ends,
                                     self.parents):
                fh.write(f"{name}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span (so overlapping or overhanging
    children are never subtracted twice or beyond the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _name, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    out = []
    for i, (_name, s, e, _parent) in enumerate(spans):
        kids = children.get(i)
        covered = covered_length((max(cs, s), min(ce, e))
                                 for cs, ce in kids) if kids else 0.0
        out.append(max(0.0, (e - s) - covered))
    return out


def layer_table(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed by span name; every row of :data:`LAYERS` is
    present, zero when the layer never ran."""
    table = {layer: 0.0 for layer in LAYERS}
    for (name, *_rest), own in zip(spans, self_times(spans)):
        table[name] = table.get(name, 0.0) + own
    return table


def program_counts(mits: Any) -> Dict[str, float]:
    """Work counters the program keeps itself, cumulative since the
    deployment was built."""
    sim = mits.sim
    network = mits.network
    links = network.links.values()
    switches = network.switches.values()
    conns = sim.entities.get("connection", [])
    sent = sum(c.stats.sent for c in conns)
    resent = sum(c.stats.retransmitted for c in conns)
    frames = sim.metrics.find("streaming", "frames_sent").values()
    sink = mits.sink
    return {
        "atm.sim.events_charged": sim.events_run,
        "atm.sim.events_executed": sim.events_run - sim.event_extra,
        "atm.cells_dropped": sum(
            l.stats.dropped_overflow + l.stats.dropped_errors
            + l.stats.dropped_down + l.stats.dropped_no_sink
            for l in links) + sum(
            s.stats.unroutable + s.stats.policed_dropped
            + s.stats.crash_dropped for s in switches),
        "transport.segments": sent + resent,
        "transport.retransmits": resent,
        "streaming.frames_sent": sum(c.value for c in frames),
        "obs.spans": len(sim.tracer.spans) + sim.tracer.dropped,
        "obs.sink.bytes": sink.bytes_written if sink is not None else 0,
    }


# -- wrappers ------------------------------------------------------------

def _db_write(name: str) -> bool:
    return name.startswith(("store_", "add_", "register_", "update_"))


class Instrumentation:
    """Installs and removes the traced pass's wrappers.

    Use as a context manager around the traced units; spans are taken
    only while ``log.active`` is set, so the wrappers stay inert during
    set-up work the caller does not want traced.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._patches: List[Tuple[Any, str, Any]] = []
        self.pending_calls: List[Any] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # -- span helpers ----------------------------------------------------

    def _spanned(self, layer: str, fn: Callable,
                 count: Optional[Callable[..., None]] = None,
                 callbacks: Tuple[str, ...] = ()) -> Callable:
        """*fn* inside a *layer* span; *count* sees each result, and the
        keyword arguments named in *callbacks* get spans of their own."""
        log = self.log
        wrap_cb = self.callback

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not log.active:
                return fn(*args, **kwargs)
            for key in callbacks:
                if kwargs.get(key) is not None:
                    kwargs[key] = wrap_cb(kwargs[key])
            i = log.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end(i)
            if count is not None:
                count(result, *args)
            return result
        wrapper._span_layer = layer
        return wrapper

    def callback(self, cb: Callable) -> Callable:
        """*cb* wrapped in a span named by its defining package."""
        if getattr(getattr(cb, "__func__", cb), "_span_layer", None):
            return cb  # already a layer wrapper: one span is enough
        return self._spanned(layer_of_module(defining_module(cb)), cb)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, layer: str,
              count: Optional[Callable[..., None]] = None,
              callbacks: Tuple[str, ...] = ()) -> None:
        self._patch(owner, attr, self._spanned(
            layer, owner.__dict__[attr], count, callbacks))

    def _bump(self, key: str, amount: Callable[..., float]
              ) -> Callable[..., None]:
        counts = self.log.counts

        def count(result, *args):
            counts[key] += amount(result, *args)
        return count

    # -- install / remove ------------------------------------------------

    def install(self) -> "Instrumentation":
        from repro.atm import aal5
        from repro.atm.aal5 import Aal5Sender
        from repro.atm.link import Link
        from repro.atm.network import Host
        from repro.atm.simulator import Simulator
        from repro.atm.switch import Switch
        from repro.authoring.editor import CoursewareEditor
        from repro.database.api import CoursewareDatabase
        from repro.database.index import KeywordTree
        from repro.media.production import MediaProductionCenter
        from repro.mheg.codec import MhegCodec
        from repro.obs import export
        from repro.obs.audit import ConservationAuditor
        from repro.obs.sink import ObsSink
        from repro.obs.timeseries import TelemetrySampler
        from repro.streaming.player import VideoPlayer
        from repro.transport import rpc
        from repro.transport.connection import Connection

        # the callback is argument 1 of schedule/schedule_at and
        # argument 2 of reschedule_at (after the inherited seq)
        for attr, at in (("schedule", 1), ("schedule_at", 1),
                         ("reschedule_at", 2)):
            self._patch(Simulator, attr,
                        self._spanned_callback(Simulator.__dict__[attr], at))
        self._wrap(Simulator, "run", "atm.sim")
        self._wrap(Simulator, "step", "atm.sim")
        for attr in ("enqueue_train", "commit_train"):
            self._wrap(Link, attr, "atm")
        self._wrap(Switch, "receive_train", "atm")
        self._wrap(Host, "receive_train", "atm")
        counts = self.log.counts

        def trains(result, *_args):
            counts["atm.trains"] += 1
            counts["atm.cells"] += len(result[0])
        self._wrap(Aal5Sender, "segment_train", "atm", trains)
        self._wrap(aal5, "crc32_aal5", "util.crc",
                   self._bump("util.crc.bytes",
                              lambda _r, data, *_a: len(data)))
        for attr in ("dump_value", "load_value"):
            self._wrap(rpc, attr, "transport.wire")
        self._wrap(Connection, "send", "transport")
        self._wrap(Connection, "handle_pdu", "transport")
        # RPC completion callbacks run inside the transport's receive
        # path; they get spans of their own package
        pending = self.pending_calls

        def rpc_call(result, *_args):
            counts["transport.rpc.calls"] += 1
            pending.append(result)
        self._wrap(rpc.RpcClient, "call", "transport", rpc_call,
                   callbacks=("on_result", "on_error"))
        self._wrap(rpc.RpcClient, "open_stream", "transport",
                   callbacks=("on_chunk", "on_end"))
        for attr, value in list(vars(CoursewareDatabase).items()):
            if callable(value) and not attr.startswith("_"):
                key = "database.writes" if _db_write(attr) \
                    else "database.reads"
                self._wrap(CoursewareDatabase, attr, "database",
                           self._bump(key, lambda *_a: 1))
        self._wrap(KeywordTree, "subtree", "database",
                   self._bump("database.reads", lambda *_a: 1))
        self._wrap(MhegCodec, "encode", "mheg.encode",
                   self._bump("mheg.bytes_encoded",
                              lambda result, *_a: len(result)))
        self._wrap(MhegCodec, "decode", "mheg.decode")
        for attr in vars(CoursewareEditor):
            if attr.startswith("compile_"):
                self._wrap(CoursewareEditor, attr, "authoring")
        for attr in vars(MediaProductionCenter):
            if attr.startswith("produce_"):
                self._wrap(MediaProductionCenter, attr, "media")
        self._wrap(VideoPlayer, "on_pdu", "streaming")
        self._wrap(ConservationAuditor, "check", "obs")
        self._wrap(TelemetrySampler, "sample", "obs.telemetry")
        self._wrap(ObsSink, "flush", "obs.sink")
        self._wrap(export, "dump_observability", "obs.export")
        gc.callbacks.append(self._on_gc)
        return self

    def _spanned_callback(self, schedule: Callable, at: int) -> Callable:
        """A scheduling entry point that wraps argument *at* (the
        callback) with :meth:`callback` while spans are taken."""
        log = self.log
        wrap_cb = self.callback

        @functools.wraps(schedule)
        def wrapper(sim, *args):
            if log.active:
                args = (*args[:at], wrap_cb(args[at]), *args[at + 1:])
            return schedule(sim, *args)
        return wrapper

    def _on_gc(self, phase: str, _info: Dict[str, Any]) -> None:
        if not self.log.active:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
