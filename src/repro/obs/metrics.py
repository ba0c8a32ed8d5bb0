"""Metrics registry: counters, gauges, and time-bucketed histograms.

Every measurable quantity in the reproduction flows through one
:class:`MetricsRegistry`, keyed by ``(component, name, labels)`` — the
same triple the thesis's evaluation chapters report per layer (cell
delays at the ATM layer, retransmits at the transport layer, sync skew
at the MHEG layer).  Components fetch their instruments once at
construction and update them on the hot path with a single attribute
mutation; the registry itself is only walked when a report is
exported or the telemetry sampler ticks.

Design points:

* **Instruments are memoised** — asking for the same
  ``(component, name, labels)`` twice returns the same object, so
  call-site code never has to thread instrument handles around.
* **Each fact is counted once** — a count a component already keeps
  in its own stats (cells enqueued on a link, PDUs delivered on a VC,
  player stalls) is registered as a :class:`ReadThrough`: a counter
  whose value is read from that field when the registry is walked,
  so the hot path bumps one integer, not two.  Several sources under
  one key sum, as several components sharing one :class:`Counter`
  do.
* **Histograms are time-bucketed** — the default bucket ladder is a
  geometric progression of seconds (1 µs … 64 s) suited to everything
  from cell times on an OC-3 to courseware download times.  Custom
  ladders can be passed for non-temporal quantities.
* **Export is JSON-stable** — :meth:`MetricsRegistry.report` produces
  plain dicts/lists so ``BENCH_*.json`` trajectories are comparable
  across PRs.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReadThrough",
    "TIME_BUCKETS",
]

#: default histogram ladder: 1 µs .. 64 s in powers of four, a spread
#: wide enough for cell times (~2.7 µs on OC-3) and whole-courseware
#: downloads (tens of seconds) alike.
TIME_BUCKETS: Tuple[float, ...] = tuple(1e-6 * 4 ** i for i in range(13))

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self) -> None:
        self.value += 1

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class ReadThrough:
    """A counter whose value is a field a component already keeps.

    ``sources`` are ``(obj, attr)`` pairs; ``value`` is the sum of
    ``getattr(obj, attr)`` over them at the moment it is read (a
    report, a telemetry tick).  It reports exactly as a
    :class:`Counter` holding the same value.
    """

    __slots__ = ("sources",)

    kind = "counter"

    def __init__(self) -> None:
        self.sources: List[Tuple[Any, str]] = []

    @property
    def value(self) -> int:
        total = 0
        for obj, attr in self.sources:
            total += getattr(obj, attr)
        return total

    def reader(self) -> Tuple[Callable[[Any], int], Any]:
        """``(fn, arg)`` with ``fn(arg) == value``, for a reader that
        reads the same instruments every tick: a single source (an
        integer count, as every source is) is read straight from its
        field.  Valid until the registry's ``rewired`` count moves."""
        if len(self.sources) == 1:
            obj, attr = self.sources[0]
            return attrgetter(attr), obj
        return attrgetter("value"), self

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time level, with min/max watermarks since creation."""

    __slots__ = ("value", "min", "max")

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> Dict[str, Any]:
        empty = self.min > self.max
        return {
            "type": "gauge",
            "value": self.value,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
        }


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    :data:`TIME_BUCKETS` are the upper bounds; an observation lands in
    the first bucket whose bound is >= the value, or in the implicit
    overflow bucket.  Bounded memory regardless of sample count — this is what
    replaces the unbounded per-VC ``delays`` lists.
    """

    __slots__ = ("bounds", "counts", "overflow", "count", "sum",
                 "min", "max")

    kind = "histogram"

    def __init__(self) -> None:
        self.bounds: Tuple[float, ...] = TIME_BUCKETS
        self.counts: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        if value != value:  # NaN: e.g. a delay whose send time was evicted
            return
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        i = bisect_left(self.bounds, value)
        if i < len(self.counts):
            self.counts[i] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket bounds (upper-bound biased).

        A bucket's upper bound can lie past every sample (one 86 ms
        round trip sits in the bucket that ends at 262 ms); the largest
        sample bounds the quantile too, so the lesser of the two is
        returned, which is still an upper bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            if running >= target:
                return min(bound, self.max)
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        empty = self.count == 0
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in zip(self.bounds, self.counts) if n
            ],
            "overflow": self.overflow,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Home of every instrument for one simulated deployment."""

    def __init__(self) -> None:
        #: insertion-ordered and never shrinks: a reader may cache its
        #: walk of the registry, extending the walk as keys are added
        self._instruments: Dict[Tuple[str, str, LabelKey], Any] = {}
        #: bumped when a read-through gains another source: a cached
        #: walk keeps its keys and re-reads its read-through readers
        self.rewired = 0

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, cls, component: str, name: str,
             labels: Mapping[str, Any], *args: Any):
        key = (component, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(*args)
            self._instruments[key] = inst
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {component}.{name}{dict(labels)!r} already "
                f"registered as a {type(inst).__name__}, requested a "
                f"{cls.__name__}")
        return inst

    def counter(self, component: str, name: str, **labels: Any) -> Counter:
        return self._get(Counter, component, name, labels)

    def read_through(self, component: str, name: str, obj: Any, attr: str,
                     /, **labels: Any) -> ReadThrough:
        """Register ``obj.attr`` as (one source of) a counter."""
        inst = self._get(ReadThrough, component, name, labels)
        inst.sources.append((obj, attr))
        if len(inst.sources) > 1:
            self.rewired += 1
        return inst

    def gauge(self, component: str, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, component, name, labels)

    def histogram(self, component: str, name: str,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, component, name, labels)

    def get(self, component: str, name: str, **labels: Any) -> Optional[Any]:
        """The instrument registered under one exact key, or None."""
        return self._instruments.get((component, name, _label_key(labels)))

    def find(self, component: Optional[str] = None,
             name: Optional[str] = None) -> Dict[Tuple[str, str, LabelKey], Any]:
        """All instruments matching the given component/name filters."""
        return {
            key: inst for key, inst in self._instruments.items()
            if (component is None or key[0] == component)
            and (name is None or key[1] == name)
        }

    def report(self) -> Dict[str, Any]:
        """Nested ``{component: {name: [{labels, ...snapshot}]}}`` dump."""
        out: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
        for (component, name, labels), inst in sorted(
                self._instruments.items(), key=lambda kv: kv[0]):
            entry = {"labels": dict(labels)}
            entry.update(inst.snapshot())
            out.setdefault(component, {}).setdefault(name, []).append(entry)
        return out

    @staticmethod
    def delta(before: Mapping[str, Any],
              after: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
        """Per-instrument diff of two :meth:`report` dumps.

        Returns ``{"component.name{label=v,...}": {"kind", "before",
        "after", "delta"}}``; counters and gauges diff their ``value``,
        histograms their ``count``.  Instruments present on only one
        side diff against zero and carry ``"only": "before"|"after"``.
        Each report is one run's own registry, so a value that falls
        between the two runs diffs negative, whatever its kind.
        """

        def flatten(report: Mapping[str, Any]) -> Dict[str, Tuple[str, float]]:
            flat: Dict[str, Tuple[str, float]] = {}
            for component, names in report.items():
                for name, entries in names.items():
                    for e in entries:
                        labels = ",".join(f"{k}={v}" for k, v in
                                          sorted(e.get("labels", {}).items()))
                        key = f"{component}.{name}{{{labels}}}"
                        kind = e.get("type", "counter")
                        val = e.get("count" if kind == "histogram"
                                    else "value", 0) or 0
                        flat[key] = (kind, float(val))
            return flat

        b, a = flatten(before), flatten(after)
        out: Dict[str, Dict[str, Any]] = {}
        for key in sorted(set(b) | set(a)):
            kind = (a.get(key) or b.get(key))[0]
            bv = b.get(key, (kind, 0.0))[1]
            av = a.get(key, (kind, 0.0))[1]
            row: Dict[str, Any] = {"kind": kind, "before": bv, "after": av,
                                   "delta": av - bv}
            if key not in b:
                row["only"] = "after"
            elif key not in a:
                row["only"] = "before"
            out[key] = row
        return out
