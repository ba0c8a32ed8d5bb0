"""Order statistics and outcome accounting for the benchmark runner.

Per-unit times on a shared machine are skewed upwards: other tenants
and the interpreter's own housekeeping only ever add time.  The runner
therefore times each phase of a unit in short slices and reports the
slice floor (:func:`slice_floor`): the sum over slices of the fastest
unit's time for that slice, taken over a fixed number of identical
units.  The lower quartile, median and the highest percentile with ten
samples beyond it are printed beside it (:func:`summary`).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Lower quartile, median and upper quartile of *values*
    (``statistics.quantiles``, inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def lower_quartile(values: Sequence[float]) -> float:
    return quartiles(values)[0]


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(percentile, value)`` of the highest order statistic that still
    has at least ten samples above it, or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 11  # 0-based: exactly ten samples lie beyond it
    return 100 * (rank + 1) // n, sorted(values)[rank]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """The printed distribution of one per-unit time."""
    q1, median, _q3 = quartiles(values)
    out = {"n": len(values), "lower_quartile": q1, "min": min(values),
           "median": median}
    hi = tail(values)
    if hi is not None:
        out[f"p{hi[0]}"] = hi[1]
    return out


def slice_floor(runs: Sequence[Sequence[float]]) -> Optional[float]:
    """Sum over slice positions of the fastest unit's time for that
    slice, or None when the units were cut into different numbers of
    slices.

    Identical units do identical work in slice *k*, so the fastest
    copy of each slice is that work's cost with the least interference
    from the machine's other tenants.  The slices are short, so nearly
    every one has a copy that ran in a quiet moment, even when the
    machine is never quiet for a whole unit.
    """
    if not runs or len({len(r) for r in runs}) != 1:
        return None
    return sum(min(column) for column in zip(*runs))


class Tally:
    """Operations attempted and failed, with the first few failures."""

    KEEP = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self.KEEP:
                self.failures.append(what)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = self.KEEP - len(self.failures)
        self.failures.extend(other.failures[:max(0, room)])


def digests_agree(digests: Sequence[Optional[str]]) -> bool:
    """Every unit that produced a digest produced the same one, and at
    least one did."""
    seen = {d for d in digests if d is not None}
    return len(seen) == 1
