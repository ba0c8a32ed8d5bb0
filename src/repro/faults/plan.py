"""Fault plans: what goes wrong, where, and when.

A plan is data, not behaviour — a list of :class:`FaultSpec` entries
(each one fault at one simulated time) plus optional
:class:`RandomFaults` generators that are expanded deterministically
from the plan seed when the plan is resolved.  The
:class:`~repro.faults.injector.FaultInjector` turns the resolved list
into scheduled simulator events.

Fault kinds and the thesis mechanism each one stresses:

``link_down``     link outage → go-back-N retransmission, reconnect
``burst_loss``    cell-loss burst → AAL5 CRC detection, ARQ recovery
``jitter``        propagation jitter → cell reordering, playout buffer
``switch_crash``  fabric blackout → end-to-end timeout paths
``vc_teardown``   circuit torn down → connection re-establishment
``server_stall``  content-server freeze → RPC timeout/retry/backoff
``server_slow``   degraded server CPU → queueing growth, SLO headroom
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

FAULT_KINDS = (
    "link_down", "burst_loss", "jitter", "switch_crash",
    "vc_teardown", "server_stall", "server_slow",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault at one simulated time.

    ``target`` names what breaks: ``"a->b"`` for links and VC pairs,
    a switch name for crashes, a site host for server faults.
    Transient faults clear after ``duration``; ``vc_teardown`` is
    instantaneous and permanent (recovery must re-signal).
    """

    at: float
    kind: str
    target: str
    duration: float = 0.0
    #: cell-loss probability for ``burst_loss``
    rate: float = 0.0
    #: extra propagation jitter bound (seconds) for ``jitter``
    jitter: float = 0.0
    #: service-time multiplier for ``server_slow``
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (have: {FAULT_KINDS})")
        if self.at < 0:
            raise ValueError("fault time must be >= 0")


@dataclass(frozen=True)
class RandomFaults:
    """A seeded generator of *count* faults inside a time window.

    Expansion picks, per fault, a kind and a target uniformly from the
    given pools and a time uniformly in ``window`` — all from the plan
    RNG, so the same seed always yields the same faults.
    """

    kinds: Tuple[str, ...]
    targets: Tuple[str, ...]
    window: Tuple[float, float]
    count: int = 1
    duration: float = 0.05
    rate: float = 0.05
    jitter: float = 0.001
    factor: float = 4.0

    def expand(self, rng: random.Random) -> List[FaultSpec]:
        out = []
        for _ in range(self.count):
            out.append(FaultSpec(
                at=rng.uniform(*self.window),
                kind=rng.choice(list(self.kinds)),
                target=rng.choice(list(self.targets)),
                duration=self.duration, rate=self.rate,
                jitter=self.jitter, factor=self.factor))
        return out


@dataclass
class FaultPlan:
    """A named, seeded collection of faults to inject into one run."""

    name: str = "plan"
    seed: int = 0
    faults: List[FaultSpec] = field(default_factory=list)
    random_faults: List[RandomFaults] = field(default_factory=list)

    def resolve(self) -> List[FaultSpec]:
        """Expand random generators and return all faults, time-sorted.

        Deterministic: the expansion RNG is seeded from ``self.seed``
        alone, and ties in time keep specification order.
        """
        rng = random.Random(self.seed)
        resolved = list(self.faults)
        for gen in self.random_faults:
            resolved.extend(gen.expand(rng))
        return sorted(resolved, key=lambda f: f.at)


def _classroom_chaos() -> FaultPlan:
    """One of each fault kind against the quickstart/classroom star
    topology, timed so the Course-On-Demand flow is mid-flight."""
    return FaultPlan(name="classroom-chaos", seed=42, faults=[
        # streaming leg takes cell loss + jitter: playout must conceal
        FaultSpec(at=6.0, kind="burst_loss", target="sw0->user1",
                  duration=1.5, rate=0.05),
        FaultSpec(at=8.0, kind="jitter", target="sw0->user1",
                  duration=2.0, jitter=0.002),
        # control plane takes an outage + a teardown: ARQ + reconnect
        FaultSpec(at=9.0, kind="link_down", target="user1->sw0",
                  duration=0.2),
        FaultSpec(at=11.0, kind="vc_teardown", target="user1->database"),
        # the fabric itself blinks
        FaultSpec(at=13.0, kind="switch_crash", target="sw0",
                  duration=0.05),
        # the single database CPU freezes (longer than the retrying
        # RPC timeout, so retries must carry the call), then crawls
        FaultSpec(at=14.0, kind="server_stall", target="database",
                  duration=3.0),
        FaultSpec(at=16.0, kind="server_slow", target="database",
                  duration=3.0, factor=8.0),
    ])


def _link_flaps() -> FaultPlan:
    """Seeded random link outages — the bread-and-butter soak plan."""
    return FaultPlan(name="link-flaps", seed=7, random_faults=[
        RandomFaults(kinds=("link_down", "burst_loss"),
                     targets=("sw0->user1", "user1->sw0",
                              "sw0->database", "database->sw0"),
                     window=(5.0, 20.0), count=6,
                     duration=0.1, rate=0.03),
    ])


#: named plans usable from ``--faults <name>`` and the scenarios
PLANS: Dict[str, Callable[[], FaultPlan]] = {
    "classroom-chaos": _classroom_chaos,
    "link-flaps": _link_flaps,
}


def resolve_plan(plan: Union[str, FaultPlan, None]) -> Optional[FaultPlan]:
    """Accept a plan object, a registered plan name, or None."""
    if plan is None or isinstance(plan, FaultPlan):
        return plan
    try:
        return PLANS[plan]()
    except KeyError:
        raise ValueError(
            f"unknown fault plan {plan!r} (have: {sorted(PLANS)})") \
            from None
