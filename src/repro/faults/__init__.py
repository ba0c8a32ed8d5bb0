"""Deterministic fault injection.

The thesis runs MITS over OCRInet, where link outages, cell loss, and
congested or crashing switches are facts of life.  This package is the
adversary: a :class:`FaultPlan` describes *what goes wrong when*
(scheduled faults plus seeded random ones), and a
:class:`FaultInjector` drives the plan off the simulator clock against
a built :class:`~repro.core.system.MitsSystem`.  The defensive half is
one switch, ``MitsSystem(resilient=True)``: RPC retries, connection
re-establishment, playout concealment and bitrate downgrade, each with
its layer's fixed constants.

Everything is seeded: the same plan and seed produce byte-identical
system snapshots, so chaos tests are as reproducible as clean ones.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_KINDS, FaultPlan, FaultSpec, PLANS, RandomFaults, resolve_plan,
)

__all__ = [
    "FAULT_KINDS", "FaultInjector", "FaultPlan", "FaultSpec",
    "PLANS", "RandomFaults", "resolve_plan",
]
