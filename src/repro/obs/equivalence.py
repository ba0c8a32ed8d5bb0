"""Canonical snapshots: what two runs of the same scenario must share.

A :meth:`MitsSystem.snapshot` mixes what happened on the simulated
network with artefacts of *how* the run was executed.  The second kind
is excluded here:

* ``events_run`` (and the ``simulator`` metrics component that
  mirrors it): raw event-loop bookkeeping.  How many callbacks carry
  the cells depends on how cell trains were split, deferred or
  expanded, not on what the network did.  Per-cell *equivalents* are
  still billed via ``Simulator.charge_cells`` so the bench gate's
  events/sim-sec floors stay comparable.
* ``timeseries``: the sampler's interval and tick count, which
  describe the observer, not the simulated network.

Everything else — per-VC delay sums, link/switch/host counters,
gauges (including queue-occupancy max/min), AAL5 stats, SLO results,
the conservation audit, the ledger, the flight-recorder ring — is
deterministic given the seed.  :func:`canonical_form` is the byte
string the golden runs in ``tests/perf`` and the perfbench
correctness check hash.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping

__all__ = [
    "CANONICAL_EXCLUDED_KEYS",
    "canonical_form",
    "canonical_snapshot",
]

#: top-level snapshot keys that describe the execution engine, not the
#: simulated network
CANONICAL_EXCLUDED_KEYS = ("events_run", "timeseries")

#: the metrics component that mirrors the raw event count
_ENGINE_METRICS_COMPONENT = "simulator"


def canonical_snapshot(snap: Mapping[str, Any]) -> Dict[str, Any]:
    """Project a snapshot onto its deterministic network content."""
    out = {k: v for k, v in snap.items()
           if k not in CANONICAL_EXCLUDED_KEYS}
    metrics = out.get("metrics")
    if isinstance(metrics, Mapping):
        out["metrics"] = {k: v for k, v in metrics.items()
                          if k != _ENGINE_METRICS_COMPONENT}
    return out


def canonical_form(snap: Mapping[str, Any]) -> str:
    """The byte string two equivalent runs must agree on exactly."""
    return json.dumps(canonical_snapshot(snap), sort_keys=True,
                      default=repr)
