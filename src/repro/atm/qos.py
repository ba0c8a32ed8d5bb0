"""ATM traffic management: contracts, policing, shaping, service classes.

The thesis argues broadband networks are what make real-time
multimedia courseware delivery feasible (§1.3.3, §3.3).  The levers
that argument rests on are ATM's QoS machinery, reproduced here:

* a :class:`TrafficContract` (PCR/SCR/MBS/CDVT) per virtual circuit;
* :class:`Gcra` — the Generic Cell Rate Algorithm (virtual scheduling
  formulation, ITU-T I.371) used at the network ingress to police
  contracts: non-conforming cells are tagged (CLP=1) or dropped;
* :class:`LeakyBucketShaper` — sender-side pacing so a well-behaved
  source conforms to its own contract;
* :class:`ServiceCategory` — CBR / rt-VBR / nrt-VBR / ABR / UBR, which
  switches map to queueing priority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ServiceCategory(enum.IntEnum):
    """ATM Forum service categories, ordered by switch priority."""

    CBR = 0      # constant bit rate: circuit emulation, live AV
    RT_VBR = 1   # real-time variable bit rate: compressed video
    NRT_VBR = 2  # non-real-time VBR: courseware object transfer
    ABR = 3      # available bit rate: bulk transfer with feedback
    UBR = 4      # best effort


@dataclass(frozen=True)
class TrafficContract:
    """Per-VC traffic descriptor.

    Rates are in cells per second; *cdvt* and burst tolerance in
    seconds.  ``pcr`` is required; ``scr``/``mbs`` only apply to VBR.
    """

    category: ServiceCategory
    pcr: float                      # peak cell rate (cells/s)
    scr: Optional[float] = None     # sustainable cell rate (cells/s)
    mbs: int = 1                    # maximum burst size (cells) at PCR
    cdvt: float = 250e-6            # cell delay variation tolerance (s)

    def __post_init__(self) -> None:
        if self.pcr <= 0:
            raise ValueError("PCR must be positive")
        if self.scr is not None:
            if self.scr <= 0 or self.scr > self.pcr:
                raise ValueError("SCR must be in (0, PCR]")
            if self.mbs < 1:
                raise ValueError("MBS must be >= 1 when SCR is given")

    @property
    def burst_tolerance(self) -> float:
        """BT = (MBS - 1) * (1/SCR - 1/PCR); 0 for single-rate contracts."""
        if self.scr is None:
            return 0.0
        return (self.mbs - 1) * (1.0 / self.scr - 1.0 / self.pcr)

    def effective_bandwidth_bps(self) -> float:
        """Rough bandwidth reservation used for connection admission:
        PCR for CBR/rt-VBR, SCR for nrt-VBR, zero for ABR/UBR."""
        cell_bits = 53 * 8
        if self.category in (ServiceCategory.CBR, ServiceCategory.RT_VBR):
            return self.pcr * cell_bits
        if self.category is ServiceCategory.NRT_VBR and self.scr is not None:
            return self.scr * cell_bits
        return 0.0


class Gcra:
    """Generic Cell Rate Algorithm, virtual-scheduling formulation.

    ``Gcra(increment=1/rate, limit=tolerance)``: a cell arriving at
    time *t* conforms iff ``t >= TAT - limit``; on conformance TAT
    advances by the increment.
    """

    def __init__(self, increment: float, limit: float) -> None:
        if increment <= 0:
            raise ValueError("GCRA increment must be positive")
        if limit < 0:
            raise ValueError("GCRA limit must be non-negative")
        self.increment = increment
        self.limit = limit
        self._tat = 0.0  # theoretical arrival time
        self.conforming = 0
        self.nonconforming = 0

    #: absolute slack absorbing float accumulation error; far below any
    #: physically meaningful CDVT (sub-nanosecond)
    _EPS = 1e-9

    def check(self, t: float) -> bool:
        """Test (and account) one cell arrival at time *t*."""
        if t >= self._tat - self.limit - self._EPS:
            self._tat = max(self._tat, t) + self.increment
            self.conforming += 1
            return True
        self.nonconforming += 1
        return False


@dataclass
class PolicerStats:
    passed: int = 0
    tagged: int = 0
    dropped: int = 0


class UsageParameterControl:
    """Ingress policer for one VC: dual GCRA per I.371.

    PCR violations are dropped; SCR/burst violations are tagged CLP=1
    (so congested switches shed them first).
    """

    def __init__(self, contract: TrafficContract) -> None:
        self.contract = contract
        self._pcr_gcra = Gcra(1.0 / contract.pcr, contract.cdvt)
        self._scr_gcra = (
            Gcra(1.0 / contract.scr, contract.burst_tolerance + contract.cdvt)
            if contract.scr is not None
            else None
        )
        self.stats = PolicerStats()

    def police(self, t: float) -> str:
        """Classify one cell arrival: 'pass', 'tag', or 'drop'."""
        if not self._pcr_gcra.check(t):
            self.stats.dropped += 1
            return "drop"
        if self._scr_gcra is not None and not self._scr_gcra.check(t):
            self.stats.tagged += 1
            return "tag"
        self.stats.passed += 1
        return "pass"


class LeakyBucketShaper:
    """Sender-side shaper: computes the earliest conforming departure
    time for each cell so a source never violates its own contract.

    Stateful: call :meth:`next_departure` with the time the cell became
    ready; it returns the time it may be sent and advances the bucket.
    """

    def __init__(self, contract: TrafficContract) -> None:
        self.contract = contract
        rate = contract.scr if contract.scr is not None else contract.pcr
        self._increment = 1.0 / rate
        self._bucket_limit = contract.burst_tolerance
        self._tat = 0.0
        self._pcr_gap = 1.0 / contract.pcr
        self._last_departure = -float("inf")

    def next_departure(self, ready_at: float) -> float:
        """Earliest time >= *ready_at* at which the next cell conforms."""
        # sustained-rate constraint (leaky bucket with burst tolerance)
        depart = max(ready_at, self._tat - self._bucket_limit)
        # peak-rate constraint: successive cells >= 1/PCR apart
        depart = max(depart, self._last_departure + self._pcr_gap)
        self._tat = max(self._tat, depart) + self._increment
        self._last_departure = depart
        return depart
