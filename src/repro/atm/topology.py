"""Canned topologies for experiments.

Two builders are provided:

* :func:`star_campus` — one switch, N hosts: the minimal lab setup the
  prototype chapter (Ch. 5) used, a PC navigator talking to a
  SUN/ULTRA database server over one ATM switch;
* :func:`ocrinet_like` — a five-switch metro ring with spurs modelled
  on OCRInet, the Ottawa-Carleton research network MITS was deployed
  on, with OC-3 (155 Mb/s) access links and OC-3/OC-12 trunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.atm.network import AtmNetwork
from repro.atm.simulator import Simulator

OC3_BPS = 155.52e6
OC12_BPS = 622.08e6
T3_BPS = 44.736e6


@dataclass
class TopologySpec:
    """Description of a built topology, for reporting."""

    name: str
    switches: List[str]
    hosts: List[str]
    trunk_bps: float
    access_bps: float


def star_campus(sim: Simulator, host_names: Sequence[str], *,
                access_bps: float = OC3_BPS,
                police: bool = True,
                buffer_cells: int = 1024) -> tuple[AtmNetwork, TopologySpec]:
    """One switch, all hosts attached directly — a campus LAN."""
    if len(host_names) < 2:
        raise ValueError("a star needs at least two hosts")
    net = AtmNetwork(sim, police=police)
    net.add_switch("sw0")
    for name in host_names:
        net.add_host(name, "sw0", rate_bps=access_bps,
                     buffer_cells=buffer_cells)
    spec = TopologySpec(name="star", switches=["sw0"], hosts=list(host_names),
                        trunk_bps=access_bps, access_bps=access_bps)
    return net, spec


#: (host, attachment switch) pairs mirroring the MITS site layout:
#: production center and database in the core, author/user/facilitator
#: sites at the edges.
OCRINET_SITES = [
    ("production", "ottawa-u"),
    ("database", "ottawa-u"),
    ("author1", "carleton"),
    ("author2", "nrc"),
    ("facilitator", "crc"),
    ("user1", "bnr"),
    ("user2", "crc"),
    ("user3", "carleton"),
]


def ocrinet_like(sim: Simulator, *, extra_users: int = 0,
                 access_bps: float = OC3_BPS
                 ) -> tuple[AtmNetwork, TopologySpec]:
    """Five-switch metro ring with spurs, modelled on OCRInet.

    Switches: ottawa-u, carleton, nrc, crc, bnr, connected in a ring
    of OC-12 trunks with one chord (ottawa-u — crc) for path
    diversity.  *extra_users* adds userN hosts round-robin across the
    edge switches, which is how the scaling experiments grow load.
    """
    net = AtmNetwork(sim)
    switches = ["ottawa-u", "carleton", "nrc", "crc", "bnr"]
    for sw in switches:
        net.add_switch(sw)
    ring = list(zip(switches, switches[1:] + switches[:1]))
    for a, b in ring:
        net.add_trunk(a, b, rate_bps=OC12_BPS, prop_delay=1e-4)
    net.add_trunk("ottawa-u", "crc", rate_bps=OC12_BPS, prop_delay=1.5e-4)

    hosts = []
    for host, sw in OCRINET_SITES:
        net.add_host(host, sw, rate_bps=access_bps)
        hosts.append(host)
    edge = ["carleton", "nrc", "crc", "bnr"]
    for i in range(extra_users):
        name = f"user{4 + i}"
        net.add_host(name, edge[i % len(edge)], rate_bps=access_bps)
        hosts.append(name)
    spec = TopologySpec(name="ocrinet", switches=switches, hosts=hosts,
                        trunk_bps=OC12_BPS, access_bps=access_bps)
    return net, spec
