"""Discrete-event ATM network substrate.

The 1996 MITS prototype ran over OCRInet, a physical ATM research
network in the Ottawa region.  This subpackage replaces that hardware
with a cell-level discrete-event simulator.  Every AAL5 frame travels
as one :class:`~repro.atm.train.CellTrain`: each link, switch and host
handles the burst in one callback while computing every cell's
timestamps and counters.  Where cells contend for a transmitter, the
link's per-category priority queue takes them one at a time and hands
each on at its own arrival instant (DESIGN.md §"Cell trains and the
per-cell queue"):

* :mod:`repro.atm.simulator` — the event-queue kernel every other
  component schedules on;
* :mod:`repro.atm.cell` — 53-byte ATM cells with a real UNI header
  layout and HEC;
* :mod:`repro.atm.aal5` — AAL5 segmentation and reassembly (CPCS-PDU
  framing, CRC-32, pad, last-cell indication via PTI);
* :mod:`repro.atm.qos` — traffic contracts, GCRA policing and the four
  service categories (CBR, rt-VBR, nrt-VBR, UBR);
* :mod:`repro.atm.link` / :mod:`repro.atm.switch` — transmission lines
  with serialization + propagation delay and output-buffered switches
  with per-category priority queueing;
* :mod:`repro.atm.network` — hosts, VC setup/routing and the
  end-to-end cell relay;
* :mod:`repro.atm.train` — the cell train, the unit every stage
  forwards;
* :mod:`repro.atm.topology` — canned topologies, including an
  OCRInet-like metro WAN.
"""

from repro.atm.simulator import Simulator, Event, Process
from repro.atm.cell import Cell, CellHeader, CELL_SIZE, PAYLOAD_SIZE, HEADER_SIZE
from repro.atm.aal5 import Aal5Sender, Aal5Receiver, segment_pdu, CpcsTrailer
from repro.atm.qos import (
    ServiceCategory,
    TrafficContract,
    Gcra,
    LeakyBucketShaper,
)
from repro.atm.link import Link
from repro.atm.switch import Switch, VcTableEntry
from repro.atm.train import CellTrain
from repro.atm.network import AtmNetwork, Host, VirtualCircuit

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Cell",
    "CellHeader",
    "CELL_SIZE",
    "PAYLOAD_SIZE",
    "HEADER_SIZE",
    "Aal5Sender",
    "Aal5Receiver",
    "segment_pdu",
    "CpcsTrailer",
    "ServiceCategory",
    "TrafficContract",
    "Gcra",
    "LeakyBucketShaper",
    "Link",
    "Switch",
    "VcTableEntry",
    "CellTrain",
    "AtmNetwork",
    "Host",
    "VirtualCircuit",
]
