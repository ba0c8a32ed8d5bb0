"""Golden runs that pin the ATM forwarding path byte for byte.

Each golden is the sha256 of :func:`repro.obs.equivalence.canonical_form`
over one deterministic run's snapshot: every per-VC delay, link and
switch counter, gauge extreme, SLO result, conservation audit and
flight-recorder event.  The digests in ``goldens.json`` were recorded
from the event-per-cell forwarding loop (which the cell-train path
matched on every one of them), together with that loop's event count
and, for the two chaos plans, the fault fingerprints and damage totals
the chaos tests compare by name.

Runs:

* ``quickstart``, ``classroom``, ``faulty-classroom`` —
  ``build(name).run_to_horizon()``;
* ``classroom-chaos``, ``link-flaps``, ``switchbound-jitter`` —
  ``run_course`` under the plan.  ``switchbound-jitter`` is defined
  here, not in :data:`repro.faults.PLANS`: it puts jitter on the two
  links that feed the switch, with a switch crash and a VC teardown
  inside the jitter windows, so cells that leave a link one by one
  must meet the switch state of their own arrival instant;
* ``policing-flood``, ``unpoliced-flood`` — a shortened EX.6 flood
  (``bench_ablation.py``) with UPC on and off: a violator pushes raw
  cells straight into the switch ingress, one per
  ``Switch.receive_train`` call.  With UPC on, cells are dropped
  inside a train; with UPC off, the flood contends with the victim's
  trains in the output link's per-cell queue.  No named scenario
  reaches either path.

Re-record with ``PYTHONPATH=src python -m tests.perf.goldens`` from the
repository root.  That also replaces the per-cell loop's ``events_run``
with the train path's charged count (within 2% of it).  Only do that for a change that is *meant* to move
simulated behaviour (a new model feature, a fixed modelling bug), say
which digests moved and why in the change log, and never to make a
refactor pass.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List

from repro.atm import ServiceCategory, Simulator, TrafficContract
from repro.atm.aal5 import segment_pdu
from repro.atm.topology import star_campus
from repro.atm.train import CellTrain
from repro.core.scenarios import build
from repro.faults import PLANS, FaultPlan, FaultSpec
from repro.obs.equivalence import canonical_form

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")

SCENARIOS = ("quickstart", "classroom", "faulty-classroom")


def switchbound_jitter() -> FaultPlan:
    """Jitter on both links into ``sw0``; the crash edges at 6.5 and
    6.55 s and the teardown at 8.5 s fall inside cells' jittered
    propagation windows.  The crash lands on the lecture video, which
    streams until ~6.8 s; after it only a few RPCs cross the switch."""
    return FaultPlan(name="switchbound-jitter", seed=11, faults=[
        FaultSpec(at=6.0, kind="jitter", target="database->sw0",
                  duration=4.0, jitter=0.002),
        FaultSpec(at=6.0, kind="jitter", target="user1->sw0",
                  duration=4.0, jitter=0.002),
        FaultSpec(at=6.5, kind="switch_crash", target="sw0",
                  duration=0.05),
        FaultSpec(at=8.5, kind="vc_teardown", target="user1->database"),
    ])


CHAOS_PLANS = {"classroom-chaos": PLANS["classroom-chaos"],
               "link-flaps": PLANS["link-flaps"],
               "switchbound-jitter": switchbound_jitter}

#: metric totals the chaos tests compare: (component, name)
DAMAGE_METRICS = (("link", "drops_total"), ("connection", "retransmits"),
                  ("rpc", "retries"), ("player", "frames_concealed"))


def load() -> Dict[str, Any]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def digest(snap: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_form(snap).encode()).hexdigest()


def scenario_snapshot(name: str) -> Dict[str, Any]:
    run = build(name)
    run.run_to_horizon()
    return run.mits.snapshot()


def fingerprints(run, kind: str) -> List[list]:
    """The flight recorder's fault events of *kind*, as
    ``[time, fault, target, fault_id]`` rows."""
    return [[e.time, e.attrs.get("fault"), e.attrs.get("target"),
             e.attrs.get("fault_id")]
            for e in run.recorder.by_kind(kind)
            if e.component == "faults"]


def chaos_record(run) -> Dict[str, Any]:
    """What the chaos goldens keep of one ``run_course`` result."""
    return {
        "digest": digest(run.mits.snapshot()),
        "injected": fingerprints(run, "injected"),
        "cleared": fingerprints(run, "cleared"),
        "damage": {f"{c}.{n}": run.metric_total(c, n)
                   for c, n in DAMAGE_METRICS},
        "verdict": run.mits.snapshot()["slo"]["verdict"],
    }


def ex6_flood(police: bool) -> Dict[str, Any]:
    """The EX.6 flood: raw violator cells arrive at the switch one by
    one, each as its own arrival event.  With *police* the excess is
    dropped at the ingress port; without, it fills the output queue."""
    sim = Simulator()
    net, _ = star_campus(sim, ["victim", "violator", "sink"],
                         access_bps=3e6, buffer_cells=48, police=police)
    delays: List[float] = []
    victim = net.open_vc("victim", "sink",
                         TrafficContract(ServiceCategory.CBR, pcr=1000),
                         lambda p, i: delays.append(i.delay))
    violator = net.open_vc("violator", "sink",
                           TrafficContract(ServiceCategory.CBR, pcr=300,
                                           cdvt=0.0),
                           lambda p, i: None)

    def victim_source():
        while True:
            victim.send(bytes(300))
            yield 0.02

    sw = net.switches["sw0"]

    def flood():
        for burst in range(200):
            for cell in segment_pdu(bytes(2000), vpi=0,
                                    vci=violator.first_vci,
                                    first_seqno=burst):
                sw.receive_train(CellTrain([cell], ServiceCategory.CBR,
                                           [sim.now], per_cell=True),
                                 "violator")
            yield 0.001

    sim.spawn(victim_source())
    sim.spawn(flood())
    sim.run(until=0.3)
    return {"metrics": sim.metrics.report(),
            "events": sim.recorder.snapshot(),
            "delays": delays, "switch": vars(sw.stats),
            "links": {f"{a}->{b}": vars(link.stats)
                      for (a, b), link in sorted(net.links.items())}}


def record() -> Dict[str, Any]:
    from tests.faults.conftest import run_course

    out: Dict[str, Any] = {"scenarios": {}, "chaos": {}}
    for name in SCENARIOS:
        snap = scenario_snapshot(name)
        out["scenarios"][name] = {"digest": digest(snap),
                                  "events_run": snap["events_run"]}
    for name, plan in CHAOS_PLANS.items():
        out["chaos"][name] = chaos_record(run_course(plan()))
    out["policing-flood"] = digest(ex6_flood(police=True))
    out["unpoliced-flood"] = digest(ex6_flood(police=False))
    return out


if __name__ == "__main__":
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS_PATH}")
