"""The fault matrix: every scenario under every plan in
:data:`repro.faults.PLANS` at the plan's own seed and seeds 1-3, plus
each scenario unfaulted (27 streamed runs), and the chaos suite's
plans (``tests/perf/goldens.py::CHAOS_PLANS``) under ``run_course``.

Each run reaches its horizon and closes a ``complete`` archive, and the
alerts the loader judges from that archive equal ``matrix_alerts.json``:
the alerts the watchdog raised online, tick by tick, when it still
watched the live run (time, detector, severity, entity, attributes).
No alert in the record is a ``clock_stall``, whose online ``frame``
attribute the archive cannot give.
"""

import json
import os

import pytest

from repro.core.scenarios import SCENARIOS, build
from repro.faults import PLANS
from repro.obs.sink import load_archive
from tests.faults.conftest import run_course
from tests.perf.goldens import CHAOS_PLANS

with open(os.path.join(os.path.dirname(__file__),
                       "matrix_alerts.json")) as fh:
    RECORDED = json.load(fh)

RUNS = [(name, plan, seed) for name in SCENARIOS
        for plan, seed in [(None, None)]
        + [(p, s) for p in sorted(PLANS) for s in (None, 1, 2, 3)]]

#: what the verdict of a run must be, at best, given what it lost
LOSSES = (("connection", "failures"), ("rpc", "retries_exhausted"),
          ("connection", "retransmits"), ("link", "drops_total"),
          ("player", "frames_skipped"))


def _lost(metrics):
    return any(e["value"] for c, n in LOSSES
               for e in metrics.get(c, {}).get(n, []))


def _check(archive, key):
    assert archive.complete, archive.warning()
    assert archive.summary["watchdog"]["alerts"] == RECORDED[key]
    slo = archive.summary["slo"]
    if _lost(archive.metrics) or RECORDED[key]:
        assert slo["verdict"] != "ok", key


@pytest.mark.parametrize("name,plan,seed", RUNS,
                         ids=[f"{n}-{p}-{s}" for n, p, s in RUNS])
def test_matrix_run_is_judged_as_the_online_watchdog_did(
        tmp_path, name, plan, seed):
    path = str(tmp_path / "obs.jsonl")
    run = build(name, faults=plan, fault_seed=seed, stream=path)
    run.run_to_horizon()
    assert run.mits.sim.now == run.horizon
    run.mits.sink.close()
    _check(load_archive(path), f"{name}|{plan}|{seed}")


@pytest.mark.parametrize("plan", sorted(CHAOS_PLANS))
def test_chaos_plan_is_judged_as_the_online_watchdog_did(tmp_path, plan):
    path = str(tmp_path / "obs.jsonl")
    run = run_course(CHAOS_PLANS[plan](), stream=path)
    run.mits.sink.close()
    _check(load_archive(path), f"chaos:{plan}")
