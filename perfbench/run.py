"""Benchmark runner: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload lecture --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` times units untraced and
reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` is a separate pass that reports the
per-layer metrics: it times traced units next to untraced and obs-off
units, and splits traced wall time by layer (see ``tracing.py``).

Each run first does one untimed warm-up unit, then a fixed number of
identical units (``unit_count``), each a fresh deployment built from
the same seed, with ``gc.collect()`` between them.  Both phases are
timed in slices: set-up step by step, the measured phase in short
spans of simulated time.  ``wall_s`` and ``setup_s`` are each the sum
over slices of the fastest unit's time for that slice
(``stats.slice_floor``).  The minimum, median and tail of the
per-unit times are printed beside them.

The last line of standard output is the result object; the lines
before it are the human-readable report.  The full record, with every
sample and the machine's load, is written to
``perfbench/out/result_<workload>_trace<0|1>.json``.
"""

from __future__ import annotations

import os
import sys

#: the interpreter re-executes itself once with this hash seed, so
#: dict/set iteration order (and the work it implies) repeats run to run
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from typing import Any, Callable, Dict, List, NamedTuple, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # measure the program in this checkout, never an installed copy
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perfbench: no program source under {ROOT}/src/repro")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import stats, tracing  # noqa: E402
from perfbench.stats import Tally  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, make_inputs  # noqa: E402

#: timed units per second of --seconds, by workload.  A slice floor is
#: a minimum over units, so every run times the same number of them,
#: however fast the machine happens to be; the rates are set so that
#: the units fit into --seconds on a 2-vCPU shared VM at its slow speed
UNITS_PER_SECOND = {"lecture": 1.9, "catalog": 1.4, "publish": 2.4}
#: units timed per run, at least, however short --seconds is
MIN_UNITS = 5
#: traced rows plus unattributed must match the traced wall time
#: within this share
SUM_TOLERANCE = 0.01
#: unattributed self time of the measured phase may be at most this
#: share of its traced wall time, or the layers' wrappers miss part of
#: the program (set-up also runs the benchmark's own glue, unchecked)
UNATTRIBUTED_LIMIT = 0.05

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

PER_LAYER = (
    ("atm.sim.self_s", "s"), ("atm.sim.events_executed", "count"),
    ("atm.sim.events_charged", "count"),
    ("atm.self_s", "s"), ("atm.trains", "count"), ("atm.cells", "count"),
    ("atm.cells_per_train", "cells/train"), ("atm.cells_dropped", "count"),
    ("util.crc.self_s", "s"), ("util.crc.bytes", "bytes"),
    ("transport.self_s", "s"), ("transport.wire.self_s", "s"),
    ("transport.segments", "count"), ("transport.retransmits", "count"),
    ("transport.goodput_ratio", "ratio"), ("transport.rpc.calls", "count"),
    ("transport.rpc.failed", "count"),
    ("database.self_s", "s"), ("database.reads", "count"),
    ("database.writes", "count"),
    ("mheg.encode.self_s", "s"), ("mheg.decode.self_s", "s"),
    ("mheg.engine.self_s", "s"), ("mheg.bytes_encoded", "bytes"),
    ("authoring.self_s", "s"),
    ("streaming.self_s", "s"), ("streaming.frames_sent", "count"),
    ("navigator.self_s", "s"), ("media.self_s", "s"),
    ("obs.self_s", "s"), ("obs.telemetry.self_s", "s"),
    ("obs.sink.self_s", "s"), ("obs.export.self_s", "s"),
    ("obs.spans", "count"), ("obs.sink.bytes", "bytes"), ("obs.ab_s", "s"),
    ("other.self_s", "s"),
    ("gc.pause_s", "s"), ("gc.collections", "count"),
    ("unattributed_s", "s"), ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: layer rows reported under their own name; the rest sum into other
_NAMED_ROWS = {name[:-len(".self_s")] for name, _ in PER_LAYER
               if name.endswith(".self_s")} - {"other"}


def peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_count(workload: str, seconds: float) -> int:
    """Timed units in one untraced run of *workload*."""
    return max(MIN_UNITS, round(UNITS_PER_SECOND[workload] * seconds))


def machine() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


# -- units ---------------------------------------------------------------

class UnitRun(NamedTuple):
    setup_s: float
    wall_s: float
    #: wall time of each step of the set-up and each slice of the
    #: measured phase (see workloads.py)
    setup_slices: List[float]
    slices: List[float]
    outcome: Outcome
    unit: Any


def run_unit(workload: str, inputs: Dict[str, Any], out_dir: str, *,
             obs: bool = True, log: tracing.SpanLog = None,
             between: Callable[[Any], None] = None) -> UnitRun:
    """Build, run and verify one unit.  With *log*, each timed phase
    runs inside a root span named ``unattributed``.  *between* sees the
    unit after set-up, before the measured phase starts."""
    gc.collect()
    unit = WORKLOADS[workload](inputs, out_dir, obs=obs)

    def timed(phase: Callable[[Callable[[], None]], None]
              ) -> Tuple[float, List[float]]:
        """Run *phase*; its total time and the time of each slice."""
        bounds = [time.perf_counter()]

        def lap() -> None:
            bounds.append(time.perf_counter())
        if log is None:
            phase(lap)
        else:
            log.active = True
            root = log.begin(tracing.UNATTRIBUTED)
            try:
                phase(lap)
            finally:
                log.end(root)
                log.active = False
        lap()
        return (bounds[-1] - bounds[0],
                [b - a for a, b in zip(bounds, bounds[1:])])
    setup_s, setup_slices = timed(unit.setup)
    if between is not None:
        between(unit)
    wall_s, slices = timed(unit.measure)
    return UnitRun(setup_s, wall_s, setup_slices, slices, unit.verify(),
                   unit)


class Record:
    """Outcomes and per-unit times of one run."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.digests: List[str] = []
        self.sim: Dict[str, float] = {}
        self.problems: List[str] = []

    def add(self, outcome: Outcome) -> None:
        self.tally.merge(outcome.tally)
        if outcome.digest is not None:
            self.digests.append(outcome.digest)
        if not self.sim:
            self.sim = outcome.sim

    @property
    def correct(self) -> bool:
        return (self.tally.failed == 0 and not self.problems
                and stats.digests_agree(self.digests))


def untraced(workload: str, inputs: Dict[str, Any], out_dir: str,
             seconds: float, rec: Record) -> Dict[str, Any]:
    rec.add(run_unit(workload, inputs, out_dir).outcome)  # warm-up
    runs: List[UnitRun] = []
    for _ in range(unit_count(workload, seconds)):
        runs.append(run_unit(workload, inputs, out_dir))
        rec.add(runs[-1].outcome)
        runs[-1] = runs[-1]._replace(unit=None)
    metrics = {}
    for name, field in (("wall_s", "slices"), ("setup_s", "setup_slices")):
        metrics[name] = stats.slice_floor([getattr(r, field) for r in runs])
        if metrics[name] is None:
            rec.problems.append(f"units cut {name} into different slices")
            metrics[name] = min(getattr(r, name) for r in runs)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics,
            "samples": {"wall_s": [r.wall_s for r in runs],
                        "setup_s": [r.setup_s for r in runs]},
            "slices": {"wall_s": [r.slices for r in runs],
                       "setup_s": [r.setup_slices for r in runs]}}


def work_counts(log: tracing.SpanLog, instr: tracing.Instrumentation,
                unit: Any) -> Dict[str, float]:
    """Work counters of a traced unit, cumulative so far."""
    n = dict(log.counts)
    n.update(tracing.program_counts(unit.mits))
    n["gc.pause_s"] = instr.gc_pause_s
    n["gc.collections"] = instr.gc_collections
    return n


def traced_unit(workload: str, inputs: Dict[str, Any], out_dir: str,
                rec: Record) -> Tuple[UnitRun, tracing.SpanLog,
                                      Dict[str, Dict[str, float]],
                                      Dict[str, float]]:
    """One traced unit: its run, its spans, its layer tables by phase
    (``setup`` and ``measured``) and its measured-phase work counts."""
    log = tracing.SpanLog()
    at_setup: Dict[str, Any] = {}

    def mark(unit: Any) -> None:
        at_setup.update(work_counts(log, instr, unit))
        at_setup["spans"] = len(log.names)
        at_setup["calls"] = len(instr.pending_calls)
    with tracing.Instrumentation(log) as instr:
        run = run_unit(workload, inputs, out_dir, log=log, between=mark)
    rec.add(run.outcome)
    spans = log.spans()
    whole = tracing.layer_table(spans)
    setup = tracing.layer_table(spans[:at_setup["spans"]])
    tables = {"setup": setup,
              "measured": {k: v - setup.get(k, 0.0)
                           for k, v in whole.items()}}
    for phase, wall in (("setup", run.setup_s), ("measured", run.wall_s)):
        total = sum(tables[phase].values())
        if abs(total - wall) > SUM_TOLERANCE * wall:
            rec.problems.append(f"{phase} layer rows sum to {total:.6f} "
                                f"s, traced wall {wall:.6f} s")
    loose = tables["measured"][tracing.UNATTRIBUTED]
    if loose > UNATTRIBUTED_LIMIT * run.wall_s:
        rec.problems.append(f"unattributed {loose:.6f} s is over "
                            f"{UNATTRIBUTED_LIMIT:.0%} of the traced wall "
                            f"{run.wall_s:.6f} s")
    after = work_counts(log, instr, run.unit)
    counts = {k: v - at_setup.get(k, 0.0) for k, v in after.items()}
    counts["transport.rpc.failed"] = sum(
        1 for p in instr.pending_calls[at_setup["calls"]:]
        if p.error is not None or not p.done)
    return run, log, tables, counts


def traced(workload: str, inputs: Dict[str, Any], out_dir: str,
           seconds: float, rec: Record) -> Dict[str, Any]:
    """Rounds of (untraced, obs-off, traced) units until *seconds*.

    Every metric is of the measured phase, which ``wall_s`` times, but
    ``media.self_s``: media production is set-up work (``setup_s``).
    """
    rec.add(run_unit(workload, inputs, out_dir).outcome)  # warm-up
    plain: List[float] = []
    obs_off: List[float] = []
    traced_s: List[float] = []
    tables: Dict[str, List[Dict[str, float]]] = {"setup": [],
                                                 "measured": []}
    counts: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced_s) < 2:
        run = run_unit(workload, inputs, out_dir)
        rec.add(run.outcome)
        plain.append(run.wall_s)
        run = run_unit(workload, inputs, out_dir, obs=False)
        rec.add(run.outcome)
        obs_off.append(run.wall_s)
        run, log, unit_tables, unit_counts = traced_unit(
            workload, inputs, out_dir, rec)
        traced_s.append(run.wall_s)
        for phase, table in unit_tables.items():
            tables[phase].append(table)
        counts.append(unit_counts)
        del run
    log.write(os.path.join(out_dir, f"spans_{workload}.tsv"))

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)
    rows = {phase: {layer: mean([t[layer] for t in ts]) for layer in ts[0]}
            for phase, ts in tables.items()}
    measured = rows["measured"]
    metrics: Dict[str, float] = {}
    for name in _NAMED_ROWS:
        metrics[f"{name}.self_s"] = measured.get(name, 0.0)
    metrics["media.self_s"] = rows["setup"]["media"]
    metrics["other.self_s"] = sum(
        v for k, v in measured.items()
        if k not in _NAMED_ROWS and k != tracing.UNATTRIBUTED)
    metrics["unattributed_s"] = measured[tracing.UNATTRIBUTED]
    keys = {k for n in counts for k in n}
    for key in keys:
        metrics[key] = mean([n.get(key, 0.0) for n in counts])
    trains = metrics.get("atm.trains", 0.0)
    metrics["atm.cells_per_train"] = \
        metrics.get("atm.cells", 0.0) / trains if trains else 0.0
    segments = metrics.get("transport.segments", 0.0)
    metrics["transport.goodput_ratio"] = \
        1.0 - metrics.get("transport.retransmits", 0.0) / segments \
        if segments else 1.0
    metrics["trace.wall_s"] = mean(traced_s)
    base = stats.lower_quartile(plain)
    metrics["trace.overhead_pct"] = \
        100.0 * (stats.lower_quartile(traced_s) - base) / base
    metrics["obs.ab_s"] = base - stats.lower_quartile(obs_off)
    for name, _unit in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return {"metrics": {name: metrics[name] for name, _ in PER_LAYER},
            "rows": measured, "setup_rows": rows["setup"],
            "samples": {"wall_s": plain, "obs_off_wall_s": obs_off,
                        "traced_wall_s": traced_s}}


# -- report --------------------------------------------------------------

def report(workload: str, seed: int, trace: bool, result: Dict[str, Any],
           rec: Record, env: Dict[str, Any]) -> None:
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"python {env['before']['python']}  nproc {env['before']['nproc']}"
          f"  load {env['before']['loadavg'][0]:.2f} -> "
          f"{env['after']['loadavg'][0]:.2f}")
    for name, samples in result["samples"].items():
        s = stats.summary(samples)
        extra = "  ".join(f"{k} {v:.4f}" for k, v in s.items()
                          if k not in ("n", "lower_quartile"))
        print(f"  {name:16s} n={s['n']:3d}  lower_quartile "
              f"{s['lower_quartile']:.4f} s  {extra}")
    if not trace:
        for name, slices in result["slices"].items():
            print(f"  {name} reported: {result['metrics'][name]:.4f} s, the "
                  f"sum of the fastest copy of each of {len(slices[0])} "
                  f"slices")
    if trace:
        rows = result["rows"]
        total = sum(rows.values())
        print(f"  layer self time per traced unit, measured phase "
              f"(sum {total:.4f} s), with set-up beside it:")
        for layer, value in sorted(rows.items(), key=lambda kv: -kv[1]):
            setup = result["setup_rows"].get(layer, 0.0)
            if value > 0 or setup > 0:
                print(f"    {layer:16s} {value:9.4f} s  "
                      f"{100 * value / total:5.1f}%  (set-up {setup:.4f} s)")
    print("  simulated outputs (checks, not metrics): " + ", ".join(
        f"{k} {v:.6g}" for k, v in rec.sim.items()))
    print(f"  operations attempted {rec.tally.attempted}, failed "
          f"{rec.tally.failed}; snapshot digest "
          f"{'agrees' if stats.digests_agree(rec.digests) else 'DIFFERS'}"
          f" over {len(rec.digests)} units "
          f"({rec.digests[0][:16] if rec.digests else '-'})")
    for failure in rec.tally.failures + rec.problems:
        print(f"  FAILED: {failure}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    env = {"before": machine()}
    inputs = make_inputs(args.workload, args.seed)
    rec = Record()
    run = traced if args.trace else untraced
    result = run(args.workload, inputs, out_dir, args.seconds, rec)
    env["after"] = machine()
    report(args.workload, args.seed, bool(args.trace), result, rec, env)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    line = {"correct": rec.correct, "attempted": rec.tally.attempted,
            "failed": rec.tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()}}
    with open(os.path.join(
            out_dir, f"result_{args.workload}_trace{args.trace}.json"),
            "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "env": env,
                   "sim_outputs": rec.sim, "failures": rec.tally.failures
                   + rec.problems, "digests": sorted(set(rec.digests)),
                   **{k: v for k, v in result.items()}, "result": line},
                  fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
