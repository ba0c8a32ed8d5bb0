#!/usr/bin/env python
"""Perf-regression gate: benchmark scenarios against tracked baselines.

Runs every named scenario in :mod:`repro.core.scenarios` with the
event-loop profiler installed, extracts a small metric vector per
scenario — events/sec, wall time, events run, simulated time reached,
and peak time-series values (simulator queue depth, link queue
occupancy, player buffer) — and compares it against the tracked
``BENCH_<scenario>.json`` baseline at the repo root.

Verdict rules, per metric:

* *perf* metrics (``wall_seconds`` up, ``events_per_sec`` down) fail
  when they regress beyond ``--wall-tolerance`` (generous by default —
  wall clock is noisy).  ``--no-wall`` skips them entirely for CI
  runners whose hardware differs from the baseline machine.
* *deterministic* metrics (``events_run``, ``sim_time``, peaks) are
  reproducible given the seed, so any drift beyond ``--tolerance``
  fails — if the drift is an intended consequence of a change, rerun
  with ``--update`` to accept the new baseline.

``--update`` (re)writes the baselines and exits 0.  A missing baseline
is an error (exit 2) so new scenarios can't silently skip the gate.
On failure the diff table shows baseline vs current per metric.

Each run also rewrites the scenario's archive,
``benchmarks/out/obs_gate_<scenario>.jsonl`` (override the directory
with ``BENCH_METRICS_DIR``), with the profiler's top-N in its ``wall``
record, so a failed gate is debuggable offline with ``python -m
repro.obs``.  The previous run's archive (when present) is loaded
before the new run truncates it, diffed instrument-by-instrument via
:meth:`MetricsRegistry.delta`, and the largest absolute movements are
printed next to the percentage table.  Every scenario is additionally
run through the :class:`ConservationAuditor`; any violation fails the
gate regardless of the perf verdicts.

On any gate failure the full differential comparison
(:mod:`repro.obs.diff`) between the baseline — the tracked
``BENCH_<scenario>.json`` vector + ``profile_top``, backfilled with
the previous run's archive when present — and the failing run is
printed (ranked attribution: span kinds, critical-path components,
profiler callsites, largest mover first) and written as
``diff_gate_<scenario>.json`` next to the archive, so a regression
report always names the layer that moved, not just the headline
number.

Testing hook: ``BENCH_GATE_HANDICAP=<factor>`` scales measured wall
time (2.0 = pretend the run took twice as long), which is how the test
suite injects a regression to prove the gate trips.

Run via ``make bench-gate``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.core.scenarios import SCENARIOS, build  # noqa: E402
from repro.obs import diff as run_diff  # noqa: E402
from repro.obs.audit import ConservationAuditor  # noqa: E402
from repro.obs.export import dump_observability  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.sink import Archive, load_archive  # noqa: E402

#: (metric, direction, class) — direction says which way is a
#: regression: "up" = larger is worse, "down" = smaller is worse,
#: "drift" = any change beyond tolerance is suspect.
METRIC_SPECS: Tuple[Tuple[str, str, str], ...] = (
    ("events_per_sec", "down", "wall"),
    ("wall_seconds", "up", "wall"),
    ("events_run", "drift", "deterministic"),
    ("sim_time", "drift", "deterministic"),
    # gated against an absolute per-scenario floor (see
    # MIN_EVENTS_PER_SIM_SEC / --min-events-per-sec), not the baseline:
    # the deterministic load-per-simulated-second assertion survives
    # --no-wall because both numerator and denominator are seeded
    ("events_per_sim_sec", "min", "deterministic"),
    ("peak_queue_depth", "up", "deterministic"),
    ("peak_link_queue", "up", "deterministic"),
    ("peak_player_buffer", "drift", "deterministic"),
    # gated against the --max-obs-overhead absolute ceiling, not the
    # baseline: what full-fidelity observability costs vs obs-off
    ("obs_overhead_pct", "abs", "wall"),
    # process peak RSS at the end of the scenario's gate run (KiB on
    # Linux) — the memory axis of ROADMAP item 3's sessions vs
    # events/sec vs RSS extrapolation curve.  ru_maxrss is a process
    # high-water mark, so within one gate invocation later scenarios
    # inherit the peak of earlier ones; the trend across PRs is the
    # signal, hence class "wall" (machine-dependent, skipped by
    # --no-wall in CI).
    ("peak_rss_kb", "up", "wall"),
)

#: default ceiling (percent) for the obs-on vs obs-off wall delta
MAX_OBS_OVERHEAD_PCT = 15.0

#: per-scenario floors for ``events_run / sim_time`` — the scripted
#: load each scenario must keep scheduling (per-cell-equivalent
#: events, so cell trains are held to the same bar as an
#: event-per-cell loop).  Deterministic given the seed;
#: set ~10% under the recorded value so only a real loss of simulated
#: work (a silently skipped stream, an unscheduled classroom) trips
#: it, not counter jitter from an intended change.
MIN_EVENTS_PER_SIM_SEC: Dict[str, float] = {
    "quickstart": 240.0,       # recorded 270.0 ev/sim-sec
    "classroom": 230.0,        # recorded 258.9
    "faulty-classroom": 250.0,  # recorded 285.2
}


def baseline_path(scenario: str, out_dir: str) -> str:
    return os.path.join(out_dir, f"BENCH_{scenario}.json")


def measure_obs_overhead(scenario: str, pairs: int = 3) -> float:
    """End-to-end obs cost: full-fidelity obs-on vs obs-off wall delta.

    Dedicated run pairs without the profiler (its wrapper would
    dominate the comparison): one run with the default observability
    stack (tracing, telemetry, watchdog, self-metering), one with all
    of it off.  The delta catches costs the in-process meter cannot
    see from inside — allocation and cache pressure included.

    A single pair is hopelessly noisy on sub-second scenarios (a
    scheduler hiccup reads as 20% "overhead"), so the minimum over
    *pairs* interleaved pairs is reported: noise only ever inflates
    the delta, so the smallest observation is the best estimate.
    Clamped at 0 — a faster obs-on run is noise, not negative cost.
    """
    best = None
    for _ in range(pairs):
        t0 = time.perf_counter()
        build(scenario).run_to_horizon()
        wall_on = time.perf_counter() - t0
        t0 = time.perf_counter()
        build(scenario, tracing=False, telemetry_interval=None,
              watchdog=False, meter=False).run_to_horizon()
        wall_off = time.perf_counter() - t0
        if wall_off <= 0:
            return 0.0
        pct = max(0.0, (wall_on - wall_off) / wall_off * 100.0)
        best = pct if best is None else min(best, pct)
    return best or 0.0


def _peak_rss_kb() -> int:
    """Process peak RSS so far (KiB on Linux; 0 where unavailable)."""
    try:
        import resource
    except ImportError:
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def measure(scenario: str) -> Dict[str, Any]:
    """Run one scenario to its horizon and extract the metric vector."""
    handicap = float(os.environ.get("BENCH_GATE_HANDICAP", "1.0"))
    out_dir = os.environ.get(
        "BENCH_METRICS_DIR", os.path.join(_ROOT, "benchmarks", "out"))
    os.makedirs(out_dir, exist_ok=True)
    stream_path = os.path.join(out_dir, f"obs_gate_{scenario}.jsonl")
    # the previous run's archive, read before build() truncates it: it
    # backfills the BENCH baseline for the failure-path diff
    prev_archive = _previous_archive(stream_path)
    t0 = time.perf_counter()
    run = build(scenario, profile=True, stream=stream_path)
    run.run_to_horizon()
    wall = (time.perf_counter() - t0) * handicap
    mits = run.mits
    sampler = mits.sampler
    profile = mits.profiler.snapshot(top=5)
    violations = ConservationAuditor(mits).check()

    def peak(component: str, name: str) -> float:
        value = sampler.peak(component, name)
        return float(value) if value is not None else 0.0

    metrics = {
        "events_run": mits.sim.events_run,
        "sim_time": round(mits.sim.now, 6),
        "events_per_sim_sec": round(mits.sim.events_run / mits.sim.now, 1)
        if mits.sim.now > 0 else 0.0,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(mits.sim.events_run / wall, 1)
        if wall > 0 else 0.0,
        "peak_queue_depth": peak("simulator", "queue_depth"),
        "peak_link_queue": peak("link", "queue_occupancy"),
        "peak_player_buffer": peak("player", "buffer_frames"),
        "obs_overhead_pct": round(measure_obs_overhead(scenario), 2),
        "peak_rss_kb": _peak_rss_kb(),
    }
    instrument_drift = MetricsRegistry.delta(
        prev_archive.metrics, mits.sim.metrics.report()) \
        if prev_archive is not None else None
    dump_observability(mits, f"gate_{scenario}", out_dir, profile=profile)
    return {
        "scenario": scenario,
        "metrics": metrics,
        "audit_violations": [v.to_dict() for v in violations],
        "instrument_drift": instrument_drift,
        "prev_archive": prev_archive,
        "archive_path": stream_path,
        "out_dir": out_dir,
        "profile_top": [
            {"callsite": h["callsite"], "cum_seconds": h["cum_seconds"],
             "calls": h["calls"]}
            for h in profile["hotspots"]],
    }


def _previous_archive(path: str) -> Optional[Archive]:
    if not os.path.exists(path):
        return None
    try:
        return load_archive(path)
    except (OSError, ValueError):
        return None


def explain_failure(scenario: str, baseline_path_: str,
                    current: Dict[str, Any]) -> None:
    """Print the differential attribution for one failed scenario.

    The baseline side is the tracked ``BENCH_<scenario>.json`` (metric
    vector + profile_top) backfilled with the previous gate run's
    archive (metrics report, spans, SLO verdicts, ledger) when it
    exists; the candidate side is the failing run's fresh archive.
    The machine-readable payload lands in ``diff_gate_<scenario>.json``
    next to the archive.
    """
    try:
        base = run_diff.baseline(baseline_path_,
                                 fill=current.get("prev_archive"))
        cur = load_archive(current["archive_path"])
    except (OSError, ValueError):
        return
    cur = dataclasses.replace(
        cur, summary={**cur.summary, "bench": dict(current["metrics"])})
    payload = run_diff.diff_runs(base, cur)
    print()
    print(run_diff.render_attribution_table(payload))
    diff_path = run_diff.write_diff(payload, current["out_dir"],
                                    f"gate_{scenario}")
    print(f"  full differential report: {os.path.relpath(diff_path, _ROOT)}"
          f"  (render with `python -m repro.obs diff "
          f"{os.path.relpath(baseline_path_, _ROOT)} "
          f"{os.path.relpath(current['archive_path'], _ROOT)}`)")


def judge(scenario: str, base: Dict[str, Any], cur: Dict[str, Any],
          *, tolerance: float, wall_tolerance: float, no_wall: bool,
          max_obs_overhead: float = MAX_OBS_OVERHEAD_PCT,
          min_events_per_sec: Optional[float] = None
          ) -> List[Tuple[str, Any, Any, float, str]]:
    """Rows of ``(metric, baseline, current, delta_frac, verdict)``."""
    rows = []
    base_m, cur_m = base.get("metrics", {}), cur["metrics"]
    for metric, direction, klass in METRIC_SPECS:
        if no_wall and klass == "wall":
            continue
        tol = wall_tolerance if klass == "wall" else tolerance
        b, c = base_m.get(metric), cur_m.get(metric)
        if direction == "min":
            # absolute floor: the baseline column shows the floor, and
            # the verdict ignores the tracked baseline entirely
            floor = (min_events_per_sec
                     if min_events_per_sec is not None
                     else MIN_EVENTS_PER_SIM_SEC.get(scenario))
            if floor is None or c is None:
                continue
            bad = c < floor
            rows.append((metric, floor, c, 0.0, "FAIL" if bad else "ok"))
            continue
        if direction == "abs":
            # absolute ceiling, not baseline-relative: wall deltas this
            # small are noise run-to-run, but a blowout must fail even
            # if the baseline had blown out too
            if c is None:
                continue
            bad = c > max_obs_overhead
            rows.append((metric, b, c, 0.0, "FAIL" if bad else "ok"))
            continue
        if c is None:
            # metric not recorded this run (e.g. no `resource` module
            # for peak_rss_kb) — nothing to judge
            continue
        if b is None:
            rows.append((metric, b, c, 0.0, "NEW"))
            continue
        if b == 0:
            delta = 0.0 if c == 0 else float("inf")
        else:
            delta = (c - b) / abs(b)
        if direction == "up":
            bad = delta > tol
        elif direction == "down":
            bad = delta < -tol
        else:  # drift
            bad = abs(delta) > tol
        rows.append((metric, b, c, delta, "FAIL" if bad else "ok"))
    return rows


def render_diff(scenario: str,
                rows: List[Tuple[str, Any, Any, float, str]]) -> str:
    lines = [f"scenario {scenario}",
             f"  {'metric':<22}{'baseline':>14}{'current':>14}"
             f"{'abs':>12}{'delta':>9}  verdict",
             "  " + "-" * 80]
    for metric, b, c, delta, verdict in rows:
        fmt = lambda v: "-" if v is None else (  # noqa: E731
            f"{v:.4g}" if isinstance(v, float) else str(v))
        abs_s = "-" if b is None or c is None else f"{c - b:+.4g}"
        delta_s = "-" if b is None or delta == float("inf") \
            else f"{delta * 100:+.1f}%"
        lines.append(f"  {metric:<22}{fmt(b):>14}{fmt(c):>14}"
                     f"{abs_s:>12}{delta_s:>9}  {verdict}")
    return "\n".join(lines)


def render_instrument_drift(drift: Dict[str, Dict[str, Any]],
                            top: int = 8) -> str:
    """Largest absolute per-instrument movements vs the previous run."""
    moved = [(key, row) for key, row in drift.items()
             if row["delta"] or "only" in row]
    if not moved:
        return "  (no instrument drift vs previous run)"
    moved.sort(key=lambda kv: abs(kv[1]["delta"]), reverse=True)
    lines = [f"  top instrument drift vs previous run "
             f"({len(moved)} instruments moved):"]
    for key, row in moved[:top]:
        tag = f"  [{row['only']} only]" if "only" in row else ""
        lines.append(f"    {key:<52} {row['before']:>10.4g} -> "
                     f"{row['after']:>10.4g}  ({row['delta']:+.4g}){tag}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark scenarios and gate on tracked baselines.")
    parser.add_argument("scenarios", nargs="*",
                        help=f"subset to run (default: all of "
                             f"{sorted(SCENARIOS)})")
    parser.add_argument("--update", action="store_true",
                        help="write/refresh BENCH_*.json baselines")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative tolerance for deterministic "
                             "metrics (default 0.10)")
    parser.add_argument("--wall-tolerance", type=float, default=0.50,
                        help="relative tolerance for wall-clock "
                             "metrics (default 0.50)")
    parser.add_argument("--no-wall", action="store_true",
                        help="skip wall-clock metrics (CI on unknown "
                             "hardware)")
    parser.add_argument("--max-obs-overhead", type=float,
                        default=MAX_OBS_OVERHEAD_PCT,
                        help="fail when full-fidelity observability "
                             "costs more than this percent of wall vs "
                             "obs-off (default 15)")
    parser.add_argument("--min-events-per-sec", type=float, default=None,
                        help="absolute floor for events_run/sim_time "
                             "(per-cell-equivalent events per simulated "
                             "second; deterministic, so it stays active "
                             "under --no-wall).  Default: the tracked "
                             "per-scenario floors in "
                             "MIN_EVENTS_PER_SIM_SEC")
    parser.add_argument("--out-dir", default=_ROOT,
                        help="directory holding BENCH_*.json "
                             "(default: repo root)")
    args = parser.parse_args(argv)

    names = args.scenarios or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios {unknown} "
                     f"(have: {sorted(SCENARIOS)})")

    failed = False
    missing = False
    for name in names:
        print(f"running scenario {name} ...", flush=True)
        current = measure(name)
        violations = current.pop("audit_violations")
        drift = current.pop("instrument_drift")
        diff_context = {key: current.pop(key) for key in
                        ("prev_archive", "archive_path", "out_dir")}
        diff_context["metrics"] = current["metrics"]
        if violations:
            print(f"  AUDIT: {len(violations)} conservation violations")
            for v in violations:
                print(f"    {v['component']}/{v['entity']}: "
                      f"{v['invariant']} expected {v['expected']} "
                      f"actual {v['actual']}")
            failed = True
        path = baseline_path(name, args.out_dir)
        if args.update:
            with open(path, "w") as fh:
                json.dump(current, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"  baseline written: {os.path.relpath(path, _ROOT)}")
            continue
        if not os.path.exists(path):
            print(f"  MISSING baseline {os.path.relpath(path, _ROOT)} "
                  f"— run with --update to create it")
            missing = True
            continue
        with open(path) as fh:
            base = json.load(fh)
        rows = judge(name, base, current, tolerance=args.tolerance,
                     wall_tolerance=args.wall_tolerance,
                     no_wall=args.no_wall,
                     max_obs_overhead=args.max_obs_overhead,
                     min_events_per_sec=args.min_events_per_sec)
        print(render_diff(name, rows))
        if drift is not None:
            print(render_instrument_drift(drift))
        if violations or any(verdict == "FAIL" for *_, verdict in rows):
            failed = True
            explain_failure(name, path, diff_context)

    if failed:
        print("\nBENCH GATE: REGRESSION — see FAIL rows above "
              "(--update accepts intended changes)")
        return 1
    if missing:
        return 2
    if not args.update:
        print("\nBENCH GATE: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
