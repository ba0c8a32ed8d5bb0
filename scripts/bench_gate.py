#!/usr/bin/env python
"""Deterministic regression gate: scenarios against tracked baselines.

Runs every named scenario in :mod:`repro.core.scenarios`, extracts a
small metric vector per scenario — events run, simulated time
reached, events per simulated second, peak time-series values
(simulator queue depth, link queue occupancy, player buffer) and the
obs-on vs obs-off overhead — and compares it against the tracked
``BENCH_<scenario>.json`` baseline at the repo root.

Wall time is not gated here: the scenarios run in ~0.13 s, which is
noise.  ``perfbench/run.py`` owns wall-clock measurement (``wall_s``,
``peak_rss_mb`` over repeated seeds, and a traced pass that splits
wall time by layer).  ``events_run`` counts per-cell-equivalent
charged events (:meth:`Simulator.charge_cells`), not callbacks
executed.

Verdict rules, per metric:

* ``events_run``, ``sim_time`` and the peaks are reproducible given
  the seed, so any drift beyond :data:`TOLERANCE` fails (peak growth
  only for the queues) — if the drift is an intended consequence of
  a change, rerun with ``--update`` to accept the new baseline.
* ``events_per_sim_sec`` is held to the absolute per-scenario floor
  in :data:`MIN_EVENTS_PER_SIM_SEC`, not to the baseline.
* ``obs_overhead_pct`` is held to the absolute ceiling
  :data:`MAX_OBS_OVERHEAD_PCT`; it is an A/B measurement, so it is
  judged on every run.

``--update`` (re)writes the baselines and exits 0.  A missing baseline
is an error (exit 2) so new scenarios can't silently skip the gate.
On failure the diff table shows baseline vs current per metric.

Each run also rewrites the scenario's archive,
``benchmarks/out/obs_gate_<scenario>.jsonl`` (override the directory
with ``BENCH_METRICS_DIR``), so a failed gate is debuggable offline
with ``python -m repro.obs``.  Every scenario is additionally run
through the :class:`ConservationAuditor`; any violation fails the gate
regardless of the metric verdicts.

Each scenario gets one differential comparison (:mod:`repro.obs.diff`)
between the baseline — the tracked ``BENCH_<scenario>.json`` vector,
backfilled with the previous run's archive, loaded before the new run
truncates it — and this run's archive.  When a previous archive exists
its largest instrument movements are printed next to the percentage
table, as ``python -m repro.obs diff`` prints them.  On any gate
failure the ranked attribution (span kinds and critical-path
components, largest mover first) is printed too and the payload is
written as ``diff_gate_<scenario>.json`` next to the archive, so a
regression report always names the layer that moved, not just the
headline number.

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
from repro.obs.sink import Archive, load_archive  # noqa: E402

#: (metric, direction) — direction says which way is a regression:
#: "up" = larger is worse, "drift" = any change beyond TOLERANCE is
#: suspect, "min" = below the scenario's MIN_EVENTS_PER_SIM_SEC floor,
#: "max" = above the MAX_OBS_OVERHEAD_PCT ceiling.
METRIC_SPECS: Tuple[Tuple[str, str], ...] = (
    ("events_run", "drift"),
    ("sim_time", "drift"),
    ("events_per_sim_sec", "min"),
    ("peak_queue_depth", "up"),
    ("peak_link_queue", "up"),
    ("peak_player_buffer", "drift"),
    # what full-fidelity observability costs vs obs-off
    ("obs_overhead_pct", "max"),
)

#: relative tolerance for the baseline-relative metrics
TOLERANCE = 0.10

#: ceiling (percent) for the obs-on vs obs-off wall delta
MAX_OBS_OVERHEAD_PCT = 15.0

#: per-scenario floors for ``events_run / sim_time`` — the scripted
#: load each scenario must keep scheduling (per-cell-equivalent
#: events, so cell trains are held to the same bar as an
#: event-per-cell loop).  Deterministic given the seed;
#: set ~10% under the recorded value so only a real loss of simulated
#: work (a silently skipped stream, an unscheduled classroom) trips
#: it, not counter jitter from an intended change.
MIN_EVENTS_PER_SIM_SEC: Dict[str, float] = {
    "quickstart": 183.0,       # recorded 203.9 ev/sim-sec
    "classroom": 197.0,        # recorded 219.4
    "faulty-classroom": 196.0,  # recorded 218.5
}


def baseline_path(scenario: str, out_dir: str) -> str:
    return os.path.join(out_dir, f"BENCH_{scenario}.json")


def measure_obs_overhead(scenario: str, pairs: int = 3) -> float:
    """End-to-end obs cost: full-fidelity obs-on vs obs-off wall delta.

    Dedicated run pairs: one run with the default observability
    stack as a run without an archive has it (tracing and
    self-metering: with no sink the sampler never ticks), one with all
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


def measure(scenario: str) -> Dict[str, Any]:
    """Run one scenario to its horizon and extract the metric vector."""
    out_dir = os.environ.get(
        "BENCH_METRICS_DIR", os.path.join(_ROOT, "benchmarks", "out"))
    os.makedirs(out_dir, exist_ok=True)
    stream_path = os.path.join(out_dir, f"obs_gate_{scenario}.jsonl")
    # the previous run's archive, read before build() truncates it: it
    # backfills the BENCH baseline for the diff
    prev_archive = _previous_archive(stream_path)
    run = build(scenario, stream=stream_path)
    run.run_to_horizon()
    mits = run.mits
    violations = ConservationAuditor(mits).check()
    events_run, sim_time = mits.sim.events_run, mits.sim.now
    dump_observability(mits, f"gate_{scenario}", out_dir)
    series = load_archive(stream_path).timeseries

    def peak(component: str, name: str) -> float:
        return float(max((max(s.values) for s in series
                          if s.component == component and s.name == name),
                         default=0.0))

    metrics = {
        "events_run": events_run,
        "sim_time": round(sim_time, 6),
        "events_per_sim_sec": round(events_run / sim_time, 1)
        if sim_time > 0 else 0.0,
        "peak_queue_depth": peak("simulator", "queue_depth"),
        "peak_link_queue": peak("link", "queue_occupancy"),
        "peak_player_buffer": peak("player", "buffer_frames"),
        "obs_overhead_pct": round(measure_obs_overhead(scenario), 2),
    }
    return {
        "scenario": scenario,
        "metrics": metrics,
        "audit_violations": [v.to_dict() for v in violations],
        "prev_archive": prev_archive,
        "archive_path": stream_path,
        "out_dir": out_dir,
    }


def _previous_archive(path: str) -> Optional[Archive]:
    if not os.path.exists(path):
        return None
    try:
        return load_archive(path)
    except (OSError, ValueError):
        return None


def diff_against_baseline(baseline_path_: str, current: Dict[str, Any]
                          ) -> Optional[Dict[str, Any]]:
    """The scenario's one :func:`repro.obs.diff.diff_runs` payload.

    The baseline side is the tracked ``BENCH_<scenario>.json`` metric
    vector, backfilled with the previous gate run's archive (metrics
    report, spans, SLO verdicts, ledger) when it exists; the candidate
    side is this run's fresh archive.  None when either cannot be read.
    """
    try:
        base = run_diff.baseline(baseline_path_,
                                 fill=current["prev_archive"])
        cur = load_archive(current["archive_path"])
    except (OSError, ValueError):
        return None
    cur = dataclasses.replace(
        cur, summary={**cur.summary, "bench": dict(current["metrics"])})
    return run_diff.diff_runs(base, cur)


def explain_failure(scenario: str, baseline_path_: str,
                    current: Dict[str, Any],
                    payload: Dict[str, Any]) -> None:
    """Print the ranked attribution of one failed scenario's diff and
    write the payload as ``diff_gate_<scenario>.json`` next to the
    archive."""
    print()
    print(run_diff.render_attribution_table(payload))
    diff_path = run_diff.write_diff(payload, current["out_dir"],
                                    f"gate_{scenario}")
    print(f"  full differential report: {os.path.relpath(diff_path, _ROOT)}"
          f"  (render with `python -m repro.obs diff "
          f"{os.path.relpath(baseline_path_, _ROOT)} "
          f"{os.path.relpath(current['archive_path'], _ROOT)}`)")


def judge(scenario: str, base: Dict[str, Any], cur: Dict[str, Any]
          ) -> List[Tuple[str, Any, Any, float, str]]:
    """Rows of ``(metric, baseline, current, delta_frac, verdict)``."""
    rows = []
    base_m, cur_m = base.get("metrics", {}), cur["metrics"]
    for metric, direction in METRIC_SPECS:
        b, c = base_m.get(metric), cur_m.get(metric)
        if c is None:
            continue
        if direction == "min":
            # absolute floor: the baseline column shows the floor, and
            # the verdict ignores the tracked baseline entirely
            floor = MIN_EVENTS_PER_SIM_SEC.get(scenario)
            if floor is None:
                continue
            rows.append((metric, floor, c, 0.0,
                         "FAIL" if c < floor else "ok"))
            continue
        if direction == "max":
            # absolute ceiling, not baseline-relative: wall deltas this
            # small are noise run-to-run, but a blowout must fail even
            # if the baseline had blown out too
            rows.append((metric, b, c, 0.0,
                         "FAIL" if c > MAX_OBS_OVERHEAD_PCT else "ok"))
            continue
        if b is None:
            rows.append((metric, b, c, 0.0, "NEW"))
            continue
        if b == 0:
            delta = 0.0 if c == 0 else float("inf")
        else:
            delta = (c - b) / abs(b)
        bad = delta > TOLERANCE if direction == "up" \
            else abs(delta) > TOLERANCE
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate scenarios' deterministic metrics on tracked "
                    "baselines.")
    parser.add_argument("scenarios", nargs="*",
                        help=f"subset to run (default: all of "
                             f"{sorted(SCENARIOS)})")
    parser.add_argument("--update", action="store_true",
                        help="write/refresh BENCH_*.json baselines")
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
        rows = judge(name, base, current)
        print(render_diff(name, rows))
        payload = diff_against_baseline(path, diff_context)
        if payload is not None and diff_context["prev_archive"] is not None:
            print(run_diff.render_instrument_movers(payload, top=8))
        if violations or any(verdict == "FAIL" for *_, verdict in rows):
            failed = True
            if payload is not None:
                explain_failure(name, path, diff_context, payload)

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
