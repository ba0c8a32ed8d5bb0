#!/usr/bin/env python
"""Fleet runner: N scenario shards in parallel, one merged view.

The thesis's trial ran telelearning across many OCRInet sites at
once; this driver reproduces that shape at benchmark scale.  It runs
N scenarios — or N seed-derived shards of one scenario, seeds
``seed*1000 + shard`` like the fault plans — across a multiprocessing
pool.  Each worker streams its run to an ``obs_*.jsonl`` archive
(bounded memory, full fidelity), closes it with its obs-overhead
attribution in the ``wall`` record, and reports its wall time and
peak RSS back over the pool; the parent folds every archive through
``repro.obs.merge`` into one ``fleet_<name>.jsonl`` archive with
per-shard attribution, renders the merged SLO/audit verdicts, and
exits 1 if the merged audit found violations, 2 if a shard's archive
is incomplete.

Usage::

    python scripts/fleet.py                      # 4 classroom shards
    python scripts/fleet.py classroom quickstart faulty_classroom
    python scripts/fleet.py classroom --shards 8 --seed 2024
    make fleet FLEET_FLAGS="--shards 4"

Inspect the result with any renderer::

    python -m repro.obs report benchmarks/out/fleet/fleet_classroom.jsonl
    python -m repro.obs top    benchmarks/out/fleet/fleet_classroom.jsonl
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

DEFAULT_OUT = os.path.join(_ROOT, "benchmarks", "out", "fleet")


def run_shard(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One worker: run a scenario shard, close its archive, and
    return the wall-clock facts the archive does not carry.

    Runs in a pool child with ``maxtasksperchild=1``, so
    ``ru_maxrss`` is genuinely this shard's peak, not a high-water
    mark inherited from a previous task.
    """
    from repro.core.scenarios import build
    from repro.obs.export import dump_observability

    t0 = time.perf_counter()
    run = build(spec["scenario"], accounting=True,
                seed=spec["seed"], stream=spec["path"])
    run.run_to_horizon()
    dump_observability(run.mits, spec["name"],
                       os.path.dirname(spec["path"]))
    return {
        "wall_seconds": time.perf_counter() - t0,
        # Linux reports ru_maxrss in KiB
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def shard_specs(scenarios: List[str], shards: int, seed: int,
                out_dir: str) -> List[Dict[str, Any]]:
    """The work list: explicit scenarios run one shard each; a single
    scenario fans out into ``shards`` seed-derived shards."""
    if len(scenarios) > 1:
        plan: List[Tuple[str, int]] = [(s, i)
                                       for i, s in enumerate(scenarios)]
    else:
        plan = [(scenarios[0], i) for i in range(shards)]
    specs = []
    for scenario, shard in plan:
        name = f"{scenario}_s{shard}"
        specs.append({
            "scenario": scenario,
            "shard": shard,
            "seed": seed * 1000 + shard,
            "name": name,
            "path": os.path.join(out_dir, f"obs_{name}.jsonl"),
        })
    return specs


def run_fleet(scenarios: List[str], *, shards: int = 4,
              seed: int = 1996, procs: Optional[int] = None,
              out_dir: str = DEFAULT_OUT,
              name: Optional[str] = None) -> Dict[str, Any]:
    """Run the fleet and return the merged dict (also written to
    ``<out_dir>/fleet_<name>.jsonl``).  Raises ``ValueError`` naming
    the file when a shard's archive is incomplete."""
    from repro.obs.merge import merge_archives, write_merged
    from repro.obs.sink import load_archive

    os.makedirs(out_dir, exist_ok=True)
    specs = shard_specs(scenarios, shards, seed, out_dir)
    procs = procs or min(len(specs), os.cpu_count() or 2)
    # fork keeps worker start cheap; maxtasksperchild=1 keeps each
    # child's ru_maxrss attributable to exactly one shard
    ctx = multiprocessing.get_context("fork")
    if procs > 1:
        with ctx.Pool(processes=procs, maxtasksperchild=1) as pool:
            results = pool.map(run_shard, specs)
    else:
        results = [run_shard(spec) for spec in specs]

    loaded = []
    for spec, res in zip(specs, results):
        archive = load_archive(spec["path"])
        if not archive.complete:
            raise ValueError(archive.warning())
        loaded.append({**archive.shard(), "name": spec["name"],
                       "scenario": spec["scenario"],
                       "seed": spec["seed"], **res})

    fleet_name = name or (scenarios[0] if len(scenarios) == 1
                          else "mixed")
    merged = merge_archives(loaded, name=f"fleet_{fleet_name}")
    path = write_merged(
        merged, os.path.join(out_dir, f"fleet_{fleet_name}.jsonl"))
    merged["_path"] = path
    return merged


def render_fleet(merged: Dict[str, Any]) -> str:
    lines = [f"== fleet: {merged['name']} =="]
    lines.append(f"   {len(merged['shards'])} shard(s), merged "
                 f"sim_time {merged['sim_time']:.1f}s, "
                 f"{merged['events_run']} events")
    header = (f"   {'shard':<24} {'seed':>8} {'sim_t':>7} "
              f"{'events':>8} {'wall s':>7} {'rss KiB':>8} {'obs%':>6}")
    lines.append(header)
    for s in merged["shards"]:
        obs = s.get("obs_overhead_pct")
        obs_txt = "-" if obs is None else f"{obs:.1f}"
        lines.append(
            f"   {s['name']:<24} {str(s.get('seed', '-')):>8} "
            f"{s['sim_time']:>7.1f} {s['events_run']:>8} "
            f"{s.get('wall_seconds', 0.0):>7.2f} "
            f"{s.get('peak_rss_kb', 0):>8} {obs_txt:>6}")
    slo = merged.get("slo") or {}
    lines.append(f"   merged slo verdict: {slo.get('verdict', '?')} "
                 f"({sum(1 for r in slo.get('results', []) if r['ok'])}"
                 f"/{len(slo.get('results', []))} objectives ok)")
    audit = merged.get("audit")
    if audit is not None:
        lines.append(f"   merged audit: {audit.get('checks', 0)} "
                     f"checks, {len(audit.get('violations', []))} "
                     f"violations")
        for v in audit.get("violations", []):
            lines.append(f"     VIOLATION {v}")
    overhead = merged.get("overhead")
    if overhead is not None:
        lines.append(f"   fleet obs overhead: "
                     f"{overhead['obs_overhead_pct']:.1f}% of "
                     f"{overhead['wall_seconds']:.2f}s total compute")
    total_rss = sum(s.get("peak_rss_kb", 0) for s in merged["shards"])
    lines.append(f"   summed peak rss: {total_rss} KiB across shards")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run scenario shards in parallel and merge their "
        "observability into one fleet archive.")
    parser.add_argument("scenarios", nargs="*", default=["classroom"],
                        help="scenario name(s); one name fans out "
                        "into --shards seed-derived shards "
                        "(default: classroom)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shards when one scenario is given "
                        "(default: 4)")
    parser.add_argument("--seed", type=int, default=1996,
                        help="base seed; shard i runs seed*1000+i")
    parser.add_argument("--procs", type=int, default=None,
                        help="pool size (default: min(shards, cpus))")
    parser.add_argument("--out-dir", default=DEFAULT_OUT)
    parser.add_argument("--name", default=None,
                        help="fleet archive name (default: scenario)")
    parser.add_argument("--json", action="store_true",
                        help="print the merged archive as JSON instead "
                        "of the summary table")
    args = parser.parse_args(argv)

    scenarios = args.scenarios or ["classroom"]
    try:
        merged = run_fleet(scenarios, shards=args.shards, seed=args.seed,
                           procs=args.procs, out_dir=args.out_dir,
                           name=args.name)
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    path = merged.pop("_path")
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        print(render_fleet(merged))
        print(f"\nwrote {path}")
        print(f"render with: python -m repro.obs report {path}")
    audit = merged.get("audit")
    return 1 if (audit is not None and audit.get("violations")) else 0


if __name__ == "__main__":
    sys.exit(main())
