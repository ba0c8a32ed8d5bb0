#!/usr/bin/env python
"""Fleet runner: N scenario shards in parallel, one row per shard.

The thesis's trial ran telelearning across many OCRInet sites at
once; this driver reproduces that shape at benchmark scale.  It runs
N scenarios — or N seed-derived shards of one scenario, seeds
``seed*1000 + shard`` like the fault plans — each in its own forked
process, at most ``--procs`` at a time.  Each shard streams its run to
its own ``obs_<scenario>_s<shard>.jsonl`` archive and sends its wall
time and peak RSS back over a one-way pipe.  The shards are
independent seeds, not parts of one network, so nothing combines
their archives: each stays the record of the run it describes.

The parent loads every archive with ``load_archive`` and prints one
table, a row per shard: status (``ok``, ``failed: <exception>``,
``killed: signal N`` or ``timeout``), archive (``complete`` or why
not), audit violations, SLO verdict, wall time, peak RSS and the obs
overhead from the archive's ``wall`` record.  A shard still running
after :data:`SHARD_TIMEOUT_S` is killed and reported as ``timeout``.

Exit code: 3 if any shard failed, was killed or timed out; else 2 if
any archive is incomplete; else 1 if any audit found a violation;
else 0.

Usage::

    python scripts/fleet.py                      # 4 classroom shards
    python scripts/fleet.py classroom quickstart faulty_classroom
    python scripts/fleet.py classroom --shards 8 --seed 2024
    make fleet FLEET_FLAGS="--shards 4"

Inspect one shard with any renderer::

    python -m repro.obs report benchmarks/out/fleet/obs_classroom_s0.jsonl
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import sys
import time
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

DEFAULT_OUT = os.path.join(_ROOT, "benchmarks", "out", "fleet")

#: wall-clock seconds a shard may run before it is killed and
#: reported as ``timeout`` (a classroom shard takes about one)
SHARD_TIMEOUT_S = 600.0

COLUMNS = ("shard", "seed", "status", "archive", "audit", "slo",
           "wall_s", "peak_rss_kb", "obs_pct")


def run_shard(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One worker: run a scenario shard, close its archive, and
    return the wall-clock facts the archive does not carry.

    Runs in a process of its own, so ``ru_maxrss`` is this shard's
    peak and no other's.
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


def _worker(spec: Dict[str, Any], conn) -> None:
    try:
        conn.send(run_shard(spec))
    except Exception as exc:
        conn.send({"error": str(exc) or type(exc).__name__})
    finally:
        conn.close()


def _status(msg: Optional[Dict[str, Any]], exitcode: int) -> str:
    if msg is not None and "error" in msg:
        return f"failed: {msg['error']}"
    if exitcode < 0:
        return f"killed: signal {-exitcode}"
    if msg is None:
        return f"failed: exit code {exitcode} before a result"
    return "ok"


def _run_shards(specs: List[Dict[str, Any]],
                procs: int) -> List[Dict[str, Any]]:
    """Run every shard in its own process, at most *procs* alive at a
    time; returns one ``{status, wall_s, peak_rss_kb}`` per spec.

    A shard's pipe reads EOF however its process ends, so a crash
    wakes the wait as a result does; the earliest deadline bounds it.
    """
    ctx = multiprocessing.get_context("fork")
    queue = list(enumerate(specs))
    outcomes: List[Dict[str, Any]] = [{} for _ in specs]
    running: Dict[Any, Tuple[int, Any, float]] = {}
    try:
        while queue or running:
            while queue and len(running) < procs:
                index, spec = queue.pop(0)
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker, args=(spec, send),
                                   daemon=True)
                proc.start()
                send.close()
                running[recv] = (index, proc,
                                 time.monotonic() + SHARD_TIMEOUT_S)
            soonest = min(deadline for _, _, deadline in running.values())
            ready = wait(list(running),
                         timeout=max(0.0, soonest - time.monotonic()))
            for recv in list(running):
                index, proc, deadline = running[recv]
                if recv not in ready and time.monotonic() < deadline:
                    continue
                msg = None
                if recv.poll():
                    try:
                        msg = recv.recv()
                    except EOFError:
                        pass
                proc.join(max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    proc.kill()
                    proc.join()
                    status = "timeout"
                else:
                    status = _status(msg, proc.exitcode)
                del running[recv]
                recv.close()
                ok = status == "ok"
                outcomes[index] = {
                    "status": status,
                    "wall_s": msg["wall_seconds"] if ok else None,
                    "peak_rss_kb": msg["peak_rss_kb"] if ok else None,
                }
    finally:
        for _, proc, _ in running.values():
            proc.kill()
            proc.join()
    return outcomes


def shard_row(spec: Dict[str, Any],
              outcome: Dict[str, Any]) -> Dict[str, Any]:
    """One table row: the shard's outcome plus what its archive says."""
    from repro.obs.sink import load_archive

    row: Dict[str, Any] = {
        "shard": spec["name"], "seed": spec["seed"], **outcome,
        "archive": "missing", "warning": None,
        "audit": None, "slo": None, "obs_pct": None,
    }
    if not os.path.exists(spec["path"]):
        return row
    try:
        archive = load_archive(spec["path"])
    except ValueError as exc:
        row.update(archive="unreadable", warning=str(exc))
        return row
    row.update(archive="complete" if archive.complete else archive.reason,
               warning=archive.warning())
    audit = archive.summary.get("audit")
    if audit is not None:
        row["audit"] = len(audit.get("violations", []))
    row["slo"] = (archive.summary.get("slo") or {}).get("verdict")
    row["obs_pct"] = (archive.overhead or {}).get("obs_overhead_pct")
    return row


def run_fleet(scenarios: List[str], *, shards: int = 4,
              seed: int = 1996, procs: Optional[int] = None,
              out_dir: str = DEFAULT_OUT) -> List[Dict[str, Any]]:
    """Run the fleet; returns one :func:`shard_row` per shard."""
    os.makedirs(out_dir, exist_ok=True)
    specs = shard_specs(scenarios, shards, seed, out_dir)
    procs = procs or min(len(specs), os.cpu_count() or 2)
    outcomes = _run_shards(specs, procs)
    return [shard_row(spec, outcome)
            for spec, outcome in zip(specs, outcomes)]


def exit_code(rows: List[Dict[str, Any]]) -> int:
    if any(r["status"] != "ok" for r in rows):
        return 3
    if any(r["archive"] != "complete" for r in rows):
        return 2
    return 1 if any(r["audit"] for r in rows) else 0


def render_fleet(rows: List[Dict[str, Any]]) -> str:
    def cell(value: Any, column: str) -> str:
        if value is None:
            return "-"
        if column == "wall_s":
            return f"{value:.2f}"
        if column == "obs_pct":
            return f"{value:.1f}"
        return str(value)

    table = [COLUMNS] + [tuple(cell(row[c], c) for c in COLUMNS)
                         for row in rows]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(COLUMNS))]
    lines = [f"== fleet: {len(rows)} shard(s) =="]
    for line in table:
        lines.append("   " + "  ".join(
            text.ljust(width) for text, width in zip(line, widths)).rstrip())
    return "\n".join(lines)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run scenario shards in parallel, each to its own "
        "archive, and report one row per shard.")
    parser.add_argument("scenarios", nargs="*", default=["classroom"],
                        help="scenario name(s); one name fans out "
                        "into --shards seed-derived shards "
                        "(default: classroom)")
    parser.add_argument("--shards", type=_positive, default=4,
                        help="shards when one scenario is given "
                        "(default: 4)")
    parser.add_argument("--seed", type=int, default=1996,
                        help="base seed; shard i runs seed*1000+i")
    parser.add_argument("--procs", type=_positive, default=None,
                        help="shards run at once "
                        "(default: min(shards, cpus))")
    parser.add_argument("--out-dir", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    rows = run_fleet(args.scenarios or ["classroom"], shards=args.shards,
                     seed=args.seed, procs=args.procs,
                     out_dir=args.out_dir)
    print(render_fleet(rows))
    for row in rows:
        if row["warning"] is not None:
            print(f"fleet: {row['shard']}: {row['warning']}",
                  file=sys.stderr)
    print(f"\narchives: {os.path.join(args.out_dir, 'obs_*.jsonl')}")
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
