"""``python -m repro.obs`` — render observability archives.

Every archive verb takes one ``obs_*.jsonl`` run archive (see
:mod:`repro.obs.sink`: one record grammar, read by
:func:`~repro.obs.sink.load_archive`), and each prints an ``!!
incomplete archive`` line first when the archive's ``fin`` record is
missing or does not match what precedes it.

Subcommands::

    report <archive> [--top N] [--strict]
        Header, metrics summary, telemetry health, observability overhead
        (from the ``wall`` record), SLO table, span waterfalls and
        critical-path attribution.  ``--strict`` exits 1 on SLO
        violations.

    critical <archive> [--trace ID | --p99] [--top N]
        Critical-path analysis: the longest blocking chain through a
        trace's span tree, with per-span self-time and slack, plus
        attribution tables by component and span kind.  Default
        renders the longest trace; ``--p99`` renders every tail
        exemplar (root duration at/above the p99); ``--trace ID``
        renders one trace.

    diff <run_a> <run_b> [--top N] [--json PATH]
        Differential comparison of two runs: bench vector, ranked time
        attribution (span kinds, critical-path components), SLO verdict transitions, per-instrument metric
        movements, ledger top-account shifts.  Either side may also be
        a ``BENCH_*.json`` baseline vector.  Exits 1 when any
        *deterministic* delta is present (wall-clock sections never
        count), so same-seed runs assert reproducibility in CI.

    dashboard <archive> [--width N]
        Sparkline panels (link queues, windows, player buffers, event
        rates) over the archive's telemetry ticks.

    top <archive> [--sort COL] [--kind K] [--limit N]
        Per-entity accounting tables (per VC, site, stream, link,
        trace): cells, bytes, drops, queue residency, bandwidth share,
        from the archive's last ledger checkpoint.

    audit <archive>|SCENARIO [--faults PLAN] [--out-dir DIR]
        Render the conservation-audit verdict an archive embeds (exit 1
        on any violation).  Given a scenario name (see
        ``repro.core.scenarios``) instead, the one verb that runs
        anything: it runs the scenario with accounting enabled, streams
        its archive ``obs_audit_<SCENARIO>.jsonl`` to ``--out-dir`` (a
        temporary directory without it) and renders that archive.

Bad input — a non-positive ``--width``/``--limit``/``--top``, a
missing archive, an unknown scenario, fault plan or trace id — prints
one line to stderr and exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional

from repro.obs.accounting import SORT_COLUMNS, render_top
from repro.obs.audit import Violation
from repro.obs.dashboard import render_dashboard
from repro.obs.report import (
    render_alert,
    render_metrics_summary,
    render_overhead,
    render_slo_table,
    render_telemetry_health,
    render_traces,
)
from repro.obs.sink import Archive, load_archive
from repro.obs.slo import SloMonitor


def _positive(kind):
    """An argparse type: *kind* parsed from the text, above zero."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return value
    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = kind.__name__
    return parse


_positive_int = _positive(int)


def _load(path: str) -> Archive:
    """Load *path*, printing the incomplete-archive line when due; an
    unreadable path exits 2."""
    try:
        archive = load_archive(path)
    except OSError as exc:
        print(f"cannot read archive: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    warning = archive.warning()
    if warning is not None:
        print(warning)
    return archive


def _title(archive: Archive) -> str:
    return archive.name or archive.path


def _report(args: argparse.Namespace) -> int:
    archive = _load(args.archive)
    summary = archive.summary
    header = f"== scenario: {summary.get('name') or _title(archive)} =="
    if "sim_time" in summary:
        header += f"  (sim_time {summary['sim_time']:.3f}s," \
                  f" {summary.get('events_run', '?')} events)"
    print(header)
    print()
    print(render_metrics_summary(archive.metrics))
    if "telemetry" in summary:
        print()
        print(render_telemetry_health(summary["telemetry"]))
    if archive.overhead is not None:
        print()
        print(render_overhead(archive.overhead))
    print()
    results = SloMonitor().evaluate(archive.metrics)
    print(render_slo_table(results))
    for alert in (summary.get("watchdog") or {}).get("alerts", []):
        print(render_alert(alert))
    print()
    print(f"== traces: {archive.path} ==")
    print(render_traces(archive.spans, archive.events, top=args.top))
    if archive.spans:
        from repro.obs.critical import render_attribution
        print()
        print(render_attribution(archive.spans, top=args.top))
    if args.strict and not all(r.ok for r in results):
        return 1
    return 0


def _critical(args: argparse.Namespace) -> int:
    from repro.obs.critical import (
        group_by_trace,
        render_attribution,
        render_critical_path,
        select_traces,
    )

    spans = _load(args.archive).spans
    if not spans:
        print("(no spans in this archive)")
        return 1
    try:
        trace_ids = select_traces(spans, trace_id=args.trace,
                                  tail=args.p99)
    except ValueError as exc:
        print(f"critical: {exc}", file=sys.stderr)
        return 2
    print(render_attribution(spans, top=args.top))
    by_trace = group_by_trace(spans)
    for trace_id in trace_ids:
        print()
        print(render_critical_path(by_trace[trace_id]))
    if args.p99:
        print()
        print(f"({len(trace_ids)} tail exemplar(s) at/above the p99 "
              f"root duration, of {len(by_trace)} traces)")
    return 0


def _diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import (
        diff_runs,
        load_side,
        render_diff_report,
        write_diff,
    )

    sides = [load_side(path) for path in (args.run_a, args.run_b)]
    for side in sides:
        if not side.complete:
            print(side.warning())
    payload = diff_runs(*sides, top=args.top)
    print(render_diff_report(payload, top=args.top))
    if args.json:
        out_dir, base = os.path.split(os.path.abspath(args.json))
        name = base[len("diff_"):-len(".json")] \
            if base.startswith("diff_") and base.endswith(".json") \
            else os.path.splitext(base)[0]
        path = write_diff(payload, out_dir, name)
        print(f"\nwrote {path}")
    return 1 if payload["deterministic_delta_count"] else 0


def _dashboard(args: argparse.Namespace) -> int:
    archive = _load(args.archive)
    print(render_dashboard(archive.timeseries, samples=archive.samples,
                           interval=archive.interval, width=args.width,
                           title=_title(archive)))
    return 0


def _top(args: argparse.Namespace) -> int:
    archive = _load(args.archive)
    if archive.accounting is None:
        print("top: this archive has no ledger checkpoints "
              "(run with accounting enabled)", file=sys.stderr)
        return 2
    print(render_top(archive.accounting, kind=args.kind,
                     sort=args.sort, limit=args.limit,
                     title=_title(archive)))
    return 0


def _audit(args: argparse.Namespace) -> int:
    if os.path.isfile(args.scenario):
        return _audit_archive(args.scenario)
    # imported lazily: repro.core pulls in the whole stack, which the
    # archive verbs of this CLI don't need
    from repro.core.scenarios import build
    from repro.obs.export import dump_observability

    name = f"audit_{args.scenario}"
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = args.out_dir or tmp
        try:
            run = build(args.scenario, faults=args.faults,
                        fault_seed=args.fault_seed, accounting=True,
                        stream=os.path.join(out_dir, f"obs_{name}.jsonl"))
        except ValueError as exc:
            print(f"audit: {exc}", file=sys.stderr)
            return 2
        run.run_to_horizon()
        (path,) = dump_observability(run.mits, name, out_dir)
        return _audit_archive(path)


def _audit_archive(path: str) -> int:
    """Render the audit verdict embedded in an archive."""
    archive = _load(path)
    audit = archive.summary.get("audit")
    if audit is None:
        # every finished run writes its audit into the fin record
        why = ("its fin record has none" if archive.summary
               else "no fin record: the run did not finish")
        print(f"audit: {path} carries no audit block ({why})",
              file=sys.stderr)
        return 2
    violations = audit.get("violations", [])
    print(f"== audit: {archive.name or path} @ "
          f"t={archive.summary.get('sim_time', 0.0):.1f}s ==")
    print(f"  {audit.get('checks', 0)} invariant checks, "
          f"{len(violations)} violations")
    for v in violations:
        print(f"  VIOLATION {Violation(**v)}")
    return 1 if violations else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render MITS observability archives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="metrics + SLOs + traces")
    p_report.add_argument("archive", help="obs_*.jsonl archive")
    p_report.add_argument("--top", type=_positive_int, default=10,
                          help="slow spans to list")
    p_report.add_argument("--strict", action="store_true",
                          help="exit 1 on SLO violations")
    p_report.set_defaults(func=_report)

    p_crit = sub.add_parser(
        "critical", help="critical-path analysis + attribution")
    p_crit.add_argument("archive", help="obs_*.jsonl archive")
    p_crit.add_argument("--trace", type=int, default=None, metavar="ID",
                        help="analyse one trace id")
    p_crit.add_argument("--p99", action="store_true",
                        help="analyse every tail exemplar (root "
                        "duration at/above the p99)")
    p_crit.add_argument("--top", type=_positive_int, default=10,
                        help="attribution rows per table")
    p_crit.set_defaults(func=_critical)

    p_diff = sub.add_parser(
        "diff", help="differential comparison of two archived runs")
    p_diff.add_argument("run_a", help="baseline archive (obs_*.jsonl "
                        "or BENCH_*.json)")
    p_diff.add_argument("run_b", help="candidate archive")
    p_diff.add_argument("--top", type=_positive_int, default=10,
                        help="rows per section")
    p_diff.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable diff "
                        "payload here")
    p_diff.set_defaults(func=_diff)

    p_dash = sub.add_parser(
        "dashboard", help="sparkline panels over telemetry")
    p_dash.add_argument("archive", help="obs_*.jsonl archive")
    p_dash.add_argument("--width", type=_positive_int, default=60,
                        help="sparkline width in characters")
    p_dash.set_defaults(func=_dashboard)

    p_top = sub.add_parser(
        "top", help="per-entity accounting tables (VCs, sites, streams)")
    p_top.add_argument("archive", help="obs_*.jsonl archive")
    p_top.add_argument("--sort", choices=SORT_COLUMNS, default="bytes",
                       help="column to sort by (default: bytes)")
    p_top.add_argument("--kind", default=None,
                       help="show one entity kind only "
                       "(vc/site/stream/link/trace)")
    p_top.add_argument("--limit", type=_positive_int, default=20,
                       help="rows per table")
    p_top.set_defaults(func=_top)

    p_audit = sub.add_parser(
        "audit", help="conservation-audit verdict of an archive, or of "
        "a scenario run into one")
    p_audit.add_argument("scenario",
                         help="an obs_*.jsonl archive, or a scenario name "
                         "(see repro.core.scenarios) to run and archive")
    p_audit.add_argument("--faults", metavar="PLAN",
                         help="arm a named fault plan on the scenario")
    p_audit.add_argument("--fault-seed", type=int, default=None)
    p_audit.add_argument("--out-dir", default=None,
                         help="keep the scenario's archive here "
                         "(obs_audit_<SCENARIO>.jsonl)")
    p_audit.set_defaults(func=_audit)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
