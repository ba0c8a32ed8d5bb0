"""``python -m repro.obs`` — render metrics/trace/timeseries dumps.

Subcommands::

    report <metrics.json> [--trace trace.jsonl] [--top N] [--strict]
        Metrics summary + telemetry health + SLO table + span
        waterfalls.  The trace sidecar is auto-discovered next to
        ``metrics_<name>.json`` when not given.  ``--strict`` exits 1
        on SLO violations.

    trace <trace.jsonl> [--top N]
        Span waterfalls / slow-span table only.

    critical <archive> [--trace ID | --p99] [--top N]
        Critical-path analysis: the longest blocking chain through a
        trace's span tree, with per-span self-time and slack, plus
        attribution tables by component and span kind.  The archive is
        a ``trace_*.jsonl``, a streamed ``obs_*.jsonl``, or a
        ``metrics_*.json`` (trace sidecar auto-discovered).  Default
        renders the longest trace; ``--p99`` renders every tail
        exemplar (root duration at/above the p99); ``--trace ID``
        renders one trace.

    diff <run_a> <run_b> [--top N] [--json PATH]
        Differential comparison of two archived runs: bench vector,
        ranked time attribution (span kinds, critical-path components,
        profiler callsites), SLO verdict transitions, per-instrument
        metric movements, ledger top-account shifts.  Accepts
        ``metrics_*.json`` (sidecars auto-discovered), ``obs_*.jsonl``
        and ``BENCH_*.json`` archives on either side.  Exits 1 when
        any *deterministic* delta is present (wall-clock sections
        never count), so same-seed runs assert reproducibility in CI.

    slo <metrics.json>
        SLO table only; exits 1 on violations.

    dashboard [timeseries.json] [--live SCENARIO] [--follow] ...
        Sparkline panels (link queues, windows, player buffers, event
        rates) plus the event-loop profiler's top-N.  Reads an archived
        ``timeseries_<scenario>.json`` sidecar, or with ``--live`` runs
        a named scenario (see ``repro.core.scenarios``) and renders it
        — one-shot at the horizon, or as a refresh loop with
        ``--follow``.

    top [accounting.json] [--live SCENARIO] [--sort COL] [--kind K]
        Per-entity accounting tables (per VC, site, stream, link,
        trace): cells, bytes, drops, queue residency, bandwidth share.
        Reads an archived ``accounting_<scenario>.json`` sidecar, or
        with ``--live`` runs a named scenario with the ledger enabled.

    audit SCENARIO|merged.json [--faults PLAN] [--out-dir DIR]
        Run a named scenario with accounting enabled, then cross-check
        every live counter against the flow-conservation invariants.
        Prints violations (exit 1 when any) and optionally dumps the
        full sidecar set for the run.  Given a merged archive path
        instead of a scenario name, renders its embedded (merged)
        audit verdict.

    merge <archive...> -o merged.json [--name NAME]
        Deterministic, order-insensitive merge of N run archives
        (``obs_*.jsonl`` streams, ``metrics_*.json`` dumps with their
        sidecars, or previously merged archives) into one merged
        archive: counters sum, histograms bucket-add, gauges resolve
        by latest sim time with per-shard provenance, trace forests
        get disjoint ids, series tick-align, ledgers merge exactly or
        sketch-wise with propagated error bounds, and SLOs are
        re-judged over the merged registry.  Every renderer above
        accepts the result (see ``repro.obs.merge``).

``report``, ``trace``, ``dashboard``, and ``top`` all additionally
accept a streamed ``obs_<name>.jsonl`` sidecar (see
``repro.obs.sink``) in place of the legacy monolithic dumps — the file
is sniffed by its first-line ``meta`` record.  Live modes take
``--sample RATE`` (with ``--reservoir`` / ``--top-k``) to run under a
bounded-memory sampling policy.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.obs.accounting import (
    SORT_COLUMNS,
    load_accounting_file,
    render_top,
)
from repro.obs.dashboard import (
    load_timeseries_file,
    render_dashboard,
    render_profile,
)
from repro.obs.report import (
    find_timeseries_sidecar,
    find_trace_sidecar,
    load_metrics_file,
    load_trace_file,
    render_metrics_summary,
    render_overhead,
    render_slo_table,
    render_telemetry_health,
    render_traces,
)
from repro.obs.sink import is_obs_sidecar, load_obs_sidecar
from repro.obs.slo import SloMonitor


def _sampling_policy(args: argparse.Namespace):
    """Build the --sample preset policy for live modes, or None."""
    if getattr(args, "sample", None) is None:
        return None
    from repro.obs.sampling import scaled_policy
    return scaled_policy(args.sample, reservoir=args.reservoir,
                         top_k=args.top_k)


def _add_sample_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sample", type=float, default=None,
                        metavar="RATE",
                        help="bounded-memory live mode: keep RATE of "
                        "the traces, reservoir-bound spans/events, "
                        "top-K accounting")
    parser.add_argument("--reservoir", type=int, default=512,
                        help="reservoir size used with --sample")
    parser.add_argument("--top-k", type=int, default=32, dest="top_k",
                        help="accounts kept per kind with --sample")


def _report(args: argparse.Namespace) -> int:
    spans = events = None
    merged_shards = None
    incomplete = None
    if is_obs_sidecar(args.metrics):
        payload = load_obs_sidecar(args.metrics)
        if not payload["complete"]:
            incomplete = (f"!! incomplete archive: {payload['records']} "
                          f"records recovered")
            if payload["torn"]:
                incomplete += ", torn final line skipped"
            if not payload["meta"]:
                incomplete += ", no fin record (run did not finish)"
        meta = {k: v for k, v in payload["meta"].items()
                if k != "metrics"}
        meta.setdefault("name", payload["name"])
        metrics = payload["meta"].get("metrics", {})
        spans, events = payload["spans"], payload["events"]
    else:
        meta, metrics = load_metrics_file(args.metrics)
        if meta.get("merged"):
            # merged archives embed their traces and carry per-shard
            # provenance; render both inline
            spans = meta.get("spans") or []
            events = meta.get("events") or []
            merged_shards = meta.get("shards") or []
    title = meta.get("name") or args.metrics
    header = f"== scenario: {title} =="
    if "sim_time" in meta:
        header += f"  (sim_time {meta['sim_time']:.3f}s," \
                  f" {meta.get('events_run', '?')} events)"
    print(header)
    if incomplete is not None:
        print(incomplete)
    if merged_shards is not None:
        print(f"   merged from {len(merged_shards)} shard(s):")
        for s in merged_shards:
            line = (f"     - {s.get('name')}: "
                    f"sim_time {s.get('sim_time', 0.0):.3f}s, "
                    f"{s.get('events_run', 0)} events, "
                    f"{s.get('spans', 0)} spans")
            extras = []
            if s.get("wall_seconds") is not None:
                extras.append(f"wall {s['wall_seconds']:.2f}s")
            if s.get("peak_rss_kb") is not None:
                extras.append(f"peak rss {s['peak_rss_kb']} KiB")
            if s.get("obs_overhead_pct") is not None:
                extras.append(f"obs {s['obs_overhead_pct']:.1f}%")
            if extras:
                line += "  (" + ", ".join(extras) + ")"
            print(line)
    print()
    print(render_metrics_summary(metrics))
    if "telemetry" in meta:
        print()
        print(render_telemetry_health(meta["telemetry"]))
    if "overhead" in meta:
        print()
        print(render_overhead(meta["overhead"]))
    print()
    results = SloMonitor().evaluate(metrics)
    print(render_slo_table(results))
    if spans is not None:
        print()
        print(f"== traces: {args.metrics} ==")
        print(render_traces(spans, events, top=args.top))
    else:
        trace_path = args.trace or find_trace_sidecar(args.metrics)
        if trace_path:
            spans, events = load_trace_file(trace_path)
            print()
            print(f"== traces: {trace_path} ==")
            print(render_traces(spans, events, top=args.top))
        ts_path = find_timeseries_sidecar(args.metrics)
        if ts_path:
            print()
            print(f"(time-series sidecar: render with "
                  f"`python -m repro.obs dashboard {ts_path}`)")
    if spans:
        from repro.obs.critical import render_attribution
        print()
        print(render_attribution(spans, top=args.top))
    if args.strict and not all(r.ok for r in results):
        return 1
    return 0


def _trace(args: argparse.Namespace) -> int:
    if is_obs_sidecar(args.trace):
        payload = load_obs_sidecar(args.trace)
        spans, events = payload["spans"], payload["events"]
    else:
        spans, events = load_trace_file(args.trace)
    print(render_traces(spans, events, top=args.top))
    return 0


def _load_spans(path: str):
    """Spans from any archive shape the CLI accepts."""
    if is_obs_sidecar(path):
        return load_obs_sidecar(path)["spans"]
    if path.endswith(".jsonl"):
        spans, _ = load_trace_file(path)
        return spans
    from repro.obs.merge import is_merged_archive
    if is_merged_archive(path):
        import json
        with open(path) as fh:
            return json.load(fh).get("spans") or []
    trace_path = find_trace_sidecar(path)
    if trace_path is None:
        raise SystemExit(f"critical: no trace sidecar found next to "
                         f"{path} — pass the trace_*.jsonl directly")
    spans, _ = load_trace_file(trace_path)
    return spans


def _critical(args: argparse.Namespace) -> int:
    from repro.obs.critical import (
        group_by_trace,
        render_attribution,
        render_critical_path,
        select_traces,
    )

    spans = _load_spans(args.archive)
    if not spans:
        print("(no spans in this archive)")
        return 1
    trace_ids = select_traces(spans, trace_id=args.trace, tail=args.p99)
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
        load_run,
        render_diff_report,
        write_diff,
    )

    payload = diff_runs(load_run(args.run_a), load_run(args.run_b),
                        top=args.top)
    print(render_diff_report(payload, top=args.top))
    if args.json:
        out_dir, base = os.path.split(os.path.abspath(args.json))
        name = base[len("diff_"):-len(".json")] \
            if base.startswith("diff_") and base.endswith(".json") \
            else os.path.splitext(base)[0]
        path = write_diff(payload, out_dir, name)
        print(f"\nwrote {path}")
    return 1 if payload["deterministic_delta_count"] else 0


def _slo(args: argparse.Namespace) -> int:
    _, metrics = load_metrics_file(args.metrics)
    results = SloMonitor().evaluate(metrics)
    print(render_slo_table(results))
    return 0 if all(r.ok for r in results) else 1


def _dashboard(args: argparse.Namespace) -> int:
    if args.timeseries is None and args.live is None:
        print("dashboard: give a timeseries_*.json path or --live "
              "<scenario>", file=sys.stderr)
        return 2
    if args.timeseries is not None:
        if is_obs_sidecar(args.timeseries):
            sidecar = load_obs_sidecar(args.timeseries)
            payload = sidecar["timeseries"]
            title = sidecar["name"] or args.timeseries
        else:
            payload = load_timeseries_file(args.timeseries)
            title = payload.get("name") or args.timeseries
        print(render_dashboard(
            payload, profile=payload.get("profile"), width=args.width,
            top=args.top, title=title))
        return 0
    return _live_dashboard(args)


def _live_dashboard(args: argparse.Namespace) -> int:
    # imported lazily: repro.core pulls in the whole stack, which the
    # archived-file paths of this CLI don't need
    from repro.core.scenarios import build

    run = build(args.live, profile=not args.no_profile,
                telemetry_interval=args.interval,
                sampling=_sampling_policy(args),
                faults=args.faults, fault_seed=args.fault_seed)
    mits, sim = run.mits, run.mits.sim
    if run.injector is not None:
        plan = run.injector.plan
        print(f"(fault plan {plan.name!r} armed, seed {plan.seed})",
              flush=True)
    if args.follow:
        while sim.now < run.horizon and sim.pending():
            sim.run(until=min(sim.now + args.slice, run.horizon))
            frame = render_dashboard(
                mits.sampler, profile=mits.profiler.snapshot(args.top),
                width=args.width, top=args.top,
                title=f"{run.name} (live, t={sim.now:.1f}s)")
            print("\x1b[2J\x1b[H" + frame, flush=True)
    else:
        run.run_to_horizon()
    mits.sampler.sample()
    print(render_dashboard(
        mits.sampler, profile=mits.profiler.snapshot(args.top),
        width=args.width, top=args.top,
        title=f"{run.name} @ t={sim.now:.1f}s"))
    print()
    print(render_telemetry_health(_health(mits)))
    return 0


def _health(mits) -> dict:
    from repro.obs.export import telemetry_health
    return telemetry_health(mits)


def _top(args: argparse.Namespace) -> int:
    if args.accounting is None and args.live is None:
        print("top: give an accounting_*.json path or --live <scenario>",
              file=sys.stderr)
        return 2
    if args.accounting is not None:
        if is_obs_sidecar(args.accounting):
            sidecar = load_obs_sidecar(args.accounting)
            payload = sidecar["accounting"]
            if payload is None:
                print("top: this obs stream has no ledger checkpoints "
                      "(run with accounting enabled)", file=sys.stderr)
                return 2
            title = sidecar["name"] or args.accounting
        else:
            payload = load_accounting_file(args.accounting)
            title = payload.get("name") or args.accounting
        print(render_top(payload, kind=args.kind, sort=args.sort,
                         limit=args.limit, title=title))
        return 0
    # imported lazily: repro.core pulls in the whole stack, which the
    # archived-file path of this CLI doesn't need
    from repro.core.scenarios import build

    run = build(args.live, accounting=True,
                sampling=_sampling_policy(args),
                faults=args.faults, fault_seed=args.fault_seed)
    run.run_to_horizon()
    sim = run.mits.sim
    payload = sim.ledger.snapshot(sim_time=sim.now)
    print(render_top(payload, kind=args.kind, sort=args.sort,
                     limit=args.limit,
                     title=f"{run.name} @ t={sim.now:.1f}s"))
    return 0


def _audit(args: argparse.Namespace) -> int:
    if os.path.isfile(args.scenario):
        return _audit_archive(args.scenario)

    from repro.core.scenarios import build
    from repro.obs.audit import ConservationAuditor

    run = build(args.scenario, accounting=True,
                faults=args.faults, fault_seed=args.fault_seed)
    run.run_to_horizon()
    auditor = ConservationAuditor(run.mits)
    violations = auditor.check()
    print(f"== audit: {run.name} @ t={run.mits.sim.now:.1f}s ==")
    print(f"  {auditor.checks} invariant checks, "
          f"{len(violations)} violations")
    for v in violations:
        print(f"  VIOLATION {v}")
    if args.out_dir:
        from repro.obs.export import dump_observability
        for path in dump_observability(run.mits, f"audit_{args.scenario}",
                                       args.out_dir):
            print(f"  wrote {path}")
    return 1 if violations else 0


def _audit_archive(path: str) -> int:
    """Render the audit verdict embedded in an archive (merged fleet
    archives and monolithic metrics dumps alike)."""
    import json

    if is_obs_sidecar(path):
        payload = load_obs_sidecar(path)
        audit = payload["meta"].get("audit")
        name = payload["name"] or path
        sim_time = payload["meta"].get("sim_time", 0.0)
    else:
        with open(path) as fh:
            payload = json.load(fh)
        audit = payload.get("audit")
        name = payload.get("name") or path
        sim_time = payload.get("sim_time", 0.0)
    if audit is None:
        print(f"audit: {path} carries no audit block (run the "
              f"scenario with accounting enabled)", file=sys.stderr)
        return 2
    violations = audit.get("violations", [])
    scope = "merged " if payload.get("merged") else ""
    print(f"== {scope}audit: {name} @ t={sim_time:.1f}s ==")
    print(f"  {audit.get('checks', 0)} invariant checks, "
          f"{len(violations)} violations")
    for v in violations:
        print(f"  VIOLATION {v}")
    return 1 if violations else 0


def _merge(args: argparse.Namespace) -> int:
    from repro.obs.merge import load_shard, merge_archives, write_merged

    shards = [load_shard(path) for path in args.archives]
    merged = merge_archives(shards, name=args.name)
    path = write_merged(merged, args.output)
    prov = merged.get("provenance", {})
    print(f"merged {len(shards)} shard(s) -> {path}")
    print(f"  sim_time {merged['sim_time']:.3f}s, "
          f"{merged['events_run']} events, "
          f"{len(merged.get('spans') or [])} spans, "
          f"{len(merged.get('events') or [])} flight events")
    if prov.get("trace_id_remaps") or prov.get("span_id_remaps"):
        print(f"  remapped {prov.get('trace_id_remaps', 0)} colliding "
              f"trace id(s), {prov.get('span_id_remaps', 0)} span id(s)")
    slo = merged.get("slo") or {}
    audit = merged.get("audit")
    verdict = f"  slo verdict: {slo.get('verdict', '?')}"
    if audit is not None:
        verdict += (f"; audit: {audit.get('checks', 0)} checks, "
                    f"{len(audit.get('violations', []))} violations")
    print(verdict)
    if args.strict and (not slo.get("pass", True)
                        or (audit is not None and not audit.get("ok"))):
        return 1
    return 0


def _profile_cmd(args: argparse.Namespace) -> int:
    """Render the profile block embedded in a metrics/timeseries dump."""
    meta, _ = load_metrics_file(args.metrics)
    profile = meta.get("profile")
    if not profile:
        print("(no profile section in this dump — rerun the scenario "
              "with profiling enabled)")
        return 1
    print(render_profile(profile, top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render MITS observability dumps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="metrics + SLOs + traces")
    p_report.add_argument("metrics", help="metrics_<scenario>.json")
    p_report.add_argument("--trace", help="trace_<scenario>.jsonl "
                          "(auto-discovered when omitted)")
    p_report.add_argument("--top", type=int, default=10,
                          help="slow spans to list")
    p_report.add_argument("--strict", action="store_true",
                          help="exit 1 on SLO violations")
    p_report.set_defaults(func=_report)

    p_trace = sub.add_parser("trace", help="span waterfalls only")
    p_trace.add_argument("trace", help="trace_<scenario>.jsonl")
    p_trace.add_argument("--top", type=int, default=10)
    p_trace.set_defaults(func=_trace)

    p_crit = sub.add_parser(
        "critical", help="critical-path analysis + attribution")
    p_crit.add_argument("archive", help="trace_*.jsonl, obs_*.jsonl, "
                        "or metrics_*.json (sidecar auto-discovered)")
    p_crit.add_argument("--trace", type=int, default=None, metavar="ID",
                        help="analyse one trace id")
    p_crit.add_argument("--p99", action="store_true",
                        help="analyse every tail exemplar (root "
                        "duration at/above the p99)")
    p_crit.add_argument("--top", type=int, default=10,
                        help="attribution rows per table")
    p_crit.set_defaults(func=_critical)

    p_diff = sub.add_parser(
        "diff", help="differential comparison of two archived runs")
    p_diff.add_argument("run_a", help="baseline archive (metrics_*.json"
                        ", obs_*.jsonl, or BENCH_*.json)")
    p_diff.add_argument("run_b", help="candidate archive")
    p_diff.add_argument("--top", type=int, default=10,
                        help="rows per section")
    p_diff.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable diff "
                        "payload here")
    p_diff.set_defaults(func=_diff)

    p_slo = sub.add_parser("slo", help="SLO verdicts only")
    p_slo.add_argument("metrics", help="metrics_<scenario>.json")
    p_slo.set_defaults(func=_slo)

    p_dash = sub.add_parser(
        "dashboard", help="sparkline panels + profiler top-N")
    p_dash.add_argument("timeseries", nargs="?",
                        help="timeseries_<scenario>.json (archived mode)")
    p_dash.add_argument("--live", metavar="SCENARIO",
                        help="run a named scenario and render it "
                        "(see repro.core.scenarios)")
    p_dash.add_argument("--follow", action="store_true",
                        help="redraw every --slice simulated seconds "
                        "while the live scenario runs")
    p_dash.add_argument("--slice", type=float, default=2.0,
                        help="simulated seconds per --follow frame")
    p_dash.add_argument("--interval", type=float, default=0.25,
                        help="live sampling interval (simulated s)")
    p_dash.add_argument("--width", type=int, default=60,
                        help="sparkline width in characters")
    p_dash.add_argument("--top", type=int, default=10,
                        help="profiler hotspots to list")
    p_dash.add_argument("--no-profile", action="store_true",
                        help="skip the event-loop profiler in live mode")
    p_dash.add_argument("--faults", metavar="PLAN",
                        help="arm a named fault plan on the live "
                        "scenario (see repro.faults.PLANS)")
    p_dash.add_argument("--fault-seed", type=int, default=None,
                        help="override the fault plan's seed")
    _add_sample_flags(p_dash)
    p_dash.set_defaults(func=_dashboard)

    p_top = sub.add_parser(
        "top", help="per-entity accounting tables (VCs, sites, streams)")
    p_top.add_argument("accounting", nargs="?",
                       help="accounting_<scenario>.json (archived mode)")
    p_top.add_argument("--live", metavar="SCENARIO",
                       help="run a named scenario with the ledger "
                       "enabled and render its attribution")
    p_top.add_argument("--sort", choices=SORT_COLUMNS, default="bytes",
                       help="column to sort by (default: bytes)")
    p_top.add_argument("--kind", default=None,
                       help="show one entity kind only "
                       "(vc/site/stream/link/trace)")
    p_top.add_argument("--limit", type=int, default=20,
                       help="rows per table")
    p_top.add_argument("--faults", metavar="PLAN",
                       help="arm a named fault plan on the live scenario")
    p_top.add_argument("--fault-seed", type=int, default=None)
    _add_sample_flags(p_top)
    p_top.set_defaults(func=_top)

    p_audit = sub.add_parser(
        "audit", help="run a scenario and check conservation invariants")
    p_audit.add_argument("scenario",
                         help="scenario name (see repro.core.scenarios) "
                         "or an archive path whose embedded audit "
                         "verdict should be rendered")
    p_audit.add_argument("--faults", metavar="PLAN",
                         help="arm a named fault plan before auditing")
    p_audit.add_argument("--fault-seed", type=int, default=None)
    p_audit.add_argument("--out-dir", default=None,
                         help="also dump the full sidecar set here")
    p_audit.set_defaults(func=_audit)

    p_merge = sub.add_parser(
        "merge", help="merge N run archives into one merged archive")
    p_merge.add_argument("archives", nargs="+",
                         help="obs_*.jsonl / metrics_*.json / merged "
                         "archives to fold together")
    p_merge.add_argument("-o", "--output", required=True,
                         help="path for the merged archive")
    p_merge.add_argument("--name", default="merged",
                         help="name recorded in the merged archive")
    p_merge.add_argument("--strict", action="store_true",
                         help="exit 1 when the merged SLO verdict "
                         "fails or the merged audit has violations")
    p_merge.set_defaults(func=_merge)

    p_prof = sub.add_parser(
        "profile", help="profiler top-N from an archived dump")
    p_prof.add_argument("metrics", help="metrics_<scenario>.json with "
                        "an embedded profile section")
    p_prof.add_argument("--top", type=int, default=10)
    p_prof.set_defaults(func=_profile_cmd)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
