"""Command-line entry points.

Six commands are installed by the package:

* ``repro-gen`` — synthesize a server trace and write it to CSV/JSONL;
* ``repro-sim`` — replay a trace file through one algorithm
  (``--telemetry out.jsonl`` exports structured run telemetry);
* ``repro-experiment`` — run the paper-figure experiments;
* ``repro-validate`` — validate (and optionally repair) a trace file;
* ``repro-verify`` — differentially verify the fast cache
  implementations against their reference oracles on adversarial
  fuzz traces (see :mod:`repro.verify`);
* ``repro-report`` — render and compare telemetry JSONL exports
  (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.tables import format_table
from repro.experiments import ALL_FIGURES, scale_from_env
from repro.sim.engine import replay
from repro.sim.runner import CACHE_FACTORIES, build_cache
from repro.trace.io import (
    read_trace_csv,
    read_trace_jsonl,
    write_trace_csv,
    write_trace_jsonl,
)
from repro.trace.stats import TraceStats
from repro.workload.generator import TraceGenerator
from repro.workload.servers import SERVER_PROFILES

__all__ = [
    "main_gen",
    "main_sim",
    "main_experiment",
    "main_validate",
    "main_verify",
    "main_report",
]


def _read_trace(path: str):
    if ".jsonl" in path:
        return read_trace_jsonl(path)
    return read_trace_csv(path)


def main_gen(argv: Optional[Sequence[str]] = None) -> int:
    """Generate a synthetic server trace."""
    parser = argparse.ArgumentParser(
        prog="repro-gen", description=main_gen.__doc__
    )
    parser.add_argument(
        "--server",
        choices=sorted(SERVER_PROFILES),
        default="europe",
        help="regional server profile",
    )
    parser.add_argument("--days", type=float, default=30.0, help="trace length")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on catalog size and session volume",
    )
    parser.add_argument("--seed", type=int, default=None, help="override profile seed")
    parser.add_argument(
        "--stats", action="store_true", help="print trace statistics after writing"
    )
    parser.add_argument("output", help="output path (.csv/.jsonl, .gz ok)")
    args = parser.parse_args(argv)

    profile = SERVER_PROFILES[args.server].scaled(args.scale)
    trace = TraceGenerator(profile, seed=args.seed).generate(days=args.days)
    if ".jsonl" in args.output:
        count = write_trace_jsonl(args.output, trace)
    else:
        count = write_trace_csv(args.output, trace)
    print(f"wrote {count} requests to {args.output}")
    if args.stats:
        stats = TraceStats.from_requests(trace)
        for key, value in stats.summary().items():
            print(f"  {key}: {value}")
    return 0


def _profiled(top_n, fn):
    """Run ``fn()``, under cProfile when ``top_n`` is not None.

    Shared by the single-cache and fleet lanes of ``repro-sim`` so
    ``--profile`` attributes time in whichever replay actually ran.
    """
    if top_n is None:
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top_n)
    return result


def _sim_fleet(args, requests, progress) -> int:
    """Replay ``requests`` through the packed-batched fleet lane.

    The trace is sharded round-robin across ``args.fleet_edges`` edge
    caches (a subsequence of a time-ordered trace stays time-ordered)
    behind one parent sized to the aggregate edge capacity, and the
    whole fleet replays through ``CdnSimulator``'s batched packed
    path — the lane ``--profile`` previously could not reach.
    """
    from repro.cdn.multiserver import CdnSimulator
    from repro.cdn.topology import hierarchy
    from repro.trace.columnar import pack_trace
    from repro.trace.fleet import FleetTrace

    edges = args.fleet_edges
    names = [f"edge{i:02d}" for i in range(edges)]
    split: dict = {name: [] for name in names}
    for i, request in enumerate(requests):
        split[names[i % edges]].append(request)
    fleet = FleetTrace(
        {name: pack_trace(shard) for name, shard in split.items()},
        validate=False,
    )

    edge_caches = {
        name: build_cache(args.algorithm, args.disk_chunks, alpha_f2r=args.alpha)
        for name in names
    }
    parent = build_cache(
        args.algorithm, args.disk_chunks * edges, alpha_f2r=args.alpha
    )
    simulator = CdnSimulator(hierarchy(edge_caches, parent))
    result = _profiled(args.profile, lambda: simulator.run(
        fleet, interval=args.interval, progress=progress,
    ))

    rows = []
    for name in [*names, "parent"]:
        summary = result.summary(name)
        rows.append(
            {"server": name, "efficiency": summary.efficiency,
             "redirect_ratio": summary.redirect_ratio,
             "ingress_fraction": summary.ingress_fraction,
             "requests": summary.num_requests}
        )
    title = (
        f"fleet: {edges} x {args.algorithm}({args.disk_chunks}) -> "
        f"parent {args.algorithm}({args.disk_chunks * edges})"
    )
    print(format_table(rows, title=title))
    print(
        f"origin offload: {result.origin_offload:.4f} "
        f"({result.num_user_requests} user requests, "
        f"{result.origin_requests} ended at origin)"
    )
    if result.report is not None:
        print(result.report.describe())
        for stage in result.report.stages:
            rate = f", {stage.rate:,.0f} items/s" if stage.rate else ""
            print(f"  {stage.name}: {stage.seconds:.3f}s{rate}")
    return 0


def main_sim(argv: Optional[Sequence[str]] = None) -> int:
    """Replay a trace file through one caching algorithm."""
    parser = argparse.ArgumentParser(prog="repro-sim", description=main_sim.__doc__)
    parser.add_argument("trace", help="trace file from repro-gen")
    parser.add_argument(
        "--algorithm",
        choices=sorted(CACHE_FACTORIES),
        default="Cafe",
    )
    parser.add_argument(
        "--disk-chunks", type=int, required=True, help="disk size in chunks"
    )
    parser.add_argument("--alpha", type=float, default=1.0, help="alpha_F2R")
    parser.add_argument(
        "--interval", type=float, default=3600.0, help="metrics bucket seconds"
    )
    parser.add_argument(
        "--series", action="store_true", help="also print the hourly time series"
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print replay progress to stderr while running",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "wrap the cache in an invariant-auditing proxy "
            "(capacity, fill/eviction accounting, redirect purity); "
            "exits non-zero on any violation"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        default=None,
        type=int,
        metavar="N",
        help=(
            "run the replay under cProfile and print the top-N functions "
            "by cumulative time (default N=25)"
        ),
    )
    parser.add_argument(
        "--fleet-edges",
        type=int,
        default=None,
        metavar="N",
        help=(
            "replay through the packed-batched fleet lane instead of "
            "the single-cache engine: the trace is sharded round-robin "
            "across N edge caches (each --disk-chunks large) behind a "
            "parent of the same algorithm sized N*--disk-chunks; "
            "combine with --profile to attribute time inside the "
            "batched fleet replay"
        ),
    )
    parser.add_argument(
        "--telemetry",
        metavar="OUT",
        default=None,
        help=(
            "export structured run telemetry (cache probes, periodic "
            "snapshots, events) as JSONL to OUT (.gz ok); read it back "
            "with repro-report"
        ),
    )
    parser.add_argument(
        "--no-probes",
        action="store_true",
        help="with --telemetry: skip cache-internals probes "
        "(snapshots and traffic summaries only)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        metavar="N",
        help="with --telemetry: requests between lane snapshots "
        "(0 disables sampling)",
    )
    args = parser.parse_args(argv)

    telemetry = None
    if args.telemetry is not None:
        from repro.obs import Telemetry, TelemetryOptions
        from repro.obs.telemetry import DEFAULT_SNAPSHOT_EVERY

        options = TelemetryOptions(
            probes=not args.no_probes,
            snapshot_every=(
                args.snapshot_every
                if args.snapshot_every is not None
                else DEFAULT_SNAPSHOT_EVERY
            ),
        )
        telemetry = Telemetry(options)
    elif args.no_probes or args.snapshot_every is not None:
        parser.error("--no-probes/--snapshot-every require --telemetry")

    if args.fleet_edges is not None:
        if args.fleet_edges < 1:
            parser.error("--fleet-edges must be >= 1")
        if args.telemetry or args.audit or args.series:
            parser.error(
                "--fleet-edges replays the multi-server lane and does "
                "not combine with --telemetry/--audit/--series"
            )

    requests = list(_read_trace(args.trace))

    progress = None
    if args.progress:

        def progress(done, total, elapsed):
            where = f"{done}/{total}" if total is not None else str(done)
            print(f"  replayed {where} requests in {elapsed:.1f}s", file=sys.stderr)

    if args.fleet_edges is not None:
        return _sim_fleet(args, requests, progress)

    cache = build_cache(args.algorithm, args.disk_chunks, alpha_f2r=args.alpha)
    audited = None
    if args.audit:
        from repro.verify.audit import AuditedCache

        audited = AuditedCache(cache, strict=False)
        cache = audited

    result = _profiled(args.profile, lambda: replay(
        cache, requests, interval=args.interval, progress=progress,
        telemetry=telemetry, label=args.algorithm,
    ))
    steady = result.steady
    totals = result.totals
    rows = [
        {"window": "steady (2nd half)", "efficiency": steady.efficiency,
         "redirect_ratio": steady.redirect_ratio,
         "ingress_fraction": steady.ingress_fraction,
         "requests": steady.num_requests},
        {"window": "whole trace", "efficiency": totals.efficiency,
         "redirect_ratio": totals.redirect_ratio,
         "ingress_fraction": totals.ingress_fraction,
         "requests": totals.num_requests},
    ]
    print(format_table(rows, title=cache.describe()))
    if result.report is not None:
        print(result.report.describe())
        for stage in result.report.stages:
            rate = f", {stage.rate:,.0f} items/s" if stage.rate else ""
            print(f"  {stage.name}: {stage.seconds:.3f}s{rate}")
    if args.series:
        srows = [
            {
                "t_hours": s.t_start / 3600.0,
                "efficiency": s.summary.efficiency,
                "redirect_ratio": s.summary.redirect_ratio,
                "ingress_fraction": s.summary.ingress_fraction,
            }
            for s in result.metrics.series()
        ]
        print(format_table(srows, title="time series"))
    if telemetry is not None:
        from repro.obs import write_telemetry

        telemetry.meta.update(
            {
                "trace": args.trace,
                "algorithm": args.algorithm,
                "disk_chunks": args.disk_chunks,
                "alpha_f2r": args.alpha,
                "label": f"{args.algorithm} ({args.trace})",
            }
        )
        reports = [result.report] if result.report is not None else None
        count = write_telemetry(args.telemetry, telemetry, reports=reports)
        print(f"wrote {count} telemetry records to {args.telemetry}")
        print(telemetry.describe())
    if audited is not None:
        print(audited.summary())
        for violation in audited.violations[:20]:
            print(f"  {violation}")
        if len(audited.violations) > 20:
            print(f"  ... and {len(audited.violations) - 20} more")
        if not audited.ok:
            return 1
    return 0


def main_experiment(argv: Optional[Sequence[str]] = None) -> int:
    """Run the reproduction experiments (Figures 2-7 + extensions)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment", description=main_experiment.__doc__
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=["all"],
        help=(
            "experiment names (fig2..fig7, cdnwide, proactive, "
            "robustness, lp_tightness, availability) or 'all'"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "full", "paper"],
        default=None,
        help="experiment scale (default: REPRO_SCALE env or 'full')",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        default=None,
        help="additionally write the results as a Markdown report",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for sweep execution (sets REPRO_WORKERS; "
            "default 1 = in-process)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help=(
            "persist each completed sweep group to PATH (sets "
            "REPRO_CHECKPOINT) so a killed run resumes where it stopped; "
            "delete the file to force a fresh run"
        ),
    )
    args = parser.parse_args(argv)

    import os

    if args.scale is not None:
        os.environ["REPRO_SCALE"] = args.scale
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.checkpoint is not None:
        os.environ["REPRO_CHECKPOINT"] = args.checkpoint
    scale = scale_from_env()

    names = list(ALL_FIGURES) if args.figures == ["all"] else args.figures
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}; choose from {sorted(ALL_FIGURES)}")

    print(f"scale: {scale.name} ({scale.days:g} days, x{scale.profile_scale:g} volume)")
    results = []
    for name in names:
        module = ALL_FIGURES[name]
        result = module.run(scale)
        results.append(result)
        print()
        print(result.to_text())

    if args.markdown:
        from repro.analysis.report import render_report

        preamble = (
            f"Scale: **{scale.name}** ({scale.days:g} days, "
            f"x{scale.profile_scale:g} volume). See EXPERIMENTS.md for the "
            f"paper-vs-measured interpretation of each figure."
        )
        with open(args.markdown, "w") as fh:
            fh.write(render_report(results, preamble=preamble))
        print(f"\nwrote Markdown report to {args.markdown}")
    return 0


def main_validate(argv: Optional[Sequence[str]] = None) -> int:
    """Validate a trace file; optionally write a repaired copy."""
    parser = argparse.ArgumentParser(
        prog="repro-validate", description=main_validate.__doc__
    )
    parser.add_argument("trace", help="trace file (.csv/.jsonl, .gz ok)")
    parser.add_argument(
        "--repair",
        metavar="OUT",
        default=None,
        help="write a repaired (sorted, sanitized) copy to OUT",
    )
    parser.add_argument(
        "--max-issues", type=int, default=20, help="issues to print in detail"
    )
    args = parser.parse_args(argv)

    from repro.trace.validate import repair_trace, validate_trace

    requests = list(_read_trace(args.trace))
    report = validate_trace(requests)
    print(report.summary())
    for issue in report.issues[: args.max_issues]:
        print(f"  [{issue.index}] {issue.kind}: {issue.detail}")
    if len(report.issues) > args.max_issues:
        print(f"  ... and {len(report.issues) - args.max_issues} more")

    if args.repair:
        repaired = repair_trace(requests)
        if ".jsonl" in args.repair:
            count = write_trace_jsonl(args.repair, repaired)
        else:
            count = write_trace_csv(args.repair, repaired)
        print(f"wrote {count} repaired requests to {args.repair}")
        return 0
    return 0 if report.ok else 1


def main_verify(argv: Optional[Sequence[str]] = None) -> int:
    """Differentially verify fast caches against their oracles."""
    parser = argparse.ArgumentParser(
        prog="repro-verify", description=main_verify.__doc__
    )
    parser.add_argument(
        "--seeds", type=int, default=20, help="fuzz scenarios per algorithm"
    )
    parser.add_argument(
        "--requests", type=int, default=600, help="requests per fuzz trace"
    )
    parser.add_argument(
        "--algorithms",
        nargs="*",
        default=None,
        metavar="NAME",
        help="subset of online algorithms to verify (default: all with oracles)",
    )
    parser.add_argument(
        "--policies",
        action="store_true",
        help=(
            "verify every registered policy kernel (the policy registry "
            "drives the list, so new plugins are covered automatically); "
            "mutually exclusive with --algorithms"
        ),
    )
    parser.add_argument(
        "--dump-dir",
        default="verify-failures",
        help="directory for minimized counterexample artifacts",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging of failing traces (faster triage)",
    )
    parser.add_argument(
        "--replay",
        metavar="DIR",
        default=None,
        help="re-run one dumped counterexample directory and exit",
    )
    parser.add_argument(
        "--fault-seeds",
        type=int,
        default=10,
        metavar="N",
        help=(
            "fault-fuzz scenarios per algorithm: random outage/restart/"
            "degrade/brownout schedules replayed over 1-3 server "
            "topologies with audited caches (0 disables)"
        ),
    )
    args = parser.parse_args(argv)

    from repro.verify.differential import (
        KERNEL_ALGORITHMS,
        dump_counterexample,
        replay_counterexample,
        verify_algorithm,
        verify_kernel_lane,
    )
    from repro.verify.fuzz import scenario_matrix
    from repro.verify.oracles import ORACLE_FACTORIES

    if args.replay:
        result = replay_counterexample(args.replay)
        if result.ok:
            print(f"counterexample no longer reproduces: {args.replay}")
            return 0
        if result.divergence is not None:
            print(result.divergence)
        for violation in result.violations:
            print(violation)
        return 1

    if args.policies and args.algorithms:
        parser.error("--policies and --algorithms are mutually exclusive")
    if args.policies:
        from repro.core.policy import POLICY_REGISTRY

        algorithms = sorted(POLICY_REGISTRY)
    else:
        algorithms = args.algorithms or sorted(ORACLE_FACTORIES)
    unknown = [a for a in algorithms if a not in ORACLE_FACTORIES]
    if unknown:
        parser.error(
            f"no oracle for: {unknown}; choose from {sorted(ORACLE_FACTORIES)}"
        )

    scenarios = list(scenario_matrix(seeds=args.seeds, num_requests=args.requests))
    failures = 0
    rows = []
    for algorithm in algorithms:
        diverged = 0
        violated = 0
        for scenario in scenarios:
            result, minimal = verify_algorithm(
                algorithm, scenario, shrink=not args.no_shrink
            )
            if result.ok:
                continue
            failures += 1
            if result.divergence is not None:
                diverged += 1
            if result.violations:
                violated += 1
            trace = minimal if minimal is not None else scenario.trace()
            path = dump_counterexample(
                args.dump_dir, algorithm, scenario, result, trace
            )
            print(f"FAIL {algorithm} on {scenario.label}:")
            if result.divergence is not None:
                print(f"  {result.divergence}")
            for violation in result.violations[:5]:
                print(f"  {violation}")
            print(f"  minimized to {len(trace)} requests -> {path}")
        rows.append(
            {
                "algorithm": algorithm,
                "scenarios": len(scenarios),
                "divergences": diverged,
                "violations": violated,
                "status": "ok" if diverged == 0 and violated == 0 else "FAIL",
            }
        )
    print(format_table(rows, title=f"differential verification ({args.requests} req/trace)"))

    # Kernel-lane equivalence: replay the same adversarial scenarios
    # through each cache's block entry against the per-request
    # reference walk (responses, miss lists, occupancy, metric totals).
    kernel_failures = 0
    kernel_algorithms = [a for a in algorithms if a in KERNEL_ALGORITHMS]
    if kernel_algorithms:
        kernel_rows = []
        for algorithm in kernel_algorithms:
            bad = 0
            for scenario in scenarios:
                result = verify_kernel_lane(algorithm, scenario)
                if not result.ok:
                    kernel_failures += 1
                    bad += 1
                    print(f"KERNEL-FAIL {algorithm} on {scenario.label}:")
                    print(f"  {result.divergence}")
            kernel_rows.append(
                {
                    "algorithm": algorithm,
                    "scenarios": len(scenarios),
                    "divergences": bad,
                    "status": "ok" if bad == 0 else "FAIL",
                }
            )
        print(
            format_table(
                kernel_rows,
                title="kernel-lane equivalence (block walk vs per-request)",
            )
        )

    fault_failures = 0
    if args.fault_seeds > 0:
        from repro.verify.faultcheck import DEFAULT_ALGORITHMS, run_fault_fuzz

        fault_algorithms = tuple(
            a for a in algorithms if a in DEFAULT_ALGORITHMS
        ) or DEFAULT_ALGORITHMS
        outcomes = run_fault_fuzz(
            seeds=args.fault_seeds,
            algorithms=fault_algorithms,
            num_requests=args.requests,
        )
        fault_rows = []
        for algorithm in fault_algorithms:
            mine = [o for o in outcomes if o.scenario.algorithm == algorithm]
            bad = [o for o in mine if not o.ok]
            fault_failures += len(bad)
            for outcome in bad:
                print(f"FAULT-FAIL {outcome.scenario.label}:")
                for issue in outcome.issues[:5]:
                    print(f"  {issue}")
                for violation in outcome.violations[:5]:
                    print(f"  {violation}")
            fault_rows.append(
                {
                    "algorithm": algorithm,
                    "scenarios": len(mine),
                    "lost_requests": sum(o.requests_lost for o in mine),
                    "restarts": sum(o.restarts for o in mine),
                    "status": "ok" if not bad else "FAIL",
                }
            )
        print(
            format_table(
                fault_rows,
                title=f"fault fuzzing ({args.fault_seeds} schedules/algorithm)",
            )
        )

    if failures or fault_failures or kernel_failures:
        if failures:
            print(f"{failures} failing case(s); artifacts under {args.dump_dir}/")
        if kernel_failures:
            print(f"{kernel_failures} failing kernel-lane case(s)")
        if fault_failures:
            print(f"{fault_failures} failing fault scenario(s)")
        return 1
    print("all algorithms match their oracles")
    return 0


def main_report(argv: Optional[Sequence[str]] = None) -> int:
    """Render and compare telemetry JSONL exports (repro-report)."""
    from repro.obs.report import main

    return main(argv)


def main_serve(argv: Optional[Sequence[str]] = None) -> int:
    """Run the live decision daemon (repro-serve)."""
    from repro.serve.cli import main

    return main(argv)


def _dispatch() -> int:  # pragma: no cover - convenience for python -m
    prog = sys.argv[1] if len(sys.argv) > 1 else ""
    mains = {
        "gen": main_gen,
        "sim": main_sim,
        "experiment": main_experiment,
        "validate": main_validate,
        "verify": main_verify,
        "report": main_report,
        "serve": main_serve,
    }
    if prog not in mains:
        print(
            "usage: python -m repro.cli "
            "{gen|sim|experiment|validate|verify|report|serve} ...",
            file=sys.stderr,
        )
        return 2
    return mains[prog](sys.argv[2:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_dispatch())
