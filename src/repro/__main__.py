"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments``            list the available figure runners
``fig1b`` .. ``fig16``     print one figure's rows (same output as the
                           ``repro.experiments.*`` module mains)
``cluster``                serve one sharded cluster scenario: open-loop
                           traffic, consistent-hash routing with
                           replicated keys (``--replicas``), admission
                           shedding, scripted/organic failover with
                           survivor cascades (``--cascade``) and shard
                           repair (``--rejoin-at-ms``), and a
                           deterministic JSONL/CSV telemetry feed
                           (``--feed``, ``--csv``, ``--json``)
``faults``                 fault-injection / graceful-degradation sweep
                           (``--telemetry-out`` dumps the degradation
                           timeline as JSON)
``report``                 run the whole evaluation, print markdown
                           (``--workers N`` fans each section's grid
                           out across processes)
``sweep``                  run figure grids through the parallel sweep
                           runner and emit one aggregated JSON document
                           (``--workers N``, ``--figures``, ``--out``;
                           ``--journal``/``--resume`` checkpoint the run
                           so it survives crashes, ``--timeout`` /
                           ``--retries`` bound and retry stuck tasks)
``lint [paths...]``        run simlint, the AST-based invariant linter
                           (``--format json``, ``--baseline``,
                           ``--list-rules``; see DESIGN.md section 10)
``profile <trace.spc>``    characterise a (UMass SPC) disk trace
``run <trace.spc>``        replay a trace through the Flash hierarchy,
                           optionally with injected faults
                           (``--fault-rate`` / ``--fault-seed``) and/or
                           a telemetry JSON dump (``--telemetry-out``)
``stats <trace.spc>``      replay with full telemetry: latency
                           percentiles, counters, and time-series, with
                           optional JSON (``--json``) / CSV (``--csv``)
                           exports
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable

from .experiments import (
    fault_degradation,
    fig1b_gc,
    fig4_split,
    fig6_ecc,
    fig7_density,
    fig9_power,
    fig10_ecc_throughput,
    fig11_reconfig,
    fig12_lifetime,
    fig13_error_regimes,
    fig14_concurrency,
    fig15_cluster,
    fig16_availability,
)
from .experiments.report import ReportScale, generate_report
from .workloads.analysis import profile_trace
from .workloads.trace import records_from_spc_file

_FIGURES = {
    "fig1b": fig1b_gc.main,
    "fig4": fig4_split.main,
    "fig6": fig6_ecc.main,
    "fig7": fig7_density.main,
    "fig9": fig9_power.main,
    "fig10": fig10_ecc_throughput.main,
    "fig11": fig11_reconfig.main,
    "fig12": fig12_lifetime.main,
    "fig13": fig13_error_regimes.main,
    "fig14": fig14_concurrency.main,
    "fig15": fig15_cluster.main,
    "fig16": fig16_availability.main,
    "faults": fault_degradation.main,
}


def _parse_number(parse: Callable[[str], Any], text: str) -> Any:
    try:
        return parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise argparse.ArgumentTypeError(
            f"not {kind}: {text!r}") from None


def _record_limit(text: str) -> int:
    """``--limit``: a record count, 0 or more."""
    limit = _parse_number(int, text)
    if limit < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {limit}")
    return limit


def _positive_int(text: str) -> int:
    """Sizes, counts and sample intervals: 1 or more."""
    value = _parse_number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _unit_rate(text: str) -> float:
    """Per-event probabilities and bit error rates: in [0, 1]."""
    value = _parse_number(float, text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _non_negative_us(text: str) -> float:
    """A finite duration in microseconds, 0 or more."""
    value = _parse_number(float, text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative finite number, got {text}")
    return value


def _add_reliability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reliability-rate", type=_unit_rate, default=0.0,
        help="base raw bit error rate of the error-process model "
             "(0 disables; see ReliabilityConfig.uniform for the "
             "derived retention/disturb/interference rates)")
    parser.add_argument(
        "--reliability-seed", type=int, default=0,
        help="seed of the error-process model's RNG streams")
    parser.add_argument(
        "--scrub-interval", type=_non_negative_us, default=0.0,
        metavar="US",
        help="device time (us) between background retention-scrub "
             "passes (0 disables; needs --reliability-rate > 0)")


def _add_concurrency_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--queue-depth", type=_positive_int, default=1,
        help="outstanding-request window size (default 1; any value "
             "above 1 replays timing through the event-driven engine)")
    parser.add_argument(
        "--channels", type=_positive_int, default=1,
        help="NAND channels in the device fabric (default 1)")
    parser.add_argument(
        "--planes", type=_positive_int, default=1,
        help="planes per channel (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Improving NAND Flash Based Disk "
                    "Caches' (ISCA 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list figure runners")
    for name in _FIGURES:
        figure = sub.add_parser(name, help=f"regenerate {name}")
        if name == "faults":
            figure.add_argument(
                "--telemetry-out", default=None, metavar="PATH",
                help="write the degradation-timeline telemetry (time-"
                     "series + histograms) as JSON")

    report = sub.add_parser("report", help="run the full evaluation")
    report.add_argument("--scale", choices=("quick", "default", "full"),
                        default="default")
    report.add_argument("--sections", nargs="*", default=None,
                        help="subset of sections (e.g. fig4 fig12)")
    report.add_argument("--workers", type=int, default=1,
                        help="process-pool size for each section's grid "
                             "(default 1 = serial; results are identical "
                             "at any worker count)")

    sweep = sub.add_parser(
        "sweep", help="run figure grids through the parallel sweep "
                      "runner and emit aggregated JSON")
    sweep.add_argument("--workers", type=int, default=1,
                       help="process-pool size (default 1 = serial; the "
                            "figure series are identical at any worker "
                            "count)")
    sweep.add_argument("--figures", nargs="*", default=None,
                       help="subset of figure grids (e.g. fig6 fig12); "
                            "default: all")
    sweep.add_argument("--scale", choices=("quick", "default", "full"),
                       default="default")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the aggregated JSON document here "
                            "(default: stdout)")
    sweep.add_argument("--journal", default=None, metavar="PATH",
                       help="record finished tasks in an append-only "
                            "JSONL journal so an interrupted sweep can "
                            "be resumed")
    sweep.add_argument("--resume", default=None, metavar="PATH",
                       help="resume from an existing journal: completed "
                            "tasks are replayed, the rest re-run, and "
                            "the output is byte-identical to an "
                            "uninterrupted run (implies --journal PATH)")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-task deadline; an overrunning task's "
                            "worker is killed and the task retried or "
                            "failed (needs --workers >= 2)")
    sweep.add_argument("--retries", type=int, default=0,
                       help="per-task retry budget for transient "
                            "failures (timeouts, worker crashes, "
                            "changing exceptions); default 0")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-task progress lines")

    lint = sub.add_parser(
        "lint", help="run simlint, the determinism/spawn-safety/unit "
                     "invariant linter")
    from .analysis.cli import add_lint_arguments
    add_lint_arguments(lint)

    profile = sub.add_parser("profile", help="characterise an SPC trace")
    profile.add_argument("path")
    profile.add_argument("--limit", type=_record_limit, default=None,
                         help="read at most N records")

    run = sub.add_parser(
        "run", help="replay an SPC trace through the Flash hierarchy")
    run.add_argument("path")
    run.add_argument("--limit", type=_record_limit, default=None,
                     help="replay at most N records")
    run.add_argument("--dram-mb", type=_positive_int, default=64,
                     help="DRAM size in MB (default 64)")
    run.add_argument("--flash-mb", type=_positive_int, default=256,
                     help="Flash size in MB (default 256)")
    run.add_argument("--fault-rate", type=_unit_rate, default=0.0,
                     help="uniform fault-injection rate (0 disables; see "
                          "FaultConfig.uniform for the derived per-class "
                          "rates)")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the fault injector's RNG streams")
    _add_reliability_arguments(run)
    _add_concurrency_arguments(run)
    run.add_argument("--telemetry-out", default=None, metavar="PATH",
                     help="enable telemetry and write the JSON metrics "
                          "report (histograms + time-series) here")
    run.add_argument("--telemetry-interval", type=_positive_int,
                     default=1000,
                     help="requests between time-series samples "
                          "(default 1000)")

    stats = sub.add_parser(
        "stats", help="replay an SPC trace with full telemetry and "
                      "print latency percentiles, counters, and "
                      "time-series")
    stats.add_argument("path")
    stats.add_argument("--limit", type=_record_limit, default=None,
                       help="replay at most N records")
    stats.add_argument("--dram-mb", type=_positive_int, default=64,
                       help="DRAM size in MB (default 64)")
    stats.add_argument("--flash-mb", type=_positive_int, default=256,
                       help="Flash size in MB (default 256)")
    stats.add_argument("--fault-rate", type=_unit_rate, default=0.0,
                       help="uniform fault-injection rate (0 disables)")
    stats.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault injector's RNG streams")
    _add_reliability_arguments(stats)
    _add_concurrency_arguments(stats)
    stats.add_argument("--interval", type=_positive_int, default=1000,
                       help="requests between time-series samples "
                            "(default 1000)")
    stats.add_argument("--json", default=None, metavar="PATH",
                       help="write the telemetry report as JSON")
    stats.add_argument("--csv", default=None, metavar="PATH",
                       help="write time-series + histogram buckets as CSV")

    cluster = sub.add_parser(
        "cluster", help="serve a sharded Flash-cache cluster scenario "
                        "with open-loop traffic and failover")
    cluster.add_argument("--shards", type=int, default=3,
                         help="shard fleet size (default 3)")
    cluster.add_argument("--pattern", default="steady",
                         choices=("steady", "diurnal", "flash_crowd",
                                  "drain"),
                         help="arrival-intensity profile (default steady)")
    cluster.add_argument("--rate", type=float, default=4000.0,
                         metavar="RPS",
                         help="peak cluster-wide arrival rate "
                              "(default 4000 req/s)")
    cluster.add_argument("--duration", type=float, default=1.0,
                         metavar="S",
                         help="simulated traffic window (default 1.0 s)")
    cluster.add_argument("--workload", default="specweb99",
                         help="key-popularity model behind the arrivals "
                              "(default specweb99)")
    cluster.add_argument("--footprint-pages", type=int, default=16384,
                         help="distinct pages in the key space "
                              "(default 16384)")
    cluster.add_argument("--queue-depth", type=int, default=8,
                         help="per-shard outstanding-request window "
                              "(default 8)")
    cluster.add_argument("--channels", type=int, default=2,
                         help="NAND channels per shard (default 2)")
    cluster.add_argument("--planes", type=int, default=2,
                         help="planes per channel (default 2)")
    cluster.add_argument("--shed-queue", type=int, default=64,
                         help="host wait-queue length beyond the window "
                              "before requests shed (default 64)")
    cluster.add_argument("--kill-shard", type=int, default=None,
                         metavar="ID",
                         help="kill this shard mid-run (in-flight "
                              "requests are lost, traffic re-routes)")
    cluster.add_argument("--kill-at-ms", type=float, default=None,
                         help="kill instant in simulated ms (default: "
                              "mid-run)")
    cluster.add_argument("--replicas", type=int, default=1,
                         help="replication factor: each key lives on "
                              "its first R distinct ring successors; "
                              "reads hit the first live replica, writes "
                              "fan out to all (default 1)")
    cluster.add_argument("--cascade", action="append", default=None,
                         metavar="SHARD@MS",
                         help="additional scripted kill (repeatable): "
                              "e.g. --cascade 2@200 kills shard 2 at "
                              "200 ms — a survivor cascade")
    cluster.add_argument("--rejoin-at-ms", type=float, default=None,
                         help="re-admit the repaired --kill-shard at "
                              "this instant (simulated ms); triggers "
                              "the background catch-up sync of its "
                              "moved keys")
    cluster.add_argument("--aged-shard", type=int, default=None,
                         metavar="ID",
                         help="attach the fault/reliability ladder to "
                              "this shard; it retires organically if "
                              "graceful degradation trips")
    cluster.add_argument("--aged-fault-rate", type=float, default=0.0,
                         help="uniform fault-injection rate on the aged "
                              "shard (0 disables)")
    cluster.add_argument("--aged-reliability-rate", type=float,
                         default=0.0,
                         help="base raw bit error rate on the aged "
                              "shard (0 disables)")
    cluster.add_argument("--bucket-ms", type=float, default=50.0,
                         help="feed time-bucket width (default 50 ms)")
    cluster.add_argument("--workers", type=int, default=1,
                         help="process-pool size for the shard fan-out "
                              "(default 1 = serial; results are "
                              "byte-identical at any worker count)")
    cluster.add_argument("--seed", type=int, default=42,
                         help="root seed of every derived RNG stream "
                              "(default 42)")
    cluster.add_argument("--feed", default=None, metavar="PATH",
                         help="write the JSONL telemetry feed here")
    cluster.add_argument("--csv", default=None, metavar="PATH",
                         help="write the time-bucketed feed rows as CSV")
    cluster.add_argument("--json", default=None, metavar="PATH",
                         help="write the aggregated result document as "
                              "JSON")
    cluster.add_argument("--quiet", action="store_true",
                         help="suppress live orchestration events")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "experiments":
        for name in _FIGURES:
            print(name)
        return 0
    if args.command == "faults":
        fault_degradation.main(telemetry_out=args.telemetry_out)
        return 0
    if args.command in _FIGURES:
        _FIGURES[args.command]()
        return 0
    if args.command == "report":
        scale = _SCALES[args.scale]()
        print(generate_report(scale=scale, sections=args.sections,
                              workers=args.workers))
        return 0
    if args.command == "sweep":
        return _sweep_command(args)
    if args.command == "cluster":
        return _cluster_command(args)
    if args.command == "lint":
        from .analysis.cli import run_lint_command
        return run_lint_command(args)
    if args.command == "profile":
        records = _load_trace(args)
        if records is None:
            return 2
        print(profile_trace(records).summary())
        return 0
    if args.command == "run":
        return _run_trace_command(args)
    if args.command == "stats":
        return _stats_command(args)
    return 1


_SCALES = {"quick": ReportScale.quick,
           "default": ReportScale,
           "full": ReportScale.full}


def _sweep_command(args: argparse.Namespace) -> int:
    import json

    from .experiments.sweeps import run_sweep

    progress = None
    if not args.quiet:
        def progress(result, done, total):
            status = "ok" if result.ok else "FAILED"
            print(f"[{done}/{total}] {result.key}: {status} "
                  f"({result.elapsed_s:.1f}s)", file=sys.stderr)

    journal_path = args.journal
    resume = False
    if args.resume is not None:
        if journal_path is not None and journal_path != args.resume:
            print("error: --journal and --resume name different files",
                  file=sys.stderr)
            return 2
        journal_path, resume = args.resume, True

    try:
        document = run_sweep(figures=args.figures,
                             scale=_SCALES[args.scale](),
                             workers=args.workers,
                             progress=progress,
                             journal_path=journal_path,
                             resume=resume,
                             timeout_s=args.timeout,
                             retries=args.retries)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = json.dumps(document, indent=2, sort_keys=True)
    if args.out is not None:
        from .atomicio import atomic_write_text

        atomic_write_text(args.out, payload + "\n")
        meta = document["meta"]
        print(f"sweep: {meta['tasks']} tasks, {meta['workers']} workers, "
              f"{meta['resumed_tasks']} resumed, "
              f"{meta['elapsed_s']}s -> {args.out}", file=sys.stderr)
    else:
        print(payload)
    errors = document["meta"]["errors"]
    return 1 if errors else 0


def _cluster_command(args: argparse.Namespace) -> int:
    import json

    from .cluster import (
        ClusterScenario,
        run_cluster,
        write_feed_csv,
        write_feed_jsonl,
    )

    def parse_cascade(specs):
        cascade = []
        for spec in specs or ():
            shard_text, sep, at_text = spec.partition("@")
            try:
                if not sep:
                    raise ValueError(spec)
                cascade.append((int(shard_text),
                                float(at_text) * 1000.0))
            except ValueError:
                raise ValueError(f"bad --cascade {spec!r}; expected "
                                 f"SHARD@MS (e.g. 2@200)") from None
        return tuple(cascade)

    try:
        scenario = ClusterScenario(
            shards=args.shards, pattern=args.pattern, rate_rps=args.rate,
            duration_s=args.duration, workload=args.workload,
            footprint_pages=args.footprint_pages,
            queue_depth=args.queue_depth, channels=args.channels,
            planes=args.planes, shed_queue=args.shed_queue,
            replicas=args.replicas,
            kill_shard=args.kill_shard,
            kill_at_us=(args.kill_at_ms * 1000.0
                        if args.kill_at_ms is not None else None),
            cascade=parse_cascade(args.cascade),
            rejoin_at_us=(args.rejoin_at_ms * 1000.0
                          if args.rejoin_at_ms is not None else None),
            aged_shard=args.aged_shard,
            aged_fault_rate=args.aged_fault_rate,
            aged_reliability_rate=args.aged_reliability_rate,
            bucket_ms=args.bucket_ms, seed=args.seed)
        on_event = None
        if not args.quiet:
            def on_event(event):
                if event["kind"] == "stage":
                    shards = ",".join(str(s) for s in event["shards"])
                    print(f"stage {event['stage']}: shards [{shards}]",
                          file=sys.stderr)
                else:
                    status = "ok" if event["ok"] else "FAILED"
                    print(f"[{event['done']}/{event['total']}] "
                          f"{event['key']}: {status}", file=sys.stderr)
        result = run_cluster(scenario, workers=args.workers,
                             progress=on_event)
    except (KeyError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"requests:        {result.requests}")
    print(f"planned ops:     {result.arrivals}")
    print(f"completed:       {result.completed}")
    print(f"shed:            {result.shed} "
          f"({result.shed_fraction:.3%})")
    print(f"lost:            {result.lost} "
          f"(reads={result.lost_reads} writes={result.lost_writes})")
    print(f"redirected:      {result.redirected}")
    if result.sync_arrived:
        print(f"sync:            {result.sync_completed}/"
              f"{result.sync_arrived} catch-up ops "
              f"(lost={result.sync_lost} skipped={result.sync_skipped})")
    print(f"span:            {result.span_us / 1000.0:.1f} ms")
    print(f"throughput:      {result.throughput_rps:.0f} req/s")
    print(f"response us:     p50={result.response.p50:.1f} "
          f"p95={result.response.p95:.1f} p99={result.response.p99:.1f}")
    print(f"queue delay us:  mean={result.queue_delay.mean:.1f} "
          f"p99={result.queue_delay.p99:.1f}")
    for shard in result.shards:
        retired = (f" retired@{shard['retired_at_us'] / 1000.0:.0f}ms"
                   if shard["retired_at_us"] is not None else "")
        if shard.get("rejoined_at_us") is not None:
            retired += (f" rejoined@"
                        f"{shard['rejoined_at_us'] / 1000.0:.0f}ms")
        print(f"  shard {shard['shard_id']}: "
              f"{shard['completed']}/{shard['arrivals']} served, "
              f"{shard['shed']} shed, {shard['lost']} lost, "
              f"{shard['redirected']} redirected, "
              f"p99={shard['response_p99_us']:.1f}us, "
              f"miss={shard['flash_miss_rate']:.3f}{retired}")
    if args.feed is not None:
        write_feed_jsonl(result, args.feed)
        print(f"feed JSONL:      {args.feed}")
    if args.csv is not None:
        write_feed_csv(result, args.csv)
        print(f"feed CSV:        {args.csv}")
    if args.json is not None:
        from .atomicio import atomic_write_text

        atomic_write_text(args.json,
                          json.dumps(result.as_dict(), indent=2,
                                     sort_keys=True) + "\n")
        print(f"result JSON:     {args.json}")
    return 0


def _load_trace(args: argparse.Namespace):
    """The trace ``path``/``--limit`` select, or ``None`` after a one-line
    usage error on stderr when it has no records."""
    records = records_from_spc_file(args.path, limit=args.limit)
    if not records:
        print(f"error: {args.path}: trace has no records", file=sys.stderr)
        return None
    return records


def _build_system(args: argparse.Namespace):
    from .core.hierarchy import build_flash_system
    from .faults.injector import FaultConfig
    from .reliability import ReliabilityConfig, ScrubConfig

    fault_config = None
    if args.fault_rate > 0.0:
        fault_config = FaultConfig.uniform(args.fault_rate,
                                           seed=args.fault_seed)
    reliability_config = None
    if args.reliability_rate > 0.0:
        reliability_config = ReliabilityConfig.uniform(
            args.reliability_rate, seed=args.reliability_seed)
    scrub_config = None
    if args.scrub_interval > 0.0:
        if reliability_config is None:
            raise SystemExit("error: --scrub-interval needs "
                             "--reliability-rate > 0")
        scrub_config = ScrubConfig(interval_us=args.scrub_interval,
                                   min_age_us=args.scrub_interval)
    system = build_flash_system(
        dram_bytes=args.dram_mb << 20,
        flash_bytes=args.flash_mb << 20,
        fault_config=fault_config,
        reliability_config=reliability_config,
        scrub_config=scrub_config,
    )
    return system, fault_config


def _print_reliability_sections(report) -> None:
    """Fault-injection, error-model, and scrub summaries (anything that
    is None — model off, no scrubber — prints nothing)."""
    faults = report.faults
    if faults is not None:
        print("injected faults")
        print(f"  read-disturb bursts:     {faults.read_disturbs}")
        print(f"  disturbed reads:         {faults.disturbed_reads}")
        print(f"  program faults:          {faults.program_faults}")
        print(f"  erase faults:            {faults.erase_faults}")
        print(f"  infant-mortality blocks: {faults.dead_blocks}")
    reliability = report.reliability
    if reliability is not None:
        controller = report.controller
        print("error model")
        print(f"  modelled reads:          {reliability.modelled_reads}")
        print(f"  raw error bits:          {reliability.error_bits}")
        print(f"  bits/read:               {reliability.bits_per_read:.3f}")
        print(f"  saturated reads:         {reliability.saturated_reads}")
        if controller is not None and controller.reads:
            cells = (2048 + 64) * 8
            uber = (controller.uncorrectable_reads
                    / (controller.reads * cells))
            print(f"  uncorrectable reads:     "
                  f"{controller.uncorrectable_reads}")
            print(f"  UBER:                    {uber:.3e}")
    scrub = report.scrub
    if scrub is not None:
        print("scrub")
        print(f"  passes:                  {scrub.passes}")
        print(f"  pages scanned:           {scrub.pages_scanned}")
        print(f"  scrub reads:             {scrub.scrub_reads}")
        print(f"  page rewrites:           {scrub.page_rewrites}")
        print(f"  uncorrectable found:     {scrub.uncorrectable_found}")
        print(f"  busy time:               {scrub.busy_us:.0f} us")


def _print_queueing_section(report) -> None:
    """Concurrency block: the service/queue-delay split and channel
    utilization (prints nothing on the serial compatibility path)."""
    queueing = report.queueing
    if queueing is None:
        return
    print("queueing")
    print(f"  window / fabric:         qd={queueing.queue_depth} "
          f"ch={queueing.channels} planes={queueing.planes}")
    print(f"  mean queue delay:        "
          f"{queueing.mean_queue_delay_us:.1f} us")
    print(f"  queue delay us:          "
          f"p50={report.queue_delay_p50:.1f} "
          f"p95={report.queue_delay_p95:.1f} "
          f"p99={report.queue_delay_p99:.1f}")
    print(f"  service latency us:      "
          f"p50={report.service_latency_p50:.1f} "
          f"p95={report.service_latency_p95:.1f} "
          f"p99={report.service_latency_p99:.1f}")
    utilization = ", ".join(f"{u:.2f}"
                            for u in queueing.channel_utilization())
    print(f"  channel utilization:     [{utilization}]")
    print(f"  channel stalls:          {queueing.channel_stalls}")


def _run_with_concurrency(args: argparse.Namespace, system, records,
                          telemetry):
    """Dispatch run/stats replay through the right engine."""
    from .sim.concurrent import run_trace_concurrent

    return run_trace_concurrent(system, records,
                                queue_depth=args.queue_depth,
                                channels=args.channels,
                                planes=args.planes,
                                telemetry=telemetry)


def _print_latency_percentiles(report) -> None:
    print(f"read latency us: p50={report.read_latency_p50:.1f} "
          f"p95={report.read_latency_p95:.1f} "
          f"p99={report.read_latency_p99:.1f}")
    print(f"write latency us: p50={report.write_latency_p50:.1f} "
          f"p95={report.write_latency_p95:.1f} "
          f"p99={report.write_latency_p99:.1f}")


def _run_trace_command(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry

    records = _load_trace(args)
    if records is None:
        return 2
    system, fault_config = _build_system(args)
    telemetry = None
    if args.telemetry_out is not None:
        telemetry = Telemetry(sample_interval=args.telemetry_interval)
    report = _run_with_concurrency(args, system, records, telemetry)
    print(f"requests:        {report.requests}")
    print(f"avg latency:     {report.average_latency_us:.1f} us")
    print(f"throughput:      {report.throughput_rps:.0f} req/s")
    print(f"flash miss rate: {report.flash_miss_rate:.3%}")
    print(f"disk reads:      {report.disk_reads}")
    print(f"disk writes:     {report.disk_writes}")
    if fault_config is not None:
        flash = report.flash
        faults = report.faults
        assert flash is not None
        print(f"injected faults: {faults.total if faults else 0}")
        print(f"recovered:       {flash.recovered_faults}")
        print(f"lost (dirty):    {flash.unrecovered_faults}")
        print(f"program remaps:  {flash.remapped_programs}")
        print(f"retired blocks:  {flash.retired_blocks}")
        print(f"live capacity:   {report.flash_live_capacity:.3f}")
        print(f"degraded:        {report.flash_degraded}")
    _print_queueing_section(report)
    _print_reliability_sections(report)
    if telemetry is not None:
        from .telemetry.export import write_json

        _print_latency_percentiles(report)
        write_json(telemetry, args.telemetry_out)
        print(f"telemetry JSON:  {args.telemetry_out}")
    return 0


def _stats_command(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry
    from .telemetry.export import write_csv, write_json

    records = _load_trace(args)
    if records is None:
        return 2
    system, _ = _build_system(args)
    telemetry = Telemetry(sample_interval=args.interval)
    report = _run_with_concurrency(args, system, records, telemetry)

    print(f"requests:        {report.requests} "
          f"({report.reads} reads, {report.writes} writes)")
    print(f"avg latency:     {report.average_latency_us:.1f} us")
    print(f"flash miss rate: {report.flash_miss_rate:.3%}")
    _print_latency_percentiles(report)
    print()
    _print_queueing_section(report)
    _print_reliability_sections(report)
    print("histograms")
    for name, hist in sorted(telemetry.metrics.histograms.items()):
        if hist.count == 0:
            continue
        digest = hist.summary()
        print(f"  {name:<28} n={digest['count']:<8} "
              f"mean={digest['mean']:9.1f} p50={digest['p50']:9.1f} "
              f"p95={digest['p95']:9.1f} p99={digest['p99']:9.1f} "
              f"max={digest['max']:9.1f}")
    print()
    print("counters")
    for name, counter in sorted(telemetry.metrics.counters.items()):
        if counter.value:
            print(f"  {name:<28} {counter.value}")
    print()
    print("time-series (last sample)")
    for name, series in sorted(telemetry.timeseries.items()):
        print(f"  {name:<28} points={len(series):<5} last={series.last}")
    if args.json is not None:
        write_json(telemetry, args.json)
        print(f"\ntelemetry JSON written to {args.json}")
    if args.csv is not None:
        write_csv(telemetry, args.csv)
        print(f"telemetry CSV written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
