"""The shared driver surface of every host-application tool.

``repro.tools.{bro,bpf_filter,firewall,pac_driver}`` all expose the same
controls — robustness (``--tolerant-pcap``, ``--watchdog``,
``--inject``, ``--fault-seed``, ``--health``), telemetry (``--metrics``,
``--cpu-breakdown``, ``--trace-flows``), session bounds
(``--max-sessions``, ``--session-ttl``, ``--memory-budget``),
parallelism (``--parallel``, ``--workers``, ``--vthreads``,
``--backend``), and the streaming service mode (``--serve`` and
friends) — built from this module's argparse helpers and driven by
:func:`run_host_app`, the generic main loop over
:class:`~repro.host.pipeline.Pipeline` /
:class:`~repro.host.parallel.ParallelPipeline` /
:class:`~repro.host.service.HostService`.

A batch run interrupted mid-trace (SIGINT or SIGTERM) does not lose its
partial work: the driver finalizes the app, writes the partial
``results.log`` plus any armed telemetry files, and exits 130.
"""

from __future__ import annotations

import argparse
import hashlib
import os as _os
import signal as _signal
import threading as _threading
from typing import Callable, Dict, List, Optional

from ..runtime.faults import FaultInjector, registered_sites
from ..runtime.telemetry import Telemetry
from .app import HostApp, PipelineServices
from .parallel import LaneSpec
from .pipeline import Pipeline

__all__ = [
    "add_pipeline_args",
    "add_service_args",
    "fingerprint",
    "parse_injection_rates",
    "parse_injections",
    "print_health",
    "run_host_app",
    "run_host_service",
]

#: Exit code of a run cut short by SIGINT/SIGTERM (after the partial
#: results and telemetry were flushed) — 128 + SIGINT, the shell idiom.
EXIT_INTERRUPTED = 130


def parse_injection_rates(specs, prog: str = "bro",
                          ) -> Optional[Dict[str, float]]:
    """``SITE=RATE`` pairs -> per-site rate map (None when no specs)."""
    if not specs:
        return None
    sites = registered_sites()
    rates: Dict[str, float] = {}
    for spec in specs:
        site, sep, rate = spec.partition("=")
        if not sep:
            raise SystemExit(
                f"{prog}: --inject expects SITE=RATE, got {spec!r}")
        if site != "all" and site not in sites:
            known = ", ".join(sorted(sites))
            raise SystemExit(
                f"{prog}: unknown injection site {site!r} (known: {known})")
        try:
            value = float(rate)
        except ValueError:
            raise SystemExit(f"{prog}: bad injection rate in {spec!r}")
        if site == "all":
            for name in sites:
                rates.setdefault(name, value)
        else:
            rates[site] = value
    return rates


def parse_injections(specs, seed, prog: str = "bro"):
    """``SITE=RATE`` pairs -> FaultInjector (None when no specs)."""
    rates = parse_injection_rates(specs, prog)
    if rates is None:
        return None
    return FaultInjector(seed=seed, rates=rates)


def add_pipeline_args(parser: argparse.ArgumentParser,
                      default_workers: int = 4) -> None:
    """The flag surface every pipeline driver shares."""
    sites = ", ".join(sorted(registered_sites()))
    parser.add_argument("-r", "--read", required=True, metavar="TRACE",
                        help="pcap file to read")
    parser.add_argument("--logdir", default="logs",
                        help="directory for result and report files")
    parser.add_argument("--stats", action="store_true",
                        help="print the per-component timing breakdown")
    parser.add_argument("--tolerant-pcap", action="store_true",
                        help="skip truncated/corrupt trace records "
                             "instead of aborting (counted in the "
                             "health report)")
    parser.add_argument("--watchdog", type=int, default=None, metavar="N",
                        help="per-packet HILTI instruction budget; "
                             "exceeding it raises a catchable "
                             "Hilti::ProcessingTimeout")
    parser.add_argument("--inject", action="append", metavar="SITE=RATE",
                        help="arm the deterministic fault injector at "
                             "SITE with probability RATE per pass "
                             f"(SITE is 'all' or one of: {sites}); "
                             "repeatable")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault injector's per-site "
                             "random streams (default 0)")
    parser.add_argument("--health", action="store_true",
                        help="print the recovery/health report "
                             "(quarantines, skipped records, watchdog "
                             "trips, per-site error budget)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect the unified metrics registry and "
                             "write metrics.jsonl and stats.log into "
                             "the log directory")
    parser.add_argument("--cpu-breakdown", action="store_true",
                        help="write the Figures 9/10 per-component CPU "
                             "report (cpu_breakdown.json) and print the "
                             "shares")
    parser.add_argument("--trace-flows", action="store_true",
                        help="record per-flow span trees into "
                             "flows.jsonl")
    parser.add_argument("--max-sessions", type=int, default=None,
                        metavar="N",
                        help="hard cap on live per-session state; the "
                             "least-recently-active session is evicted "
                             "(with its final-flush events) to stay "
                             "under it")
    parser.add_argument("--session-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="expire sessions idle for SECONDS of "
                             "network time (final-flush events still "
                             "delivered)")
    parser.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES",
                        help="evict oldest sessions when buffered "
                             "reassembly payload exceeds BYTES")
    parser.add_argument("--parallel", action="store_true",
                        help="flow-parallel pipeline: hash flows to "
                             "vthreads, analyze on worker lanes, merge "
                             "the results deterministically")
    parser.add_argument("--workers", type=int, default=default_workers,
                        metavar="N",
                        help=f"parallel worker count "
                             f"(default {default_workers})")
    parser.add_argument("--vthreads", type=int, default=None, metavar="M",
                        help="virtual thread supply (default 4*workers)")
    parser.add_argument("--backend",
                        choices=["vthread", "threaded", "process", "pool"],
                        default=None,
                        help="parallel drive mode: deterministic vthread "
                             "scheduler, real threads, one process per "
                             "worker, or the persistent shared-memory "
                             "worker pool (default: pool on multi-core "
                             "hosts, else process)")
    parser.add_argument("--start-method",
                        choices=["fork", "spawn"], default=None,
                        help="multiprocessing start method for the "
                             "process/pool backends (default: fork "
                             "where available, else spawn)")


def add_service_args(parser: argparse.ArgumentParser) -> None:
    """The streaming-service flag surface (see docs/SERVICE.md)."""
    group = parser.add_argument_group(
        "service mode",
        "run as a long-lived supervised daemon instead of one batch "
        "pass; SIGTERM/SIGINT drain gracefully")
    group.add_argument("--serve", action="store_true",
                       help="loop the trace through supervised lanes "
                            "with bounded queues and serve the HTTP "
                            "control surface until stopped")
    group.add_argument("--loops", type=int, default=0, metavar="N",
                       help="replay the trace N times (0 = loop "
                            "forever, timestamps continued monotonically"
                            "; default 0)")
    group.add_argument("--rate-pps", type=float, default=None,
                       metavar="PPS",
                       help="pace replay to PPS packets/second "
                            "(default: as fast as possible)")
    group.add_argument("--lanes", type=int, default=2, metavar="N",
                       help="supervised analysis lanes, each with an "
                            "isolated app instance (default 2)")
    group.add_argument("--queue-cap", type=int, default=512, metavar="N",
                       help="bounded per-lane queue capacity "
                            "(default 512)")
    group.add_argument("--lane-transport", choices=["thread", "pool"],
                       default="thread",
                       help="lane execution substrate: in-process "
                            "threads fed by object queues, or the "
                            "persistent worker pool fed by shared-"
                            "memory packet rings (default thread)")
    group.add_argument("--overload", choices=["block", "shed"],
                       default="block",
                       help="full-queue policy: 'block' applies "
                            "backpressure to ingest, 'shed' drops the "
                            "packet and counts it (default block)")
    group.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="stop and drain after SECONDS of wall clock")
    group.add_argument("--tick", type=float, default=1.0,
                       metavar="SECONDS",
                       help="aggregator sampling period feeding the "
                            "1s/10s/60s rolling windows (default 1.0)")
    group.add_argument("--http-host", default="127.0.0.1",
                       help="control-surface bind address "
                            "(default 127.0.0.1)")
    group.add_argument("--http-port", type=int, default=0, metavar="PORT",
                       help="control-surface port (0 = ephemeral, "
                            "recorded in service.json; -1 disables the "
                            "HTTP surface)")
    group.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="max wait for lanes to finish their queues "
                            "at shutdown (default 30)")
    group.add_argument("--backoff-base", type=float, default=0.25,
                       metavar="SECONDS",
                       help="first lane-restart delay; doubles per "
                            "consecutive crash up to --backoff-cap "
                            "(default 0.25)")
    group.add_argument("--backoff-cap", type=float, default=30.0,
                       metavar="SECONDS",
                       help="upper bound on the lane-restart delay "
                            "(default 30)")


def print_health(health: Dict) -> None:
    """The shared ``--health`` report block."""
    print("health:")
    for key in ("flows_quarantined", "records_skipped",
                "watchdog_trips", "injected_faults", "tier_fallback"):
        print(f"  {key}: {health[key]}")
    breaker = health["breaker"]
    print(f"  breaker: {breaker['violations']}/{breaker['flows']} "
          f"flows violated (threshold {breaker['threshold']}, "
          f"tripped={breaker['tripped']})")
    for site, count in sorted(health["site_errors"].items()):
        print(f"  errors[{site}]: {count}")


def fingerprint(lines: List[str]) -> str:
    """The byte-identity fingerprint of a result-line stream."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8", "surrogateescape"))
        digest.update(b"\n")
    return digest.hexdigest()


def _install_interrupt_handler():
    """Route SIGTERM through KeyboardInterrupt so one except clause
    drains both signals; returns the previous handler (None when not
    on the main thread, where signal installation is impossible)."""
    if _threading.current_thread() is not _threading.main_thread():
        return None

    def _handler(signum, frame):
        raise KeyboardInterrupt

    return _signal.signal(_signal.SIGTERM, _handler)


def _restore_interrupt_handler(previous) -> None:
    if previous is not None:
        _signal.signal(_signal.SIGTERM, previous)


def run_host_app(
    args: argparse.Namespace,
    prog: str,
    make_app: Callable[[argparse.Namespace, PipelineServices], HostApp],
    make_spec: Callable[[argparse.Namespace], LaneSpec],
    results_name: str = "results.log",
    summarize: Optional[Callable[[Dict], str]] = None,
) -> int:
    """The generic driver main: run *make_app*'s application over the
    trace (sequentially, flow-parallel, or as a streaming service),
    write the sorted result lines and any armed telemetry reports into
    ``--logdir``, print the shared summary.  Returns the process exit
    code."""
    if getattr(args, "serve", False):
        return run_host_service(args, prog, make_app, make_spec,
                                results_name)

    telemetry = Telemetry(metrics=args.metrics, trace=args.trace_flows)
    interrupted = False
    if args.parallel:
        if args.inject:
            raise SystemExit(
                f"{prog}: --inject is sequential-only (the injector's "
                "per-site random streams diverge across lanes)")
        if (args.max_sessions is not None or args.session_ttl is not None
                or args.memory_budget is not None):
            raise SystemExit(
                f"{prog}: session bounds (--max-sessions/--session-ttl/"
                "--memory-budget) are sequential-only (a global LRU "
                "diverges across lanes)")
        from .parallel import ParallelPipeline, default_backend

        pipe = ParallelPipeline(
            make_spec(args),
            workers=args.workers,
            vthreads=args.vthreads,
            backend=(args.backend if args.backend is not None
                     else default_backend()),
            telemetry=telemetry,
            start_method=getattr(args, "start_method", None),
        )
        previous = _install_interrupt_handler()
        try:
            stats = pipe.run_pcap(args.read, tolerant=args.tolerant_pcap)
        except KeyboardInterrupt:
            # Worker lanes live in other processes/threads; their
            # partial state is unreachable, so there is nothing to
            # flush — report the interruption honestly and exit.
            print(f"{prog}: interrupted — parallel run abandoned "
                  "(no partial telemetry)")
            return EXIT_INTERRUPTED
        finally:
            _restore_interrupt_handler(previous)
        lines = pipe.result_lines()
        writers = pipe
        app_name = pipe.spec.app_name
    else:
        services = PipelineServices(
            faults=parse_injections(args.inject, args.fault_seed, prog),
            watchdog_budget=args.watchdog,
            telemetry=telemetry,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl,
            memory_budget_bytes=args.memory_budget,
        )
        app = make_app(args, services)
        writers = Pipeline(app)
        previous = _install_interrupt_handler()
        try:
            stats = writers.run_pcap(args.read, tolerant=args.tolerant_pcap)
        except KeyboardInterrupt:
            # The graceful-drain path: finalize whatever the app
            # processed so far so the partial results and telemetry
            # survive the interruption (pre-fix they were lost).
            interrupted = True
            try:
                stats = app.on_end()
            except Exception:
                stats = dict(app.stats) if app.stats else {
                    "app": app.name, "packets": app.packets,
                }
            stats.setdefault(
                "health", services.health.as_dict(services.faults))
        finally:
            _restore_interrupt_handler(previous)
        try:
            lines = sorted(app.result_lines())
        except Exception:
            lines = []
        app_name = app.name

    _os.makedirs(args.logdir, exist_ok=True)
    results_path = _os.path.join(args.logdir, results_name)
    with open(results_path, "w") as stream:
        for line in lines:
            stream.write(line + "\n")

    # The flow ledger always ships: every run leaves a schema-valid
    # flow_records.jsonl next to results.log (empty stream for apps
    # without per-flow state).
    from ..net.flowrecord import write_flowrecords_jsonl
    try:
        record_lines = writers.flow_record_lines()
    except Exception:
        record_lines = []
    records_path = write_flowrecords_jsonl(
        _os.path.join(args.logdir, "flow_records.jsonl"),
        app_name, record_lines)

    if interrupted:
        print(f"{prog}: interrupted — partial run drained "
              f"({stats.get('packets', 0)} packets)")
    extra = summarize(stats) if summarize is not None else ""
    print(f"processed {stats.get('packets', 0)} packets{extra}")
    if args.parallel:
        print(f"  parallel: {stats['lanes']} lanes on "
              f"{stats['workers']} {stats['backend']} workers "
              f"({stats['vthreads']} vthreads)")
    print(f"  {results_path}: {len(lines)} lines")
    print(f"  fingerprint: sha256:{fingerprint(lines)}")
    print(f"  {records_path}: {len(record_lines)} flow records")
    print(f"  flow fingerprint: sha256:{fingerprint(record_lines)}")
    if args.stats and not interrupted:
        for key in ("parsing_ns", "script_ns", "glue_ns", "other_ns"):
            print(f"  {key[:-3]:>8}: {stats[key] / 1e6:10.2f} ms")
    if args.metrics or args.trace_flows:
        try:
            for path in writers.write_telemetry(args.logdir):
                print(f"  wrote {path}")
        except Exception as error:
            if not interrupted:
                raise
            print(f"  telemetry flush incomplete: {error}")
    if args.cpu_breakdown and not interrupted:
        import json as _json

        path = _os.path.join(args.logdir, "cpu_breakdown.json")
        report = writers.cpu_breakdown()
        with open(path, "w") as stream:
            _json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"  wrote {path}")
        print("cpu breakdown:")
        for name in ("parsing", "script", "glue", "other"):
            entry = report["components"][name]
            print(f"  {name:>8}: {entry['share']:6.2f}% "
                  f"({entry['ns'] / 1e6:.2f} ms)")
    if args.health and "health" in stats:
        print_health(stats["health"])
    return EXIT_INTERRUPTED if interrupted else 0


def run_host_service(
    args: argparse.Namespace,
    prog: str,
    make_app: Callable[[argparse.Namespace, PipelineServices], HostApp],
    make_spec: Callable[[argparse.Namespace], LaneSpec],
    results_name: str = "results.log",
) -> int:
    """Drive *make_app*'s application as a streaming service: looped
    rate-controlled replay feeding supervised lanes through bounded
    queues, with the HTTP control surface and graceful signal drain
    (docs/SERVICE.md)."""
    from ..net.replay import TraceReplayer
    from .service import HostService, ServiceConfig

    if args.parallel:
        raise SystemExit(
            f"{prog}: --serve and --parallel are exclusive — service "
            "mode has its own lane parallelism (--lanes)")
    lane_transport = getattr(args, "lane_transport", "thread")
    if lane_transport == "pool" and args.inject:
        raise SystemExit(
            f"{prog}: --inject requires thread lanes — pool lanes run "
            "in worker processes where the injector's deterministic "
            "per-site streams cannot be threaded through")

    config = ServiceConfig(
        lanes=args.lanes,
        lane_transport=lane_transport,
        queue_capacity=args.queue_cap,
        overload=args.overload,
        tick_seconds=args.tick,
        duration_seconds=args.duration,
        drain_timeout=args.drain_timeout,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        fault_seed=args.fault_seed,
        inject_rates=parse_injection_rates(args.inject, prog),
        watchdog_budget=args.watchdog,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl,
        memory_budget_bytes=args.memory_budget,
        http_host=(None if args.http_port < 0 else args.http_host),
        http_port=(None if args.http_port < 0 else args.http_port),
        logdir=args.logdir,
        results_name=results_name,
        app_name=prog,
        lane_metrics=args.metrics,
    )
    replayer = TraceReplayer(
        args.read,
        loops=(args.loops if args.loops > 0 else None),
        rate=args.rate_pps,
        tolerant=args.tolerant_pcap,
        should_stop=lambda: service.should_stop(),
    )
    service = HostService(
        lambda services: make_app(args, services),
        replayer, config, spec=make_spec(args))
    service.install_signal_handlers()

    loops = "forever" if args.loops <= 0 else f"{args.loops}x"
    print(f"{prog}: service mode — {config.lanes} {config.lane_transport} "
          f"lanes, overload={config.overload}, replay {loops}"
          + (f", {args.rate_pps:g} pps" if args.rate_pps else ""))
    code = service.serve()
    totals = service.totals()
    print(f"service drained ({service.stop_reason}): "
          f"ingested {int(totals['packets_ingested'])}, "
          f"processed {int(totals['packets_processed'])}, "
          f"shed {int(totals['packets_shed'])}, "
          f"lost {int(totals['packets_lost'])}, "
          f"dropped {int(totals['packets_dropped'])}")
    print(f"  lanes: {int(totals['lane_crashes'])} crashes, "
          f"{int(totals['lane_restarts'])} restarts, "
          f"{sum(1 for lane in service.lanes if lane.failed)} failed")
    for path in service.artifacts:
        print(f"  wrote {path}")
    return code
