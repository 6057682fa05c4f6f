"""bro — run the analysis pipeline over a pcap trace.

The Figure 8 command line in miniature::

    # bro -r wikipedia.pcap compile_scripts=T track.bro
    python -m repro.tools.bro -r trace.pcap --compile-scripts track.bro

Without script files, the default conn/http/dns analysis scripts run;
logs are written into ``--logdir`` (default ``./logs``).

Robustness controls (docs/ROBUSTNESS.md): ``--tolerant-pcap`` skips
corrupt trace records, ``--watchdog N`` bounds HILTI instructions per
packet, ``--inject SITE=RATE`` arms the deterministic fault injector,
and ``--health`` prints the recovery/health report after the run.

Telemetry controls (docs/OBSERVABILITY.md): ``--metrics`` writes
``metrics.jsonl``/``stats.log``/``prof.log`` into the log directory,
``--cpu-breakdown`` writes the Figures 9/10 parsing/script/glue/other
report as ``cpu_breakdown.json``, and ``--trace-flows`` records
per-flow span trees into ``flows.jsonl``.

Parallel controls (docs/PARALLELISM.md): ``--parallel`` drives the
flow-parallel pipeline — connections hash to vthreads, lanes analyze
independently, logs merge deterministically — with ``--workers N``,
``--vthreads M``, and ``--backend {vthread,threaded,process,pool}``.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..apps.bro.main import Bro
from ..apps.bro.scripts import TRACK_SCRIPT
from ..core import OPT_LEVELS
from ..net.flowrecord import write_flowrecords_jsonl
from ..host.cli import (
    EXIT_INTERRUPTED,
    _install_interrupt_handler,
    _restore_interrupt_handler,
    add_service_args,
    parse_injections,
    print_health,
    run_host_service,
)
from ..runtime.faults import registered_sites
from ..runtime.telemetry import Telemetry

_BUNDLED = {"track.bro": TRACK_SCRIPT}


def _make_spec(ns, scripts):
    """The pool-transport lane spec for ``--serve``.

    Full lane-constructor config: pool-transport lanes build Bro
    instances from this in worker processes, where only the picklable
    spec travels (thread lanes use make_app) — so every compilation
    knob, including ``-O``, must ride in the spec.
    """
    from ..apps.bro.parallel import BroLaneSpec

    return BroLaneSpec({
        "scripts": scripts,
        "parsers": ns.parsers,
        "scripts_engine": ("hilti" if ns.compile_scripts
                           else "interp"),
        "log_enabled": True,
        "watchdog_budget": ns.watchdog,
        "opt_level": ns.opt_level,
        "metrics": ns.metrics,
        "trace": False,
    })


def main(argv=None) -> int:
    sites = ", ".join(sorted(registered_sites()))
    parser = argparse.ArgumentParser(
        prog="bro", description="mini-Bro over a pcap trace")
    parser.add_argument("-r", "--read", required=True, metavar="TRACE",
                        help="pcap file to read")
    parser.add_argument("scripts", nargs="*",
                        help="script files (default: conn/http/dns); the "
                             "bundled track.bro may be named directly")
    parser.add_argument("--parsers", choices=["std", "pac"], default="std",
                        help="protocol parser tier (default std)")
    parser.add_argument("--compile-scripts", action="store_true",
                        help="compile scripts through HILTI "
                             "(the paper's compile_scripts=T)")
    parser.add_argument("-O", "--opt-level", type=int,
                        choices=list(OPT_LEVELS), default=None,
                        help="HILTI optimization level for compiled "
                             "scripts and pac parsers")
    parser.add_argument("--logdir", default="logs",
                        help="directory for the .log files")
    parser.add_argument("--stats", action="store_true",
                        help="print the per-component timing breakdown")
    parser.add_argument("--tolerant-pcap", action="store_true",
                        help="skip truncated/corrupt trace records "
                             "instead of aborting (counted in the "
                             "health report)")
    parser.add_argument("--watchdog", type=int, default=None, metavar="N",
                        help="per-packet HILTI instruction budget; "
                             "exceeding it raises a catchable "
                             "Hilti::ProcessingTimeout and quarantines "
                             "the flow's analyzer")
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
                             "write metrics.jsonl, stats.log, and "
                             "prof.log into the log directory")
    parser.add_argument("--cpu-breakdown", action="store_true",
                        help="write the Figures 9/10 per-component CPU "
                             "report (cpu_breakdown.json) and print the "
                             "shares")
    parser.add_argument("--trace-flows", action="store_true",
                        help="record per-flow span trees (with "
                             "per-packet child spans) into flows.jsonl")
    parser.add_argument("--max-sessions", type=int, default=None,
                        metavar="N",
                        help="hard cap on tracked connections; the "
                             "least-recently-active one is evicted "
                             "(its connection_state_remove still fires) "
                             "to stay under it")
    parser.add_argument("--session-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="expire connections idle for SECONDS of "
                             "network time (final-flush events still "
                             "delivered)")
    parser.add_argument("--parallel", action="store_true",
                        help="flow-parallel pipeline: hash connections "
                             "to vthreads, analyze on worker lanes, "
                             "merge the logs deterministically")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="parallel worker count (default 4)")
    parser.add_argument("--vthreads", type=int, default=None, metavar="M",
                        help="virtual thread supply (default 4*workers)")
    parser.add_argument("--backend",
                        choices=["vthread", "threaded", "process", "pool"],
                        default=None,
                        help="parallel drive mode: deterministic vthread "
                             "scheduler, real threads, one process per "
                             "worker, or the persistent shared-memory "
                             "worker pool (default: pool on multi-core, "
                             "else process)")
    parser.add_argument("--start-method", choices=["fork", "spawn"],
                        default=None,
                        help="multiprocessing start method for the "
                             "process/pool backends (default: fork "
                             "where available)")
    add_service_args(parser)
    # run_host_service reads the full shared namespace; bro has no
    # reassembly memory budget, so pin its slot to None.
    parser.set_defaults(memory_budget=None)
    args = parser.parse_args(argv)

    scripts = None
    if args.scripts:
        scripts = []
        for name in args.scripts:
            if name in _BUNDLED:
                scripts.append(_BUNDLED[name])
            else:
                with open(name) as stream:
                    scripts.append(stream.read())

    if args.serve:
        def make_app(ns, services):
            return Bro(
                scripts=scripts,
                parsers=ns.parsers,
                scripts_engine="hilti" if ns.compile_scripts else "interp",
                opt_level=ns.opt_level,
                fault_injector=services.faults,
                watchdog_budget=services.watchdog_budget,
                telemetry=services.telemetry,
                max_sessions=services.max_sessions,
                session_ttl=services.session_ttl,
            )

        def make_spec(ns):
            return _make_spec(ns, scripts)

        return run_host_service(args, "bro", make_app, make_spec)

    if args.parallel:
        if args.inject:
            raise SystemExit(
                "bro: --inject is sequential-only (the injector's "
                "per-site random streams diverge across lanes)")
        if args.max_sessions is not None or args.session_ttl is not None:
            raise SystemExit(
                "bro: session bounds (--max-sessions/--session-ttl) are "
                "sequential-only (a global LRU diverges across lanes)")
        from ..apps.bro.parallel import ParallelBro

        bro = ParallelBro(
            scripts=scripts,
            parsers=args.parsers,
            scripts_engine="hilti" if args.compile_scripts else "interp",
            opt_level=args.opt_level,
            workers=args.workers,
            vthreads=args.vthreads,
            backend=args.backend,
            start_method=args.start_method,
            watchdog_budget=args.watchdog,
            telemetry=Telemetry(metrics=args.metrics,
                                trace=args.trace_flows),
        )
        stats = bro.run_pcap(args.read, tolerant=args.tolerant_pcap)
        bro.save_logs(args.logdir)
        written = {
            name: count
            for name, count in bro.log_writes().items()
            if count
        }
    else:
        bro = Bro(
            scripts=scripts,
            parsers=args.parsers,
            scripts_engine="hilti" if args.compile_scripts else "interp",
            opt_level=args.opt_level,
            fault_injector=parse_injections(args.inject, args.fault_seed,
                                            prog="bro"),
            watchdog_budget=args.watchdog,
            telemetry=Telemetry(metrics=args.metrics,
                                trace=args.trace_flows),
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl,
        )
        interrupted = False
        previous = _install_interrupt_handler()
        try:
            stats = bro.run_pcap(args.read, tolerant=args.tolerant_pcap)
        except KeyboardInterrupt:
            # Drain instead of discarding the partial run: finalize the
            # open connections, then fall through to the normal log and
            # telemetry writers below.
            interrupted = True
            try:
                stats = bro.on_end()
            except Exception:
                stats = dict(bro.stats) if bro.stats else {
                    "packets": bro.packets, "events": 0,
                }
        finally:
            _restore_interrupt_handler(previous)
        bro.core.logs.save(args.logdir)
        written = {
            name: stream.writes
            for name, stream in bro.core.logs.streams.items()
            if stream.writes
        }
        if interrupted:
            print(f"bro: interrupted — partial run drained "
                  f"({stats.get('packets', 0)} packets)")
            print(f"processed {stats.get('packets', 0)} packets, "
                  f"{stats.get('events', 0)} events")
            for name, count in sorted(written.items()):
                print(f"  {args.logdir}/{name}.log: {count} entries")
            try:
                write_flowrecords_jsonl(
                    os.path.join(args.logdir, "flow_records.jsonl"),
                    "bro", bro.flow_record_lines())
            except Exception:
                pass
            if args.metrics or args.trace_flows:
                try:
                    for path in bro.write_telemetry(args.logdir):
                        print(f"  wrote {path}")
                except Exception as error:
                    print(f"  telemetry flush incomplete: {error}")
            return EXIT_INTERRUPTED
    print(f"processed {stats['packets']} packets, "
          f"{stats['events']} events")
    if args.parallel:
        print(f"  parallel: {stats['lanes']} lanes on "
              f"{stats['workers']} {stats['backend']} workers "
              f"({stats['vthreads']} vthreads)")
    for name, count in sorted(written.items()):
        print(f"  {args.logdir}/{name}.log: {count} entries")
    record_lines = bro.flow_record_lines()
    records_path = write_flowrecords_jsonl(
        os.path.join(args.logdir, "flow_records.jsonl"), "bro",
        record_lines)
    print(f"  {records_path}: {len(record_lines)} flow records")
    if args.stats:
        for key in ("parsing_ns", "script_ns", "glue_ns", "other_ns"):
            print(f"  {key[:-3]:>8}: {stats[key] / 1e6:10.2f} ms")
    if args.metrics or args.trace_flows:
        for path in bro.write_telemetry(args.logdir):
            print(f"  wrote {path}")
    if args.cpu_breakdown:
        path = os.path.join(args.logdir, "cpu_breakdown.json")
        os.makedirs(args.logdir, exist_ok=True)
        if args.parallel:
            import json

            report = bro.cpu_breakdown()
            with open(path, "w") as stream:
                json.dump(report, stream, indent=2, sort_keys=True)
                stream.write("\n")
        else:
            report = bro.write_cpu_breakdown(path)
        print(f"  wrote {path}")
        print("cpu breakdown:")
        for name in ("parsing", "script", "glue", "other"):
            entry = report["components"][name]
            print(f"  {name:>8}: {entry['share']:6.2f}% "
                  f"({entry['ns'] / 1e6:.2f} ms)")
    if args.health:
        print_health(stats["health"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
