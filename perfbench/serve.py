"""The ``bro-std-serve`` child: the std Bro app behind ``HostService``.

    python perfbench/serve.py --trace PCAP --out RESULT.json --workdir DIR
        --phase RATE:PACKETS [--phase RATE:PACKETS ...] [--trace-out DIR]
        [--spawned MONO]

Two thread lanes with the ``shed`` overload policy are fed by an
open-loop generator: packets of the looped trace are due on a fixed
schedule, phase by phase (one rate below capacity, one far above), and
the generator never slows down because the service does.  Only the
first phase is timed per packet: a packet's latency runs from its
*due* time to the return of its lane's ``on_packet``, so a stall also
charges the packets queued behind it, and ``late`` records how far
behind its own schedule the generator ran.  Later phases keep no
per-packet state, so the process's memory does not grow with the
packets shed there.

The process confines itself to one CPU.  The lanes are threads that
take turns on one interpreter lock, so they gain nothing from a second
CPU; on one CPU the lock changes hands without cross-core wake-ups and
the generator keeps its schedule far more tightly.

With ``--trace-out`` the layer wrappers of :mod:`tracer` are installed
and this process's spans are written there at the end.
"""

from __future__ import annotations

import time

_STARTED_MONO = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import percentile  # noqa: E402

LANES = 2
QUEUE_CAPACITY = 512


class OpenLoopSource:
    """Yields trace records on a fixed per-phase schedule.

    *phases* is a list of ``(rate_pps, packets)``.  The schedule starts
    once every lane has begun (*ready*), so set-up never counts as
    latency.  Each phase ends at its scheduled end: packets a generator
    running behind could not send by then are never sent, so a phase
    above what the generator sustains still lasts its scheduled time
    and offers as much as the generator could.  At each phase boundary
    the service totals and the process's peak RSS so far are snapshot.
    Packets of the first phase are entered in *pending* with their due
    time, and the generator's lateness is kept for that phase only.
    """

    def __init__(self, replayer, phases, ready: threading.Event,
                 pending: dict):
        self.replayer = replayer
        self.phases = phases
        self.ready = ready
        self.pending = pending
        self.service = None
        self.late_ns = []  # first phase, per packet sent
        self.snapshots = []  # (perf_counter_ns, totals, peak RSS KiB)

    def __iter__(self):
        clock = time.perf_counter_ns
        if not self.ready.wait(timeout=120.0):
            raise RuntimeError("service lanes never began")
        records = iter(self.replayer)
        start = clock()
        for phase, (rate, count) in enumerate(self.phases):
            self.snapshots.append(self._snapshot())
            interval = 1e9 / rate
            end = start + int(count * interval)
            timed = phase == 0
            for index in range(count):
                due = start + int(index * interval)
                now = clock()
                if now >= end:
                    break
                if due > now:
                    time.sleep((due - now) / 1e9)
                    now = clock()
                timestamp, frame = next(records)
                if timed:
                    self.late_ns.append(now - due)
                    self.pending[id(timestamp)] = (due, timestamp)
                yield timestamp, frame
            start = end
        self.snapshots.append(self._snapshot())

    def _snapshot(self):
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return time.perf_counter_ns(), self.service.totals(), peak_kb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="serve")
    parser.add_argument("--trace", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--phase", action="append", required=True,
                        metavar="RATE:PACKETS")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--spawned", type=float, default=None)
    ns = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    phases = []
    for text in ns.phase:
        rate, count = text.split(":")
        phases.append((float(rate), int(count)))

    import_begin = time.perf_counter_ns()
    from repro.apps.bro.main import Bro
    from repro.host.service import HostService, ServiceConfig
    from repro.net.replay import TraceReplayer
    import_end = time.perf_counter_ns()

    recorder = installation = None
    if ns.trace_out is not None:
        import tracer

        recorder = tracer.Recorder(ns.trace_out)
        installation = tracer.install(recorder)
        recorder.mark("setup.import", import_begin, import_end)
    run_begin = time.perf_counter_ns()

    clock = time.perf_counter_ns
    ready = threading.Event()
    begun = []
    pending = {}
    latencies = []  # first phase

    class TimedBro(Bro):
        """Bro that stamps when it has begun and when each packet is
        done (the benchmark's probe; analysis is unchanged)."""

        def on_begin(self):
            result = super().on_begin()
            begun.append(time.monotonic())
            if len(begun) >= LANES:
                ready.set()
            return result

        def on_packet(self, timestamp, frame):
            result = super().on_packet(timestamp, frame)
            entry = pending.pop(id(timestamp), None)
            if entry is not None:
                latencies.append(clock() - entry[0])
            return result

    def make_app(services):
        return TimedBro(
            scripts=None,
            parsers="std",
            scripts_engine="interp",
            fault_injector=services.faults,
            watchdog_budget=services.watchdog_budget,
            telemetry=services.telemetry,
            max_sessions=services.max_sessions,
            session_ttl=services.session_ttl,
        )

    source = OpenLoopSource(TraceReplayer(ns.trace, loops=None), phases,
                            ready, pending)
    config = ServiceConfig(lanes=LANES, lane_transport="thread",
                           queue_capacity=QUEUE_CAPACITY, overload="shed",
                           http_port=None,
                           logdir=os.path.join(ns.workdir, "logs"),
                           app_name="bro")
    service = HostService(make_app, source, config)
    source.service = service
    code = service.serve()
    run_end = time.perf_counter_ns()
    totals = service.totals()

    if recorder is not None:
        tracer.restore(installation)
        recorder.extra.update({
            "import_ns": import_end - import_begin,
            "run_ns": run_end - run_begin,
            "spawn_s": (_STARTED_MONO - ns.spawned
                        if ns.spawned is not None else 0.0),
        })
        if len(source.snapshots) > 1:
            recorder.extra["below_end_ns"] = source.snapshots[1][0]
        recorder.flush()

    phase_reports = []
    for index, (rate, count) in enumerate(phases):
        (t0, before, __), (t1, after, peak_kb) = \
            source.snapshots[index:index + 2]
        offered = after["packets_ingested"] - before["packets_ingested"]
        phase_reports.append({
            "rate": rate,
            "packets": count,
            "offered": offered,
            "processed": (after["packets_processed"]
                          - before["packets_processed"]),
            "shed": after["packets_shed"] - before["packets_shed"],
            "elapsed_s": (t1 - t0) / 1e9,
            "peak_rss_mb": peak_kb / 1024.0,
        })
    phase_reports[0].update({
        "lat_p50_ms": percentile(latencies, 0.50) / 1e6,
        "lat_p99_ms": percentile(latencies, 0.99) / 1e6,
        "latency_samples": len(latencies),
        "late_ms_p99": percentile(source.late_ns, 0.99) / 1e6,
    })
    report = {
        "begun_mono": max(begun) if len(begun) >= LANES else None,
        "totals": totals,
        "phases": phase_reports,
    }
    with open(ns.out, "w") as stream:
        json.dump(report, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
