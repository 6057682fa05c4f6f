"""Per-layer metrics from a traced run's span dumps.

Each traced process leaves ``proc-<pid>.json`` (names, counters, thread
list) and one ``.bin`` span array per thread in the trace directory
(see :mod:`tracer`).  :func:`analyze` folds them into the per-layer
metrics of ``BENCHMARK.json`` and :func:`cross_check` compares the
traced counts with the program's own counters.

Self time is a span's duration minus the durations of its child spans.
Every metric named ``*_ns_per_*`` or ``*_s`` is self time unless the
layer table in ``perfbench/README.md`` says inclusive.  A layer a
workload never enters reports 0.
"""

from __future__ import annotations

import array
import glob
import json
import os
import statistics
from typing import Dict, List

from common import percentile
from tracer import FIELDS

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = [
    ("pcap.ns_per_pkt", "ns"), ("pcap.records", "count"),
    ("packet.ns_per_pkt", "ns"), ("packet.parses_per_pkt", "ratio"),
    ("flowtable.ns_per_pkt", "ns"), ("flowtable.flows_opened", "count"),
    ("flowtable.flows_closed", "count"),
    ("reassembly.ns_per_seg", "ns"), ("reassembly.segments", "count"),
    ("reassembly.bytes_out", "bytes"),
    ("analyzer.ns_per_call", "ns"), ("analyzer.calls", "count"),
    ("binpac.ns_per_feed", "ns"), ("binpac.feeds", "count"),
    ("codegen.instructions", "count"),
    ("codegen.blocks_dispatched", "count"),
    ("codegen.segments_dispatched", "count"),
    ("codegen.ns_per_instr", "ns"),
    ("toolchain.compiles", "count"), ("toolchain.compile_s", "s"),
    ("script.ns_per_event", "ns"), ("script.events", "count"),
    ("glue.ns_per_event", "ns"), ("glue.conversions", "count"),
    ("events.self_ns_per_event", "ns"),
    ("logging.ns_per_line", "ns"), ("logging.lines", "count"),
    ("bpf.filter_ns_per_pkt", "ns"),
    ("parallel.dispatch_s", "s"), ("parallel.merge_s", "s"),
    ("parallel.lane_skew", "ratio"),
    ("pool.run_s", "s"), ("ring.push_wait_s", "s"), ("ring.pops", "count"),
    ("pool.worker_busy_frac", "ratio"),
    ("service.queue_wait_ms_p50", "ms"), ("service.queue_wait_ms_p99", "ms"),
    ("service.queue_depth_max", "count"),
    ("service.ingest_ns_per_pkt", "ns"),
    ("setup.import_s", "s"), ("setup.spawn_s", "s"),
    ("other.frac", "ratio"), ("trace.overhead_frac", "ratio"),
    ("gen.late_ms", "ms"), ("lat_p99_ms", "ms"), ("shed_frac", "ratio"),
]

#: Span names grouped by the layer metric they feed.
_FLOWTABLE = ("flowtable.account", "flowtable.open", "flowtable.close",
              "flowtable.run_eviction", "flowtable.finish")
_ANALYZERS = ("analyzer.http_std", "analyzer.dns_std", "analyzer.http_pac",
              "analyzer.dns_pac")
_CODEGEN = ("codegen.call", "codegen.run_hook", "codegen.resume")
_SCRIPT = ("script.interp", "script.compiled")
_GLUE = ("glue.to_hilti", "glue.from_hilti")


class _Agg:
    __slots__ = ("calls", "self_ns", "incl_ns", "value")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.value = 0


def _thread_spans(path: str) -> array.array:
    spans = array.array("q")
    with open(path, "rb") as stream:
        spans.frombytes(stream.read())
    return spans


def load(trace_dir: str) -> List[Dict]:
    """Every process dump in *trace_dir*, root process first."""
    procs = []
    for meta_path in sorted(glob.glob(os.path.join(trace_dir,
                                                   "proc-*.json"))):
        with open(meta_path) as stream:
            meta = json.load(stream)
        meta["spans"] = [
            (thread["name"],
             _thread_spans(os.path.join(trace_dir, thread["spans"])))
            for thread in meta["threads"]
        ]
        procs.append(meta)
    procs.sort(key=lambda meta: meta["is_worker"])
    return procs


def _fold(names: List[str], spans: array.array, aggs: Dict[str, _Agg]):
    """Add one thread's spans into *aggs*; returns (root ns, first start,
    last end, {name: total duration})."""
    count = len(spans) // FIELDS
    durations = [spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
                 for i in range(count)]
    children = [0] * count
    root_ns = 0
    for i in range(count):
        parent = spans[i * FIELDS + 3]
        if parent >= 0:
            children[parent // FIELDS] += durations[i]
        else:
            root_ns += durations[i]
    by_name: Dict[str, int] = {}
    for i in range(count):
        name = names[spans[i * FIELDS]]
        agg = aggs.get(name)
        if agg is None:
            agg = aggs[name] = _Agg()
        agg.calls += 1
        agg.incl_ns += durations[i]
        agg.self_ns += durations[i] - children[i]
        agg.value += spans[i * FIELDS + 4]
        by_name[name] = by_name.get(name, 0) + durations[i]
    first = spans[1] if count else 0
    last = max((spans[i * FIELDS + 2] for i in range(count)), default=0)
    return root_ns, first, last, by_name


def analyze(procs: List[Dict], packets: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run over *packets* packets."""
    aggs: Dict[str, _Agg] = {}
    uncovered = 0
    denominator = 0
    busy_fracs = []
    lane_counts: List[List[int]] = []
    queue_waits: List[int] = []
    depth_max = 0
    push_wait_ns = 0
    root_extra: Dict[str, float] = {}
    for proc in procs:
        names = proc["names"]
        lane_counts.extend(proc["lane_counts"])
        pairs = proc["queue_waits_ns"]
        # Only items enqueued before the service's overload phase, when
        # the run marks one: full queues there measure the policy, not
        # the queueing an operator sees below capacity.
        cutoff = proc["extra"].get("below_end_ns")
        queue_waits.extend(
            pairs[i + 1] for i in range(0, len(pairs), 2)
            if cutoff is None or pairs[i] < cutoff)
        depth_max = max(depth_max, proc["queue_depth_max"])
        lifetime = proc["flushed_ns"] - proc["started_ns"]
        for thread_name, spans in proc["spans"]:
            root_ns, first, last, by_name = _fold(names, spans, aggs)
            if proc["is_worker"]:
                if thread_name == "MainThread":
                    denominator += lifetime
                    uncovered += lifetime - root_ns
                    busy_fracs.append(
                        1.0 - by_name.get("ring.pop", 0) / lifetime)
                continue
            push_wait_ns += by_name.get("ring.push_wait", 0)
            if thread_name.startswith("service-lane-") and last > first:
                denominator += last - first
                uncovered += (last - first) - root_ns
            elif thread_name == "MainThread" and "run_ns" in proc["extra"]:
                # The harness-timed import plus main() are the run.
                span = proc["extra"]["run_ns"]
                denominator += span
                uncovered += span - root_ns
        if not proc["is_worker"]:
            root_extra = proc["extra"]

    def agg(*names_: str) -> _Agg:
        total = _Agg()
        for name in names_:
            one = aggs.get(name)
            if one is not None:
                total.calls += one.calls
                total.self_ns += one.self_ns
                total.incl_ns += one.incl_ns
                total.value += one.value
        return total

    def per(numerator: float, denominator_: float) -> float:
        return numerator / denominator_ if denominator_ else 0.0

    pcap = agg("pcap.read")
    parse = agg("packet.parse")
    flowtable = agg(*_FLOWTABLE)
    reassembly = agg("reassembly.feed")
    analyzers = agg(*_ANALYZERS)
    binpac = agg("binpac.feed")
    codegen = agg(*_CODEGEN)
    script = agg(*_SCRIPT)
    glue = agg(*_GLUE)
    counters = sum_counters(procs)
    skew = 0.0
    if lane_counts:
        counts = lane_counts[-1]
        mean = sum(counts) / len(counts)
        skew = max(counts) / mean if mean else 0.0
    ingest = agg("service.flow_of", "service.offer", "service.put")
    offered = agg("service.offer", "service.put").calls
    return {
        "pcap.ns_per_pkt": per(pcap.self_ns, pcap.value),
        "pcap.records": pcap.value,
        "packet.ns_per_pkt": per(parse.self_ns, packets),
        "packet.parses_per_pkt": per(parse.calls, packets),
        "flowtable.ns_per_pkt": per(flowtable.self_ns, packets),
        "flowtable.flows_opened": agg("flowtable.open").calls,
        "flowtable.flows_closed": agg("flowtable.close").value,
        "reassembly.ns_per_seg": per(reassembly.self_ns, reassembly.calls),
        "reassembly.segments": reassembly.calls,
        "reassembly.bytes_out": reassembly.value,
        "analyzer.ns_per_call": per(analyzers.self_ns, analyzers.calls),
        "analyzer.calls": analyzers.calls,
        "binpac.ns_per_feed": per(binpac.incl_ns, binpac.calls),
        "binpac.feeds": binpac.calls,
        "codegen.instructions": codegen.value,
        "codegen.blocks_dispatched": counters["blocks_dispatched"],
        "codegen.segments_dispatched": counters["segments_dispatched"],
        "codegen.ns_per_instr": per(codegen.self_ns, codegen.value),
        "toolchain.compiles": agg("toolchain.hiltic").calls,
        "toolchain.compile_s": agg("toolchain.hiltic").incl_ns / 1e9,
        "script.ns_per_event": per(script.self_ns, script.calls),
        "script.events": script.calls,
        "glue.ns_per_event": per(glue.self_ns, script.calls),
        "glue.conversions": glue.calls,
        "events.self_ns_per_event": per(agg("events.drain").self_ns,
                                        script.calls),
        "logging.ns_per_line": per(agg("logging.write").self_ns,
                                   agg("logging.write").calls),
        "logging.lines": agg("logging.write").calls,
        "bpf.filter_ns_per_pkt": per(agg("bpf.filter").incl_ns, packets),
        "parallel.dispatch_s": agg("parallel.dispatch").incl_ns / 1e9,
        "parallel.merge_s": agg("parallel.run_pcap").self_ns / 1e9,
        "parallel.lane_skew": skew,
        "pool.run_s": agg("pool.run").incl_ns / 1e9,
        "ring.push_wait_s": push_wait_ns / 1e9,
        "ring.pops": agg("ring.pop").value,
        "pool.worker_busy_frac": (statistics.fmean(busy_fracs)
                                  if busy_fracs else 0.0),
        "service.queue_wait_ms_p50": percentile(queue_waits, 0.50) / 1e6,
        "service.queue_wait_ms_p99": percentile(queue_waits, 0.99) / 1e6,
        "service.queue_depth_max": depth_max,
        "service.ingest_ns_per_pkt": per(ingest.incl_ns, offered),
        "setup.import_s": root_extra.get("import_ns", 0) / 1e9,
        "setup.spawn_s": root_extra.get("spawn_s", 0.0),
        "other.frac": per(uncovered, denominator),
    }


def sum_counters(procs: List[Dict]) -> Dict[str, int]:
    """The program's own counters summed over every process."""
    total: Dict[str, int] = {}
    for proc in procs:
        for key, value in proc["counters"].items():
            total[key] = total.get(key, 0) + value
    return total


def cross_check(metrics: Dict[str, float], procs: List[Dict],
                packets: int) -> List[str]:
    """Traced counts that disagree with the program's counters (each
    mismatch means a wrapper missed a code path)."""
    counters = sum_counters(procs)
    problems = []

    def expect(label: str, traced, program) -> None:
        if traced != program:
            problems.append(f"{label}: traced {traced} != program {program}")

    expect("pcap.records vs trace packets", metrics["pcap.records"], packets)
    expect("script.events vs events_dispatched", metrics["script.events"],
           counters["events_dispatched"])
    expect("codegen.instructions vs sum(ctx.instr_count)",
           metrics["codegen.instructions"], counters["instr_count"])
    expect("toolchain.compiles vs compiled programs built",
           metrics["toolchain.compiles"], counters["programs"])
    return problems


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over several traced runs."""
    if not runs:
        return {}
    return {name: statistics.median(run[name] for run in runs)
            for name in runs[0]}
