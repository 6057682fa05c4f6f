"""Flow-parallel drive of the Bro pipeline on the vthread scheduler.

The paper's concurrency model (section 3.2) made executable end-to-end:
every connection's 5-tuple hashes to a virtual thread, all analysis for
that flow — connection state, stream reassembly, protocol parsing, event
dispatch, log writes — runs serialized on that vthread's private lane,
and no lane ever touches another lane's state, so the pipeline needs no
program-level locks.  The generic machinery (dispatch plan, the three
drive backends ``vthread``/``threaded``/``process``, lane program,
process fan-out) lives in :mod:`repro.host.parallel`; this module keeps
what is Bro-specific — the lane factory, the multi-stream log harvest,
and the merge that de-duplicates per-lane lifecycle events so totals
match the sequential pipeline's single bro_init/bro_done.

Output determinism is the load-bearing property (the P4Testgen-style
differential oracle of ``tests/integration/test_parallel_pipeline.py``):
connection uids are pre-assigned in global packet-arrival order before
fan-out, per-flow log lines are byte-identical to the sequential
pipeline's, and the ordered merge (lexicographic sort — every line
carries ts+uid) makes the merged logs independent of worker
interleaving.  See ``docs/PARALLELISM.md`` for the full design,
including the small, documented divergences (per-lane lifecycle events,
5-tuple reuse within one trace).
"""

from __future__ import annotations

import io
import os as _os
from typing import Dict, Iterable, List, Optional, Tuple

from ...core.values import Time
from ...host.parallel import (
    LaneSpec,
    ParallelPipeline,
    dispatch_plan as _host_dispatch_plan,
    merge_health,
    prof_snapshots,
)
from ...runtime.telemetry import Telemetry
from .core import format_uid
from .main import Bro

__all__ = ["BroLaneSpec", "ParallelBro", "dispatch_plan",
           "LIFECYCLE_EVENTS"]

#: Events every lane raises once; the merge de-duplicates their counts so
#: totals match the sequential pipeline's single bro_init/bro_done.
LIFECYCLE_EVENTS = ("bro_init", "bro_done")

#: High-water-mark gauges take the max across lanes; everything else sums.
_GAUGE_MERGE = {"bro.flows_peak": "max", "bro.flows_open": "max"}


def _make_lane(config: Dict, uid_map: Dict) -> Bro:
    """One isolated pipeline lane from the picklable *config*."""
    return Bro(
        scripts=config["scripts"],
        parsers=config["parsers"],
        scripts_engine=config["scripts_engine"],
        log_enabled=config["log_enabled"],
        print_stream=io.StringIO(),
        watchdog_budget=config["watchdog_budget"],
        opt_level=config["opt_level"],
        telemetry=Telemetry(metrics=config["metrics"],
                            trace=config["trace"]),
        uid_map=uid_map,
    )


def _lane_result(bro: Bro) -> Dict:
    """Everything the merge needs from one finished lane, as plain data
    (the process backend sends this through a pipe)."""
    logs = {}
    headers = {}
    writes = {}
    for name, stream in bro.core.logs.streams.items():
        logs[name] = list(stream.lines)
        headers[name] = stream.header()
        writes[name] = stream.writes
    tracer = bro.telemetry.tracer
    return {
        "logs": logs,
        "headers": headers,
        "writes": writes,
        "flow_records": bro.flow_record_lines(),
        "stats": dict(bro.stats),
        "events_queued": bro.core.events_queued,
        "events_dispatched": bro.core.events_dispatched,
        "event_counts": dict(bro.core.event_counts),
        "metrics": (bro.telemetry.metrics.collect()
                    if bro.telemetry.enabled else None),
        "prof": (prof_snapshots(bro)
                 if bro.telemetry.enabled else None),
        "trace_roots": ([root.to_dict() for root in tracer.roots]
                        if tracer.enabled else None),
        "prints": bro.core.print_stream.getvalue(),
    }


class BroLaneSpec(LaneSpec):
    """Bro's lane description: 5-tuple sharding (the generic default),
    uids pre-assigned exactly as ``BroCore.next_uid`` would, lanes built
    from the picklable constructor config."""

    app_name = "bro"
    uid_format = staticmethod(format_uid)

    def __init__(self, config: Optional[Dict] = None):
        self.config = config

    def make_lane(self, uid_map: Dict) -> Bro:
        return _make_lane(self.config, uid_map)

    def lane_result(self, app: Bro) -> Dict:
        return _lane_result(app)

    def result_lines_of(self, result: Dict) -> List[str]:
        """Flatten the per-stream logs into one mergeable line stream
        (the service's generic harvest of a pool lane) — the same
        shape ``Bro.result_lines`` gives the thread transport, so the
        two transports' results.log stay byte-identical."""
        lines: List[str] = []
        for stream_lines in result["logs"].values():
            lines.extend(stream_lines)
        return lines


def dispatch_plan(
    packets: Iterable[Tuple[Time, bytes]], vthreads: int, workers: int,
) -> Tuple[List[Tuple[int, int, bytes]], Dict[Tuple, str]]:
    """One pass over the trace: per-packet vthread placement plus the
    global uid pre-assignment (the generic plan with Bro's uid format).
    """
    return _host_dispatch_plan(packets, vthreads, workers,
                               spec=BroLaneSpec())


# --------------------------------------------------------------------------
# The parallel driver
# --------------------------------------------------------------------------


class ParallelBro(ParallelPipeline):
    """A flow-parallel Bro run: same analysis, N isolated lanes.

    Constructor mirrors :class:`Bro` for the picklable subset of its
    configuration, plus the parallel knobs: *workers* (hardware
    parallelism), *vthreads* (virtual-thread supply; defaults to
    ``4 * workers``), *backend* (one of ``vthread``, ``threaded``,
    ``process``, ``pool``; ``None`` resolves to the multi-core default).
    The deterministic fault injector is intentionally not
    plumbed through — its per-site random streams are sequential by
    construction and would diverge per lane.
    """

    GAUGE_MERGE = _GAUGE_MERGE

    def __init__(
        self,
        scripts: Optional[List[str]] = None,
        parsers: str = "std",
        scripts_engine: str = "interp",
        workers: int = 4,
        vthreads: Optional[int] = None,
        backend: Optional[str] = "process",
        log_enabled: bool = True,
        watchdog_budget: Optional[int] = None,
        opt_level: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        start_method: Optional[str] = None,
    ):
        telemetry = telemetry if telemetry is not None else Telemetry()
        config = {
            "scripts": scripts,
            "parsers": parsers,
            "scripts_engine": scripts_engine,
            "log_enabled": log_enabled,
            "watchdog_budget": watchdog_budget,
            "opt_level": opt_level,
            "metrics": telemetry.enabled,
            "trace": telemetry.tracer.enabled,
        }
        super().__init__(BroLaneSpec(config), workers=workers,
                         vthreads=vthreads, backend=backend,
                         telemetry=telemetry, start_method=start_method)
        self._config = config
        self._logs: Dict[str, List[str]] = {}
        self._headers: Dict[str, str] = {}
        self._writes: Dict[str, int] = {}

    # -- the ordered merge --------------------------------------------------

    def _merge(self, total_ns: int) -> None:
        """Reduce per-lane results into one deterministic report.

        Logs merge by lexicographic sort (every line leads with ts and
        carries the pre-assigned uid, so the order is a pure function of
        content, never of worker interleaving).  Counter-like stats sum;
        the per-lane lifecycle events are de-duplicated down to the
        single bro_init/bro_done a sequential run dispatches.
        """
        results = self._results
        lanes = len(results)
        dup = lanes - 1

        self._logs = {}
        self._headers = dict(results[0]["headers"]) if results else {}
        self._writes = {}
        for result in results:
            for name, lines in result["logs"].items():
                self._logs.setdefault(name, []).extend(lines)
            for name, count in result["writes"].items():
                self._writes[name] = self._writes.get(name, 0) + count
        for lines in self._logs.values():
            lines.sort()

        records: List[str] = []
        for result in results:
            records.extend(self.spec.flow_record_lines_of(result))
        records.sort()
        self._flow_records = records

        def stat_sum(key):
            return sum(r["stats"][key] for r in results)

        parsing_ns = stat_sum("parsing_ns")
        script_ns = stat_sum("script_ns")
        glue_ns = stat_sum("glue_ns")
        events_dispatched = (
            sum(r["events_dispatched"] for r in results)
            - len(LIFECYCLE_EVENTS) * dup
        )
        events_queued = (
            sum(r["events_queued"] for r in results)
            - len(LIFECYCLE_EVENTS) * dup
        )
        event_counts: Dict[str, int] = {}
        for result in results:
            for name, count in result["event_counts"].items():
                event_counts[name] = event_counts.get(name, 0) + count
        for name in LIFECYCLE_EVENTS:
            if name in event_counts:
                event_counts[name] -= dup

        self.stats = {
            "total_ns": total_ns,
            "parsing_ns": parsing_ns,
            "script_ns": script_ns,
            "glue_ns": glue_ns,
            "other_ns": max(
                0, total_ns - parsing_ns - script_ns - glue_ns),
            "packets": stat_sum("packets"),
            "events": events_dispatched,
            "events_queued": events_queued,
            "event_counts": event_counts,
            "parser_tier": self._config["parsers"],
            "script_tier": self._config["scripts_engine"],
            "health": self._merge_health(
                [r["stats"]["health"] for r in results]),
            "backend": self.backend,
            "workers": self.workers,
            "vthreads": self.vthreads,
            "lanes": lanes,
            "scheduler_errors": (
                len(self.scheduler.errors) if self.scheduler else 0
            ),
        }

        if self.telemetry.enabled:
            self._merge_metrics(results, lanes)
        self._trace_roots = []
        for result in results:
            if result["trace_roots"]:
                self._trace_roots.extend(result["trace_roots"])

    @staticmethod
    def _merge_health(reports: List[Dict]) -> Dict:
        return merge_health(reports)

    def _merge_metrics(self, results: List[Dict], lanes: int) -> None:
        """Reduce per-lane registries, then repair the handful of series
        whose lane-sum is not the sequential semantic."""
        metrics = self.telemetry.metrics
        for index, result in enumerate(results):
            if result["metrics"]:
                # Twice: once unlabeled (the aggregate the differential
                # oracle compares to the sequential run) and once under
                # a ``worker`` label for per-lane attribution.  The
                # lifecycle de-dup below repairs only the aggregate —
                # the labeled series keep each lane's raw counts.
                metrics.merge_series(result["metrics"],
                                     gauge_merge=_GAUGE_MERGE)
                metrics.merge_series(result["metrics"],
                                     gauge_merge=_GAUGE_MERGE,
                                     extra_labels={"worker": str(index)})
        dup = lanes - 1
        # Lifecycle events ran once per lane; the sequential pipeline
        # dispatches them once.
        for name in LIFECYCLE_EVENTS:
            key = ("bro.events_by_name", (("event", name),))
            series = metrics._series.get(key)
            if series is not None:
                series.value -= dup
        for name in ("bro.events_queued", "bro.events_dispatched"):
            key = (name, ())
            series = metrics._series.get(key)
            if series is not None:
                series.value -= len(LIFECYCLE_EVENTS) * dup
        # CPU attribution: components keep the summed per-lane CPU, but
        # total is this run's wall clock, and "other" its remainder.
        for component in ("parsing", "script", "glue", "other", "total"):
            metrics.gauge("bro.cpu_ns", component=component).set(
                int(self.stats[f"{component}_ns"]))
        for name, value in self._pcap_stats.items():
            metrics.counter(f"pcap.{name}").inc(value)

    # -- results ------------------------------------------------------------

    def log_lines(self, stream: str) -> List[str]:
        """The deterministically merged lines of one log stream."""
        return list(self._logs.get(stream, []))

    def result_lines(self) -> List[str]:
        """Every merged log line, sorted — the byte-identity fingerprint
        stream (mirrors ``Bro.result_lines``)."""
        lines: List[str] = []
        for stream_lines in self._logs.values():
            lines.extend(stream_lines)
        return sorted(lines)

    def print_lines(self) -> List[str]:
        """Merged per-lane script ``print`` output (sorted)."""
        lines: List[str] = []
        for result in self._results:
            text = result.get("prints", "")
            if text:
                lines.extend(text.splitlines())
        return sorted(lines)

    def save_logs(self, directory: str) -> None:
        """Write the merged logs in the sequential pipeline's format."""
        _os.makedirs(directory, exist_ok=True)
        for name, header in self._headers.items():
            path = _os.path.join(directory, f"{name}.log")
            with open(path, "w") as out:
                out.write("\n".join([header, *self._logs.get(name, [])]))
                out.write("\n")

    def log_writes(self) -> Dict[str, int]:
        return dict(self._writes)

    def cpu_breakdown(self, config: Optional[Dict] = None) -> Dict:
        from ...runtime.telemetry import cpu_breakdown_report

        if not self.stats:
            raise RuntimeError("cpu_breakdown() requires a completed run")
        if config is None:
            config = {
                "parsers": self._config["parsers"],
                "scripts_engine": self._config["scripts_engine"],
                "backend": self.backend,
                "workers": self.workers,
            }
        return cpu_breakdown_report(self.stats, config=config)

    def write_telemetry(self, logdir: str,
                        meta: Optional[Dict] = None) -> List[str]:
        """Emit the merged reporting files (``metrics.jsonl``,
        ``stats.log``, ``prof.log`` when lanes carried profiler dumps,
        and ``flows.jsonl`` when tracing is armed).  The profiler dump
        is sectioned per worker (``# worker N context L``), not
        merged."""
        import json as _json

        from ...host.pipeline import (write_metrics_jsonl,
                                      write_parallel_prof_log,
                                      write_stats_log)
        from ...net.flowrecord import write_flowrecords_jsonl

        _os.makedirs(logdir, exist_ok=True)
        written: List[str] = []
        if meta is None:
            meta = {
                "parsers": self._config["parsers"],
                "scripts_engine": self._config["scripts_engine"],
                "backend": self.backend,
                "workers": self.workers,
                "vthreads": self.vthreads,
            }
        written.append(write_metrics_jsonl(
            _os.path.join(logdir, "metrics.jsonl"),
            self.telemetry.metrics, meta=meta))

        sections = {
            "parallel": {
                "backend": self.backend,
                "workers": self.workers,
                "vthreads": self.vthreads,
                "lanes": self.stats.get("lanes", 0),
            },
        }
        written.append(write_stats_log(
            _os.path.join(logdir, "stats.log"), self.stats, sections))

        written.append(write_flowrecords_jsonl(
            _os.path.join(logdir, "flow_records.jsonl"),
            self.spec.app_name, self._flow_records))

        if any(result.get("prof") for result in self._results):
            written.append(write_parallel_prof_log(
                _os.path.join(logdir, "prof.log"), self._results))

        if self._trace_roots:
            path = _os.path.join(logdir, "flows.jsonl")
            lines = sorted(
                _json.dumps(root, sort_keys=True)
                for root in self._trace_roots
            )
            with open(path, "w") as stream:
                for line in lines:
                    stream.write(line + "\n")
            written.append(path)
        return written
