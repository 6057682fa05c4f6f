"""Flow-parallel drive of any :class:`HostApp` on the vthread scheduler.

The paper's concurrency model (section 3.2), generalized from the Bro
exemplar to the whole substrate: packets hash to virtual threads, each
vthread's lane runs one isolated app instance, and no lane touches
another lane's state.  Four drive backends execute the same dispatch
plan:

* ``vthread`` — the deterministic differential oracle
  (``Scheduler.run_until_idle`` on one OS thread);
* ``threaded`` — the same jobs on real ``threading`` workers;
* ``process`` — a ``multiprocessing`` fan-out, one subprocess per
  worker, results reduced at join;
* ``pool`` — the persistent shared-memory worker pool
  (:mod:`repro.host.pool`): workers spawn once and stay hot across
  runs, packets travel as length-prefixed batches through SPSC rings.
  The default on multi-core hosts (:func:`default_backend`).

What varies per application lives in a picklable :class:`LaneSpec`: how
to build a lane (``make_lane``), how to harvest it (``lane_result``),
how packets map to flows and vthreads (``flow_of`` / ``key_of`` /
``place`` — the firewall shards by host *pair* instead of 5-tuple so its
dynamic-rule state stays lane-local), and how per-flow uids are
pre-assigned in global arrival order (``uid_format``).

Output determinism is the load-bearing property: merged result lines are
sorted lexicographically, so the merge is a pure function of content,
never of worker interleaving — byte-identical to the sequential
pipeline.  See ``docs/PARALLELISM.md``.
"""

from __future__ import annotations

import os as _os
import time as _time
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.values import Time
from ..net.flows import FlowKey, frame_flow_key, placement
from ..runtime.telemetry import Telemetry

__all__ = [
    "LaneSpec",
    "ParallelPipeline",
    "default_backend",
    "dispatch_plan",
    "merge_health",
    "prof_snapshots",
    "usable_cpus",
]

_BACKENDS = ("vthread", "threaded", "process", "pool")


def usable_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(_os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return _os.cpu_count() or 1


def default_backend() -> str:
    """The backend ``--parallel`` picks when none is named: the
    persistent pool wherever real parallelism exists, the classic
    one-shot process fan-out on a single-CPU box (where hot workers
    buy nothing and the pool's resident processes are pure cost)."""
    return "pool" if usable_cpus() > 1 else "process"


class LaneSpec:
    """Picklable description of one application's parallel lanes."""

    #: Metrics namespace of the app (used by the generic merge to repair
    #: the per-component CPU gauges after summing lanes).
    app_name = "app"

    #: ``None`` (no uid pre-assignment) or a callable ``serial -> str``.
    uid_format = None

    #: Flow-record uid pre-assignment for apps whose sharding key is
    #: *not* the 5-tuple (or that assign no app uids at all): ``None``
    #: when ``uid_format`` already covers flow keys, else a callable
    #: ``serial -> str`` applied per first-sighted flow key.
    record_uid_format = None

    # -- flow placement (the Bro defaults; apps may reshard) --------------

    def flow_of(self, frame: bytes) -> Optional[FlowKey]:
        """The frame's :data:`~repro.net.flows.FlowKey` — the same key
        the lanes' flow tables use, so pre-assigned uids resolve across
        process boundaries — or ``None`` for stray frames (lane 0)."""
        info = frame_flow_key(frame)
        return info[0] if info is not None else None

    def key_of(self, key: FlowKey) -> Tuple:
        """The state-locality key lanes shard by."""
        return key

    def place(self, key: FlowKey, vthreads: int, workers: int) -> int:
        """First-sight placement: the flow's vthread id."""
        vid, __ = placement(key, vthreads, workers)
        return vid

    # -- lane lifecycle ---------------------------------------------------

    def make_lane(self, uid_map: Dict):
        """Build one isolated app instance (a :class:`HostApp`)."""
        raise NotImplementedError

    def lane_result(self, app) -> Dict:
        """Everything the merge needs from one finished lane, as plain
        data (the process backend sends this through a pipe)."""
        tracer = app.telemetry.tracer
        return {
            "lines": app.result_lines(),
            "flow_records": app.flow_record_lines(),
            "stats": dict(app.stats),
            "metrics": (app.telemetry.metrics.collect()
                        if app.telemetry.enabled else None),
            "prof": (prof_snapshots(app)
                     if app.telemetry.enabled else None),
            "trace_roots": ([root.to_dict() for root in tracer.roots]
                            if tracer.enabled else None),
        }

    def result_lines_of(self, result: Dict) -> List[str]:
        """The mergeable output lines inside one :meth:`lane_result`
        payload.  The default reads the generic ``lines`` key; apps
        with richer payloads (Bro's per-stream logs) override this so
        generic harvesters — the service's pool lanes — need no
        app-specific knowledge."""
        return list(result["lines"])

    def flow_record_lines_of(self, result: Dict) -> List[str]:
        """The lane's sealed flow-record lines inside one
        :meth:`lane_result` payload."""
        return list(result.get("flow_records") or [])


def dispatch_plan(
    packets: Iterable[Tuple[Time, bytes]], vthreads: int, workers: int,
    spec: Optional[LaneSpec] = None,
) -> Tuple[List[Tuple[int, int, bytes]], Dict[Tuple, str]]:
    """One pass over the trace: per-packet vthread placement plus the
    global uid pre-assignment.

    Returns ``(jobs, uid_map)`` where *jobs* is ``(vid, nanos, frame)``
    per packet (frames with no flow ride on vthread 0, where the lane
    counts them exactly like the sequential pipeline) and *uid_map*
    assigns each flow key the uid the sequential run's counter would
    have produced — allocated in first-packet arrival order.
    """
    spec = spec if spec is not None else LaneSpec()
    jobs: List[Tuple[int, int, bytes]] = []
    uid_map: Dict[Tuple, str] = {}
    vids: Dict[Tuple, int] = {}
    serial = 0
    record_serial = 0
    for timestamp, frame in packets:
        flow = spec.flow_of(frame)
        if flow is None:
            jobs.append((0, timestamp.nanos, frame))
            continue
        key = spec.key_of(flow)
        vid = vids.get(key)
        if vid is None:
            vid = spec.place(flow, vthreads, workers)
            vids[key] = vid
            serial += 1
            if spec.uid_format is not None:
                uid_map[key] = spec.uid_format(serial)
        if spec.record_uid_format is not None:
            # Flow-record uids ride the same map under the flow's own
            # 5-tuple key — disjoint from ``key_of`` keys when the app
            # shards by something else (the firewall's host pairs),
            # identical when it shards by 5-tuple.
            if flow not in uid_map:
                record_serial += 1
                uid_map[flow] = spec.record_uid_format(record_serial)
        jobs.append((vid, timestamp.nanos, frame))
    return jobs, uid_map


def prof_snapshots(app) -> List[Tuple[str, str]]:
    """Render every engine context's profiler dump to text, labeled —
    the picklable form a lane result carries so parents can assemble a
    per-worker ``prof.log`` without shipping live contexts across the
    process boundary."""
    import io as _io

    out: List[Tuple[str, str]] = []
    for label, ctx in app.engine_contexts():
        buf = _io.StringIO()
        ctx.profilers.dump(buf)
        out.append((label, buf.getvalue()))
    return out


def merge_health(reports: List[Dict]) -> Dict:
    """Reduce per-lane HealthReport dicts into one."""
    merged = {
        "flows_quarantined": 0,
        "records_skipped": 0,
        "watchdog_trips": 0,
        "injected_faults": 0,
        "tier_fallback": False,
        "breaker": {"flows": 0, "violations": 0,
                    "threshold": None, "tripped": False},
        "site_errors": {},
    }
    for report in reports:
        for key in ("flows_quarantined", "records_skipped",
                    "watchdog_trips", "injected_faults"):
            merged[key] += report[key]
        merged["tier_fallback"] = (
            merged["tier_fallback"] or report["tier_fallback"])
        breaker = report["breaker"]
        merged["breaker"]["flows"] += breaker["flows"]
        merged["breaker"]["violations"] += breaker["violations"]
        if merged["breaker"]["threshold"] is None:
            merged["breaker"]["threshold"] = breaker["threshold"]
        merged["breaker"]["tripped"] = (
            merged["breaker"]["tripped"] or breaker["tripped"])
        for site, count in report["site_errors"].items():
            merged["site_errors"][site] = (
                merged["site_errors"].get(site, 0) + count)
    return merged


# --------------------------------------------------------------------------
# Lanes: one isolated app instance per vthread (or per process worker)
# --------------------------------------------------------------------------


class _LaneProgram:
    """Adapts per-flow packet analysis to the scheduler's program
    interface: contexts are app lanes, jobs are packets."""

    def __init__(self, spec: LaneSpec, uid_map: Dict):
        self._spec = spec
        self._uid_map = uid_map

    def make_context(self, vthread_id: int):
        lane = self._spec.make_lane(self._uid_map)
        lane.on_begin()
        return lane

    def init_context(self, lane) -> None:
        pass

    def call(self, lane, function: str, args: List) -> None:
        if function != "packet":
            raise ValueError(f"unknown lane job {function!r}")
        nanos, frame = args
        lane.on_packet(Time.from_nanos(nanos), frame)


# The subprocess entry bodies live in :mod:`repro.host.worker`, which
# is import-side-effect-free — the property that makes the ``spawn``
# start method safe (the child imports the entry's module before the
# target runs; importing *this* module would drag the whole substrate
# in).  Like ``multiprocessing``, the scheduler, the pool and the ring,
# it is imported inside the backend that uses it, so a spec-only
# import of this module (``LaneSpec`` subclasses) stays light.


# --------------------------------------------------------------------------
# The parallel driver
# --------------------------------------------------------------------------


class ParallelPipeline:
    """A flow-parallel run of one app: same analysis, N isolated lanes.

    *workers* is the hardware parallelism, *vthreads* the virtual-thread
    supply (defaults to ``4 * workers``), *backend* one of ``vthread``,
    ``threaded``, ``process``, ``pool`` (``None`` resolves via
    :func:`default_backend`).  The deterministic fault injector is
    intentionally not plumbed through — its per-site random streams are
    sequential by construction and would diverge per lane.

    *start_method* overrides the multiprocessing start method for the
    ``process`` and ``pool`` backends (default: ``fork`` where the
    platform has it, else ``spawn``); *join_timeout* bounds how long a
    run waits for any worker's result before declaring it lost — a
    worker killed mid-run is reaped, its unretired jobs are counted in
    :attr:`jobs_lost`, and the run fails with a diagnostic instead of
    hanging the join.
    """

    #: Gauge series whose lane-merge takes the max instead of the sum.
    GAUGE_MERGE: Dict[str, str] = {"health.breaker_tripped": "max"}

    def __init__(
        self,
        spec: LaneSpec,
        workers: int = 4,
        vthreads: Optional[int] = None,
        backend: Optional[str] = "process",
        telemetry: Optional[Telemetry] = None,
        start_method: Optional[str] = None,
        join_timeout: float = 60.0,
    ):
        if backend is None:
            backend = default_backend()
        if backend not in _BACKENDS:
            raise ValueError(f"unknown parallel backend {backend!r}")
        if workers < 1:
            raise ValueError("parallel pipeline needs at least one worker")
        self.spec = spec
        self.workers = workers
        self.vthreads = vthreads if vthreads is not None else 4 * workers
        if self.vthreads < workers:
            raise ValueError("vthreads must be >= workers")
        self.backend = backend
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.start_method = start_method
        self.join_timeout = join_timeout
        self.stats: Dict[str, object] = {}
        #: The vthread backends' ``Scheduler`` once a run finished.
        self.scheduler = None
        #: Packets handed to workers that died before retiring them
        #: (conservation diagnostic populated when a run fails).
        self.jobs_lost = 0
        self._results: List[Dict] = []
        self._lines: List[str] = []
        self._flow_records: List[str] = []
        self._trace_roots: List[Dict] = []
        self._pcap_stats: Dict[str, int] = {}

    # -- running ------------------------------------------------------------

    def run(self, packets: Iterable[Tuple[Time, bytes]]) -> Dict:
        """Process a trace across all lanes; returns the merged stats."""
        begin = _time.perf_counter_ns()
        jobs, uid_map = dispatch_plan(packets, self.vthreads, self.workers,
                                      spec=self.spec)
        if self.backend == "pool":
            self._run_pool(jobs, uid_map)
        elif self.backend == "process":
            self._run_process(jobs, uid_map)
        else:
            self._run_scheduler(jobs, uid_map,
                                threaded=self.backend == "threaded")
        self._merge(_time.perf_counter_ns() - begin)
        return self.stats

    def run_pcap(self, path: str, tolerant: bool = False,
                 shard_dir: Optional[str] = None) -> Dict:
        """Drive the lanes from a pcap trace.

        With *shard_dir* (process backend only) the trace is fanned out
        into per-worker pcap shard files which the workers read
        themselves — the scalable route for traces that should not live
        in the parent's memory twice.
        """
        from ..net.pcap import PcapReader

        if shard_dir is not None and self.backend != "process":
            raise ValueError("pcap sharding requires the process backend")
        begin = _time.perf_counter_ns()
        with PcapReader(path, tolerant=tolerant) as reader:
            jobs, uid_map = dispatch_plan(reader, self.vthreads,
                                          self.workers, spec=self.spec)
            self._pcap_stats = {
                "records_read": reader.packets_read,
                "records_skipped": reader.records_skipped,
                "resyncs": reader.resyncs,
            }
        if shard_dir is not None:
            shards = self._write_shards(jobs, shard_dir)
            self._run_process(jobs, uid_map, shard_paths=shards)
        elif self.backend == "pool":
            self._run_pool(jobs, uid_map)
        elif self.backend == "process":
            self._run_process(jobs, uid_map)
        else:
            self._run_scheduler(jobs, uid_map,
                                threaded=self.backend == "threaded")
        self._merge(_time.perf_counter_ns() - begin)
        skipped = self._pcap_stats["records_skipped"]
        if skipped:
            self.stats["health"]["records_skipped"] += skipped
        return self.stats

    def _write_shards(self, jobs, shard_dir: str) -> List[str]:
        """Fan the dispatch plan out into per-worker pcap shard files."""
        from ..net.pcap import PcapWriter

        _os.makedirs(shard_dir, exist_ok=True)
        paths = [_os.path.join(shard_dir, f"shard-{i:03d}.pcap")
                 for i in range(self.workers)]
        writers = [PcapWriter(p, nanos=True) for p in paths]
        try:
            for vid, nanos, frame in jobs:
                writers[vid % self.workers].write(
                    Time.from_nanos(nanos), frame)
        finally:
            for writer in writers:
                writer.close()
        return paths

    def _run_scheduler(self, jobs, uid_map, threaded: bool) -> None:
        """In-process backends: packet jobs on the vthread scheduler."""
        from ..runtime.threads import Scheduler

        program = _LaneProgram(self.spec, uid_map)
        scheduler = Scheduler(program, workers=self.workers)
        # Lane 0 always exists: it owns stray frames and guarantees any
        # per-lane lifecycle work runs at least once on an empty trace.
        scheduler.context_for(0)
        for vid, nanos, frame in jobs:
            scheduler.schedule(vid, "packet", (nanos, frame))
        if threaded:
            scheduler.run_threaded()
        else:
            scheduler.run_until_idle()
        self.scheduler = scheduler
        contexts = scheduler.contexts()
        results = []
        for vid in sorted(contexts):
            lane = contexts[vid]
            lane.on_end()
            results.append(self.spec.lane_result(lane))
        self._results = results

    def _shard_jobs(self, jobs) -> List[List[Tuple[int, bytes]]]:
        """Fan the dispatch plan out into per-worker in-memory shards
        (the scheduler rule: ``vid % workers``)."""
        shards: List[List[Tuple[int, bytes]]] = [
            [] for __ in range(self.workers)
        ]
        for vid, nanos, frame in jobs:
            shards[vid % self.workers].append((nanos, frame))
        return shards

    def _resolve_context(self):
        import multiprocessing

        method = self.start_method
        if method is None:
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else "spawn"
        return multiprocessing.get_context(method)

    def _run_pool(self, jobs, uid_map) -> None:
        """The persistent shared-memory pool backend: batched packet
        slices through SPSC rings into workers that outlive the run."""
        from .pool import PoolError, WorkerPool

        pool = WorkerPool.shared(self.workers,
                                 start_method=self.start_method)
        try:
            self._results = pool.run(self.spec, uid_map,
                                     self._shard_jobs(jobs),
                                     timeout=self.join_timeout)
        except PoolError as error:
            self.jobs_lost = error.jobs_lost
            raise

    def _run_process(self, jobs, uid_map,
                     shard_paths: Optional[List[str]] = None) -> None:
        """The one-shot multiprocessing backend: one subprocess per
        worker per run.

        The join polls every pipe with a deadline instead of blocking
        on ``recv()``: a worker killed mid-job (OOM, signal) is
        detected by liveness, reaped, and its shard's jobs accounted
        as lost — the run fails with the conservation diagnostic
        instead of hanging forever on a pipe no one will ever write.
        """
        from .worker import process_worker

        if shard_paths is None:
            shards = self._shard_jobs(jobs)
        else:
            shards = shard_paths  # type: ignore[assignment]
        # Lost-job accounting needs per-worker job counts even when
        # workers read their shards from pcap files themselves.
        shard_counts = [0] * self.workers
        for vid, __, __unused in jobs:
            shard_counts[vid % self.workers] += 1
        ctx = self._resolve_context()
        procs = []
        pipes = []
        for index in range(self.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=process_worker,
                args=(child_conn, self.spec, shards[index], uid_map),
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            pipes.append(parent_conn)
        results: List[Optional[Dict]] = [None] * self.workers
        failures: List[str] = []
        jobs_lost = 0
        deadline = _time.monotonic() + self.join_timeout
        pending = set(range(self.workers))
        while pending:
            reaped = False
            for index in sorted(pending):
                proc, conn = procs[index], pipes[index]
                result: Optional[Dict] = None
                if conn.poll(0.01):
                    try:
                        result = conn.recv()
                    except EOFError:
                        result = {"error": "worker died before reporting"}
                elif not proc.is_alive():
                    # Dead with an empty pipe — but a worker can exit
                    # between writing its result and our poll, so give
                    # the pipe one more look before declaring a crash.
                    if conn.poll(0.01):
                        try:
                            result = conn.recv()
                        except EOFError:
                            result = {
                                "error": "worker died before reporting"}
                    else:
                        proc.join(timeout=1.0)
                        result = {"error": (
                            f"worker died (exitcode {proc.exitcode}) "
                            "before reporting")}
                else:
                    continue
                conn.close()
                pending.discard(index)
                reaped = True
                if "error" in result:
                    lost = shard_counts[index]
                    jobs_lost += lost
                    failures.append(
                        f"worker {index}: {result['error']} "
                        f"({lost} jobs lost)")
                else:
                    results[index] = result
            if pending and not reaped and _time.monotonic() >= deadline:
                for index in sorted(pending):
                    procs[index].terminate()
                    procs[index].join(timeout=1.0)
                    pipes[index].close()
                    lost = shard_counts[index]
                    jobs_lost += lost
                    failures.append(
                        f"worker {index}: no result within "
                        f"{self.join_timeout:.1f}s, terminated "
                        f"({lost} jobs lost)")
                pending.clear()
        for proc in procs:
            proc.join(timeout=5.0)
        self.jobs_lost = jobs_lost
        if failures:
            raise RuntimeError(
                "parallel workers failed: " + "; ".join(failures)
                + (f" — {jobs_lost} jobs lost (conservation broken)"
                   if jobs_lost else ""))
        self._results = [r for r in results if r is not None]

    # -- the ordered merge --------------------------------------------------

    def _merge(self, total_ns: int) -> None:
        """Reduce per-lane results into one deterministic report: result
        lines merge by lexicographic sort, integer stats sum, the health
        reports reduce, per-lane metric registries merge."""
        results = self._results
        lanes = len(results)

        lines: List[str] = []
        for result in results:
            lines.extend(result["lines"])
        lines.sort()
        self._lines = lines

        # Flow records merge exactly like result lines: each sealed flow
        # is wholly one lane's, so the sorted union is byte-identical to
        # the sequential ledger's sorted stream.
        records: List[str] = []
        for result in results:
            records.extend(self.spec.flow_record_lines_of(result))
        records.sort()
        self._flow_records = records

        def stat_sum(key):
            return sum(int(r["stats"].get(key, 0)) for r in results)

        parsing_ns = stat_sum("parsing_ns")
        script_ns = stat_sum("script_ns")
        glue_ns = stat_sum("glue_ns")
        self.stats = {
            "app": self.spec.app_name,
            "total_ns": total_ns,
            "parsing_ns": parsing_ns,
            "script_ns": script_ns,
            "glue_ns": glue_ns,
            "other_ns": max(
                0, total_ns - parsing_ns - script_ns - glue_ns),
            "packets": stat_sum("packets"),
            "health": merge_health(
                [r["stats"]["health"] for r in results]),
            "backend": self.backend,
            "workers": self.workers,
            "vthreads": self.vthreads,
            "lanes": lanes,
            "scheduler_errors": (
                len(self.scheduler.errors) if self.scheduler else 0
            ),
        }
        # Application counters (integer-valued app_stats entries) sum
        # across lanes; non-numeric entries pass through from lane 0.
        fixed = set(self.stats) | {"total_ns", "other_ns"}
        for result in results:
            for key, value in result["stats"].items():
                if key in fixed:
                    continue
                if isinstance(value, bool) or not isinstance(value, int):
                    self.stats.setdefault(key, value)
                else:
                    self.stats[key] = int(self.stats.get(key, 0)) + value
        if self.telemetry.enabled:
            self._merge_metrics(results, lanes)
        self._trace_roots = []
        for result in results:
            if result.get("trace_roots"):
                self._trace_roots.extend(result["trace_roots"])

    def _merge_metrics(self, results: List[Dict], lanes: int) -> None:
        """Reduce per-lane registries, then repair the series whose
        lane-sum is not the sequential semantic: the per-component CPU
        gauges (total is this run's wall clock, other its remainder) and
        the parent-side pcap counters."""
        metrics = self.telemetry.metrics
        for index, result in enumerate(results):
            if result["metrics"]:
                # Twice: once unlabeled (the aggregate the differential
                # oracle compares to the sequential run) and once under
                # a ``worker`` label for per-lane attribution.
                metrics.merge_series(result["metrics"],
                                     gauge_merge=self.GAUGE_MERGE)
                metrics.merge_series(result["metrics"],
                                     gauge_merge=self.GAUGE_MERGE,
                                     extra_labels={"worker": str(index)})
        name = self.spec.app_name
        for component in ("parsing", "script", "glue", "other", "total"):
            metrics.gauge(f"{name}.cpu_ns", component=component).set(
                int(self.stats[f"{component}_ns"]))
        for key, value in self._pcap_stats.items():
            metrics.counter(f"pcap.{key}").inc(value)

    # -- results ------------------------------------------------------------

    def result_lines(self) -> List[str]:
        """The deterministically merged result lines."""
        return list(self._lines)

    def flow_record_lines(self) -> List[str]:
        """The deterministically merged flow-record lines (sorted,
        byte-identical to the sequential ledger's)."""
        return list(self._flow_records)

    def cpu_breakdown(self, config: Optional[Dict] = None) -> Dict:
        from ..runtime.telemetry import cpu_breakdown_report

        if not self.stats:
            raise RuntimeError("cpu_breakdown() requires a completed run")
        if config is None:
            config = {
                "app": self.spec.app_name,
                "backend": self.backend,
                "workers": self.workers,
            }
        return cpu_breakdown_report(self.stats, config=config)

    def write_telemetry(self, logdir: str,
                        meta: Optional[Dict] = None) -> List[str]:
        """Emit the merged reporting files (``metrics.jsonl``,
        ``stats.log``, ``prof.log`` when lanes carried profiler dumps,
        and ``flows.jsonl`` when tracing was armed).  The profiler dump
        is sectioned per worker (``# worker N context L``) rather than
        merged — per-function timings from different lanes are distinct
        measurements, not shards of one."""
        import json as _json

        from ..net.flowrecord import write_flowrecords_jsonl
        from .pipeline import (write_metrics_jsonl,
                               write_parallel_prof_log, write_stats_log)

        _os.makedirs(logdir, exist_ok=True)
        written: List[str] = []
        if meta is None:
            meta = {
                "app": self.spec.app_name,
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
