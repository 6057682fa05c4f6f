"""Streaming service mode: a supervised long-running host-app daemon.

The batch pipeline reads a trace once and exits; the paper's target is
*continuous* deep, stateful analysis under real-time constraints.  This
module wraps any :class:`~repro.host.app.HostApp` in that shape::

    ingest (TraceReplayer / LiveCaptureSource, rate-paced)
       |            place by flow key (LaneSpec sharding)
       v
    BoundedQueue[0] ... BoundedQueue[N-1]     overload: block | shed
       |                     |
    lane 0                lane N-1            one isolated app each
       \\                     /
        supervisor  --------+   restarts crashed lanes w/ exp. backoff,
            |                   escalates to a CircuitBreaker
        aggregator              1s/10s/60s rolling windows -> registry,
            |                   time-series history ring
        HTTP control surface    /healthz /metrics /stats /flows
                                /metrics/history

``/metrics`` speaks JSON-lines (``repro-metrics/1``) by default and the
Prometheus text exposition (version 0.0.4) under content negotiation
(``Accept: text/plain`` or ``?format=prometheus``);
``/metrics/history?window=60`` serves the aggregator's bounded
time-series ring (``repro-timeseries/1``).  Pool-transport lanes ship
periodic ``TELEM`` snapshots back over their rings, which the
aggregator publishes as ``worker.*`` gauges labeled ``worker=N`` —
the live per-worker view ``repro.tools.servicetop`` renders.

Overload never deadlocks: ``block`` applies backpressure to ingest with
a bounded timed wait that re-checks the stop request; ``shed`` drops at
the full queue and counts every drop exactly.  Session state stays flat
via the eviction bounds (``PipelineServices.max_sessions`` /
``session_ttl`` / ``memory_budget_bytes``) the lanes' apps enforce.
SIGTERM/SIGINT drain gracefully: ingest stops, queued packets finish,
telemetry flushes, results are written, exit code 0.

The packet-conservation invariant the soak tests assert::

    ingested == processed + shed + lost_in_crash + dropped_on_stop
                + dropped_to_failed_lane

Every packet the ingest stage pulled from the source lands in exactly
one of those counters.
"""

from __future__ import annotations

import json as _json
import os as _os
import signal as _signal
import threading
import time as _time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime.faults import (
    CircuitBreaker,
    FaultInjector,
    NULL_INJECTOR,
    SITE_SERVICE_LANE,
)
from ..runtime import promtext as _promtext
from ..runtime.telemetry import (
    MetricsRegistry,
    Telemetry,
    TimeSeriesStore,
    TIMESERIES_SCHEMA,
)
from .app import HostApp, PipelineServices
from .parallel import LaneSpec

__all__ = [
    "BoundedQueue",
    "HostService",
    "RollingWindows",
    "SERVICE_SCHEMA",
    "ServiceConfig",
]

#: Schema tag of the ``service.json`` discovery file.
SERVICE_SCHEMA = "repro-service/1"


_SENTINEL = object()  # end-of-stream marker, force-put past capacity
_EMPTY = object()     # get() timeout marker


# --------------------------------------------------------------------------
# Bounded inter-stage queue
# --------------------------------------------------------------------------


class BoundedQueue:
    """A bounded FIFO between pipeline stages.

    Two producer disciplines: :meth:`put` (block policy — timed wait
    for space so a stop request is honored, never a deadlock) and
    :meth:`offer` (shed policy — fail fast at capacity, the drop
    counted exactly in :attr:`shed`).  :meth:`force` appends past
    capacity for control markers (the drain sentinel must reach a
    full queue).  Consumers use :meth:`get` with a timeout.
    """

    #: Longest single wait slice inside put(); bounds stop latency.
    WAIT_SLICE = 0.05

    def __init__(self, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self.puts = 0
        self.gets = 0
        self.shed = 0
        self.high_water = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def depth(self) -> int:
        return len(self)

    def _append(self, item) -> None:
        self._items.append(item)
        depth = len(self._items)
        if depth > self.high_water:
            self.high_water = depth
        self.puts += 1
        self._not_empty.notify()

    def offer(self, item) -> bool:
        """Shed policy: enqueue, or count one drop at capacity."""
        with self._lock:
            if len(self._items) >= self.capacity:
                self.shed += 1
                return False
            self._append(item)
            return True

    def put(self, item, timeout: Optional[float] = None,
            should_stop: Optional[Callable[[], bool]] = None) -> bool:
        """Block policy: wait for space (re-checking *should_stop*
        between slices); False when stopped or timed out."""
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        with self._not_full:
            while len(self._items) >= self.capacity:
                if should_stop is not None and should_stop():
                    return False
                wait = self.WAIT_SLICE
                if deadline is not None:
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._not_full.wait(wait)
            self._append(item)
            return True

    def force(self, item) -> None:
        """Append unconditionally (control markers only)."""
        with self._lock:
            self._append(item)

    def get(self, timeout: Optional[float] = None):
        """Pop the oldest item; the module-level ``_EMPTY`` marker on
        timeout."""
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        with self._not_empty:
            while not self._items:
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        return _EMPTY
                    self._not_empty.wait(remaining)
            item = self._items.popleft()
            self.gets += 1
            self._not_full.notify()
            return item

    def drain(self) -> int:
        """Discard everything queued; returns the number of *data*
        items dropped (control markers excluded)."""
        with self._lock:
            dropped = sum(1 for item in self._items
                          if item is not _SENTINEL)
            self._items.clear()
            self._not_full.notify_all()
            return dropped


# --------------------------------------------------------------------------
# Rolling aggregation windows
# --------------------------------------------------------------------------


class RollingWindows:
    """Rolling rate windows over monotone counter totals.

    ``sample(now, totals)`` records one aggregator tick;
    ``rates()`` reports, per window, each counter's delta and
    per-second rate between the newest sample and the oldest sample
    still inside the window.
    """

    def __init__(self, windows: Tuple[float, ...] = (1.0, 10.0, 60.0)):
        if not windows:
            raise ValueError("need at least one window")
        self.windows = tuple(sorted(windows))
        self._samples: deque = deque()

    def sample(self, now: float, totals: Dict[str, float]) -> None:
        self._samples.append((now, dict(totals)))
        horizon = now - self.windows[-1] - 5.0
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def rates(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        if len(self._samples) < 2:
            return {}
        newest_t, newest = self._samples[-1]
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for window in self.windows:
            base_t, base = self._samples[0]
            for t, totals in self._samples:
                if t >= newest_t - window:
                    base_t, base = t, totals
                    break
            if base_t >= newest_t:
                # Window shorter than one tick: fall back to the
                # previous sample so short windows still report.
                base_t, base = self._samples[-2]
            dt = newest_t - base_t
            entry: Dict[str, Dict[str, float]] = {}
            for name, value in newest.items():
                delta = value - base.get(name, 0)
                entry[name] = {
                    "delta": delta,
                    "per_second": (delta / dt) if dt > 0 else 0.0,
                }
            out[f"{window:g}s"] = entry
        return out


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


class ServiceConfig:
    """Everything tunable about one service run."""

    def __init__(self,
                 lanes: int = 1,
                 lane_transport: str = "thread",
                 queue_capacity: int = 512,
                 overload: str = "block",
                 tick_seconds: float = 1.0,
                 windows: Tuple[float, ...] = (1.0, 10.0, 60.0),
                 duration_seconds: Optional[float] = None,
                 drain_timeout: float = 30.0,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 30.0,
                 breaker_threshold: float = 0.5,
                 breaker_min_starts: int = 4,
                 healthy_packets: int = 256,
                 fault_seed: int = 0,
                 inject_rates: Optional[Dict[str, float]] = None,
                 watchdog_budget: Optional[int] = None,
                 max_sessions: Optional[int] = None,
                 session_ttl: Optional[float] = None,
                 memory_budget_bytes: Optional[int] = None,
                 http_host: Optional[str] = "127.0.0.1",
                 http_port: Optional[int] = 0,
                 logdir: str = "logs",
                 results_name: str = "results.log",
                 app_name: str = "app",
                 lane_metrics: bool = False,
                 history_samples: int = 600):
        if overload not in ("block", "shed"):
            raise ValueError(f"overload must be block|shed, got {overload!r}")
        if lane_transport not in ("thread", "pool"):
            raise ValueError(
                f"lane_transport must be thread|pool, got {lane_transport!r}")
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes!r}")
        if lane_transport == "pool" and inject_rates:
            raise ValueError(
                "fault injection requires thread lanes — pool lanes run "
                "in worker processes")
        self.lanes = lanes
        self.lane_transport = lane_transport
        self.queue_capacity = queue_capacity
        self.overload = overload
        self.tick_seconds = tick_seconds
        self.windows = tuple(windows)
        self.duration_seconds = duration_seconds
        self.drain_timeout = drain_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_min_starts = breaker_min_starts
        self.healthy_packets = healthy_packets
        self.fault_seed = fault_seed
        self.inject_rates = dict(inject_rates) if inject_rates else None
        self.watchdog_budget = watchdog_budget
        self.max_sessions = max_sessions
        self.session_ttl = session_ttl
        self.memory_budget_bytes = memory_budget_bytes
        self.http_host = http_host
        self.http_port = http_port
        self.logdir = logdir
        self.results_name = results_name
        self.app_name = app_name
        self.lane_metrics = bool(lane_metrics)
        if history_samples < 1:
            raise ValueError(
                f"history_samples must be >= 1, got {history_samples!r}")
        self.history_samples = history_samples

    def as_dict(self) -> Dict[str, object]:
        return {
            "lanes": self.lanes,
            "lane_transport": self.lane_transport,
            "queue_capacity": self.queue_capacity,
            "overload": self.overload,
            "tick_seconds": self.tick_seconds,
            "windows": list(self.windows),
            "duration_seconds": self.duration_seconds,
            "fault_seed": self.fault_seed,
            "inject_rates": self.inject_rates,
            "watchdog_budget": self.watchdog_budget,
            "max_sessions": self.max_sessions,
            "session_ttl": self.session_ttl,
            "memory_budget_bytes": self.memory_budget_bytes,
            "app": self.app_name,
            "lane_metrics": self.lane_metrics,
            "history_samples": self.history_samples,
        }


# --------------------------------------------------------------------------
# Lanes
# --------------------------------------------------------------------------


class _Lane:
    """One supervised worker: a bounded queue, an isolated app
    instance, the lane's own fault-injection stream and escalation
    breaker, and crash/restart accounting."""

    def __init__(self, index: int, config: ServiceConfig):
        self.index = index
        self.queue = BoundedQueue(config.queue_capacity,
                                  name=f"lane{index}")
        # One injector per lane, persistent across restarts, seeded per
        # lane so the fault schedule is deterministic and independent.
        if config.inject_rates:
            self.injector = FaultInjector(
                seed=config.fault_seed + 1009 * index,
                rates=config.inject_rates)
        else:
            self.injector = NULL_INJECTOR
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            min_flows=config.breaker_min_starts)
        self.app: Optional[HostApp] = None
        self.thread: Optional[threading.Thread] = None
        self.processed = 0
        self.processed_since_start = 0
        self.crashes = 0
        self.restarts = 0
        self.packets_lost = 0
        self.backoff_seconds = 0.0
        self.crashed = False
        self.drained = False
        self.failed = False
        self.last_error: Optional[str] = None
        self.pending_restart_at: Optional[float] = None
        self.archived_lines: List[str] = []
        self.archived_records: List[str] = []
        self.end_stats: Optional[Dict] = None
        # Pool-transport state: the ring replaces the object queue, so
        # shed and in-flight accounting live on the lane itself.
        self.pool_lock = threading.Lock()
        self.pool_down = False       # worker dead/poisoned, respawn due
        self.pool_shed = 0           # shed at a full ring (shed policy)
        self.pool_base = 0           # processed by prior incarnations

    def alive(self) -> bool:
        """Is the lane's executor currently able to consume packets?
        Thread transport: the lane thread is running.  Pool transport
        (no parent-side thread): not failed, not in a crash window."""
        if self.thread is not None:
            return self.thread.is_alive()
        return not (self.failed or self.pool_down)

    def snapshot(self) -> Dict[str, object]:
        return {
            "lane": self.index,
            "alive": self.alive(),
            "processed": self.processed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "packets_lost": self.packets_lost,
            "backoff_seconds": round(self.backoff_seconds, 3),
            "failed": self.failed,
            "queue_depth": self.queue.depth(),
            "queue_high_water": self.queue.high_water,
            "queue_shed": self.queue.shed + self.pool_shed,
            "last_error": self.last_error,
            "breaker": self.breaker.as_dict(),
        }


# --------------------------------------------------------------------------
# The service
# --------------------------------------------------------------------------


class HostService:
    """A long-running, supervised host-application daemon.

    *make_app* builds one isolated app per lane:
    ``make_app(services) -> HostApp`` (the same factory contract
    :func:`repro.host.cli.run_host_app` uses).  *source* is any
    iterable of ``(Time, frame)`` — a
    :class:`~repro.net.replay.TraceReplayer`, a
    :class:`~repro.net.replay.LiveCaptureSource`, or a test generator.
    *spec* supplies flow placement (default: 5-tuple sharding; the
    firewall's host-pair spec keeps its state lane-local).

    ``serve()`` runs until a stop is requested (signal, duration
    bound, or source exhaustion), then drains and writes artifacts.
    """

    def __init__(self, make_app: Callable[[PipelineServices], HostApp],
                 source, config: Optional[ServiceConfig] = None,
                 spec: Optional[LaneSpec] = None):
        self.make_app = make_app
        self.source = source
        self.config = config if config is not None else ServiceConfig()
        self.spec = spec if spec is not None else LaneSpec()
        self.lanes = [_Lane(i, self.config)
                      for i in range(self.config.lanes)]
        self._transport = self.config.lane_transport
        self._pool = None
        if self._transport == "pool":
            # The shared pool outlives this service instance: a restart
            # reattaches to the same hot workers instead of respawning.
            from .pool import WorkerPool

            self._pool = WorkerPool.shared(self.config.lanes)
        self.metrics = MetricsRegistry()
        self.windows = RollingWindows(self.config.windows)
        self.history = TimeSeriesStore(
            max_samples=self.config.history_samples)
        self._stop = threading.Event()
        self.stop_reason: Optional[str] = None
        self._lock = threading.Lock()  # metrics + windows + snapshots
        self._ingest_thread: Optional[threading.Thread] = None
        self._httpd = None
        self._http_thread: Optional[threading.Thread] = None
        self.http_address: Optional[Tuple[str, int]] = None
        self._started_at: Optional[float] = None
        self._started_ts: Optional[float] = None  # wall clock, discovery
        self.ingested = 0
        self.ingest_done = False
        self.dropped_on_stop = 0
        self.dropped_to_failed = 0
        self.exit_code: Optional[int] = None
        self.artifacts: List[str] = []

    # -- control -----------------------------------------------------------

    def should_stop(self) -> bool:
        return self._stop.is_set()

    def request_stop(self, reason: str = "requested") -> None:
        """Ask the service to drain and exit (thread/signal safe)."""
        if not self._stop.is_set():
            self.stop_reason = reason
            self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only; a no-op
        elsewhere, so in-process test harnesses can call it freely)."""
        if threading.current_thread() is not threading.main_thread():
            return
        def _handler(signum, frame):
            self.request_stop(f"signal {signum}")
        _signal.signal(_signal.SIGTERM, _handler)
        _signal.signal(_signal.SIGINT, _handler)

    def uptime(self) -> float:
        if self._started_at is None:
            return 0.0
        return _time.monotonic() - self._started_at

    # -- lane lifecycle ----------------------------------------------------

    def _lane_services(self, lane: _Lane) -> PipelineServices:
        config = self.config
        return PipelineServices(
            faults=lane.injector,
            watchdog_budget=config.watchdog_budget,
            telemetry=Telemetry(metrics=config.lane_metrics),
            max_sessions=config.max_sessions,
            session_ttl=config.session_ttl,
            memory_budget_bytes=config.memory_budget_bytes,
        )

    def _start_lane(self, lane: _Lane) -> None:
        lane.breaker.record_flow()
        lane.crashed = False
        lane.drained = False
        lane.processed_since_start = 0
        lane.thread = threading.Thread(
            target=self._lane_body, args=(lane,),
            name=f"service-lane-{lane.index}", daemon=True)
        lane.thread.start()

    def _lane_body(self, lane: _Lane) -> None:
        in_hand = False
        try:
            if lane.app is None:
                # Built inside the lane thread so a slow (or crashing)
                # construction never blocks supervision.
                lane.app = self.make_app(self._lane_services(lane))
                lane.app.on_begin()
            while True:
                item = lane.queue.get(timeout=0.2)
                if item is _EMPTY:
                    continue
                if item is _SENTINEL:
                    lane.drained = True
                    return
                in_hand = True
                lane.injector.check(SITE_SERVICE_LANE)
                timestamp, frame = item
                lane.app.on_packet(timestamp, frame)
                in_hand = False
                lane.processed += 1
                lane.processed_since_start += 1
        except BaseException as error:  # noqa: BLE001 — crash boundary
            lane.crashes += 1
            lane.crashed = True
            lane.last_error = f"{type(error).__name__}: {error}"
            if in_hand:
                lane.packets_lost += 1

    def _archive_lane_app(self, lane: _Lane) -> None:
        """Harvest whatever a (possibly crashed) app produced so its
        results survive the replacement instance."""
        if lane.app is None:
            return
        try:
            lane.archived_lines.extend(lane.app.result_lines())
        except Exception:
            pass
        try:
            lane.archived_records.extend(lane.app.flow_record_lines())
        except Exception:
            pass
        lane.app = None

    def _supervise_lanes(self, now: float) -> None:
        config = self.config
        for lane in self.lanes:
            if lane.failed or lane.thread is None:
                continue
            if lane.thread.is_alive() or lane.drained:
                continue
            if not lane.crashed:
                continue
            if lane.pending_restart_at is None:
                # Fresh crash: a long healthy run forgives past
                # violations (the breaker targets rapid crash loops,
                # not a crash every few million packets).
                if lane.processed_since_start >= config.healthy_packets:
                    lane.breaker = CircuitBreaker(
                        threshold=config.breaker_threshold,
                        min_flows=config.breaker_min_starts)
                    lane.breaker.record_flow()
                lane.breaker.record_violation()
                if lane.breaker.tripped:
                    lane.failed = True
                    # Nothing will consume this queue again; count the
                    # leftovers now so the drain condition (all queues
                    # empty) stays reachable and accounting stays exact.
                    self.dropped_to_failed += lane.queue.drain()
                    self._archive_lane_app(lane)
                    lane.thread = None
                    continue
                consecutive = max(1, lane.breaker.violations)
                delay = min(config.backoff_cap,
                            config.backoff_base * (2 ** (consecutive - 1)))
                lane.backoff_seconds += delay
                lane.pending_restart_at = now + delay
            elif now >= lane.pending_restart_at:
                lane.pending_restart_at = None
                lane.restarts += 1
                self._archive_lane_app(lane)
                self._start_lane(lane)

    def _crash_pool_lane(self, lane: _Lane, now: float,
                         error: str) -> None:
        """Shared crash bookkeeping for a pool lane: conservation
        accounting, breaker escalation, restart scheduling."""
        config = self.config
        pool = self._pool
        lane.pool_down = True
        lane.crashes += 1
        lane.crashed = True
        lane.last_error = error
        # Everything handed to the worker but not retired — including
        # the parent-side batch that never flushed — is lost with it.
        lost = max(0, pool.pushed(lane.index) + pool.buffered(lane.index)
                   - pool.progressed(lane.index))
        lane.packets_lost += lost
        lane.processed = lane.pool_base + pool.progressed(lane.index)
        lane.pool_base = lane.processed
        if lane.processed_since_start >= config.healthy_packets:
            lane.breaker = CircuitBreaker(
                threshold=config.breaker_threshold,
                min_flows=config.breaker_min_starts)
            lane.breaker.record_flow()
        lane.breaker.record_violation()
        if lane.breaker.tripped:
            lane.failed = True
            # Respawn anyway: the shared pool must stay healthy for
            # sibling lanes now and for future runs.
            with lane.pool_lock:
                pool.respawn(lane.index)
            return
        consecutive = max(1, lane.breaker.violations)
        delay = min(config.backoff_cap,
                    config.backoff_base * (2 ** (consecutive - 1)))
        lane.backoff_seconds += delay
        lane.pending_restart_at = now + delay

    def _supervise_pool_lanes(self, now: float) -> None:
        """Pool-transport supervision: liveness and in-run errors come
        from the pool's progress protocol instead of thread state."""
        pool = self._pool
        for lane in self.lanes:
            if lane.failed:
                continue
            index = lane.index
            if lane.pending_restart_at is not None:
                if now >= lane.pending_restart_at:
                    lane.pending_restart_at = None
                    lane.restarts += 1
                    with lane.pool_lock:
                        pool.respawn(index)
                        pool.begin_worker(index)
                        lane.pool_down = False
                    lane.crashed = False
                    lane.processed_since_start = 0
                    lane.breaker.record_flow()
                continue
            if lane.pool_down:
                continue
            pool.poll(index)
            failure = pool.failure(index)
            if failure is not None:
                self._crash_pool_lane(lane, now, failure)
            elif not pool.alive(index):
                self._crash_pool_lane(
                    lane, now, "worker process died "
                    f"(exitcode {pool.exitcode(index)})")
            else:
                progressed = pool.progressed(index)
                lane.processed = lane.pool_base + progressed
                lane.processed_since_start = progressed

    # -- ingest ------------------------------------------------------------

    def _place(self, frame: bytes) -> _Lane:
        key = self.spec.flow_of(frame)
        if key is None:
            return self.lanes[0]
        lanes = len(self.lanes)
        return self.lanes[self.spec.place(key, lanes, lanes) % lanes]

    def _ingest_body(self) -> None:
        shed_policy = self.config.overload == "shed"
        try:
            for timestamp, frame in self.source:
                if self._stop.is_set():
                    break
                self.ingested += 1
                lane = self._place(frame)
                if lane.failed:
                    self.dropped_to_failed += 1
                    continue
                item = (timestamp, frame)
                if shed_policy:
                    lane.queue.offer(item)  # drop counted by the queue
                    continue
                # Backpressure must release when the service stops OR
                # when the blocked-on lane escalates to failed — put()
                # rechecks between wait slices, so neither deadlocks.
                queued = lane.queue.put(
                    item,
                    should_stop=lambda lane=lane: (self._stop.is_set()
                                                   or lane.failed))
                if not queued:
                    if lane.failed and not self._stop.is_set():
                        self.dropped_to_failed += 1
                    else:
                        self.dropped_on_stop += 1
        finally:
            self.ingest_done = True

    def _ingest_pool_body(self) -> None:
        """Pool-transport ingest: frames go straight into the placed
        lane's shared-memory ring as batches.  Overload semantics
        mirror the queue path — ``block`` waits for ring space
        (re-checking stop/crash), ``shed`` drops at a full ring — and
        packets placed to a lane inside its crash/backoff window are
        counted lost (the ring is reset on respawn, so nothing buffers
        across the gap)."""
        shed_policy = self.config.overload == "shed"
        pool = self._pool
        last_flush = _time.monotonic()
        try:
            for timestamp, frame in self.source:
                if self._stop.is_set():
                    break
                self.ingested += 1
                lane = self._place(frame)
                if lane.failed:
                    self.dropped_to_failed += 1
                    continue
                if lane.pool_down:
                    lane.packets_lost += 1
                    continue
                with lane.pool_lock:
                    fed = pool.feed(
                        lane.index, timestamp.nanos, frame,
                        wait=(0.0 if shed_policy else None),
                        should_stop=lambda lane=lane: (
                            self._stop.is_set() or lane.failed
                            or lane.pool_down))
                if not fed:
                    if shed_policy:
                        lane.pool_shed += 1
                    elif lane.pool_down and not self._stop.is_set():
                        lane.packets_lost += 1
                    elif lane.failed and not self._stop.is_set():
                        self.dropped_to_failed += 1
                    else:
                        self.dropped_on_stop += 1
                # Paced sources can leave a partial batch sitting in the
                # parent buffer indefinitely; a periodic flush bounds
                # that latency (all batch state stays on this thread).
                now = _time.monotonic()
                if now - last_flush >= 0.05:
                    last_flush = now
                    for other in self.lanes:
                        if not (other.failed or other.pool_down):
                            with other.pool_lock:
                                pool.flush(other.index, wait=0.0)
        finally:
            self.ingest_done = True

    # -- aggregation -------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        processed = sum(lane.processed for lane in self.lanes)
        shed = sum(lane.queue.shed + lane.pool_shed
                   for lane in self.lanes)
        lost = sum(lane.packets_lost for lane in self.lanes)
        return {
            "packets_ingested": self.ingested,
            "packets_processed": processed,
            "packets_shed": shed,
            "packets_lost": lost,
            "packets_dropped": self.dropped_on_stop
                               + self.dropped_to_failed,
            "packets_dropped_on_stop": self.dropped_on_stop,
            "packets_dropped_failed": self.dropped_to_failed,
            "lane_crashes": sum(lane.crashes for lane in self.lanes),
            "lane_restarts": sum(lane.restarts for lane in self.lanes),
        }

    def session_totals(self) -> Dict[str, int]:
        totals = {"open": 0, "evicted": 0, "expired": 0}
        for lane in self.lanes:
            app = lane.app
            if app is None:
                continue
            try:
                stats = app.session_stats()
            except Exception:
                continue
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        return totals

    def _sample(self) -> None:
        """One aggregator tick: snapshot totals into the rolling
        windows, refresh the registry (the /metrics surface), publish
        the pool workers' latest TELEM snapshots, and append the whole
        registry to the time-series history ring."""
        now = _time.monotonic()
        totals = self.totals()
        sessions = self.session_totals()
        telem = {}
        if self._transport == "pool":
            for lane in self.lanes:
                snapshot = self._pool.telemetry(lane.index)
                if snapshot:
                    telem[lane.index] = snapshot
        with self._lock:
            self.windows.sample(now, totals)
            rates = self.windows.rates()
            metrics = self.metrics
            for name, value in totals.items():
                counter = metrics.counter(f"service.{name}")
                counter.value = 0
                counter.inc(int(value))
            for name, value in (
                ("service.uptime_seconds", self.uptime()),
                ("service.lanes_total", len(self.lanes)),
                ("service.lanes_failed",
                 sum(1 for lane in self.lanes if lane.failed)),
                ("service.sessions_open", sessions["open"]),
                ("service.restart_backoff_seconds",
                 sum(lane.backoff_seconds for lane in self.lanes)),
            ):
                metrics.gauge(name).set(value)
            for key in ("evicted", "expired"):
                counter = metrics.counter(f"service.sessions_{key}")
                counter.value = 0
                counter.inc(sessions[key])
            for lane in self.lanes:
                label = str(lane.index)
                metrics.gauge("service.queue_depth", lane=label).set(
                    lane.queue.depth())
                metrics.gauge("service.queue_high_water", lane=label).set(
                    lane.queue.high_water)
                shed = metrics.counter("service.queue_shed", lane=label)
                shed.value = 0
                shed.inc(lane.queue.shed)
            for window, entries in rates.items():
                pps = entries.get("packets_processed")
                if pps is not None:
                    metrics.gauge("service.packets_per_second",
                                  window=window).set(
                        round(pps["per_second"], 3))
            for lane in self.lanes:
                metrics.gauge("service.worker_alive",
                              worker=str(lane.index)).set(
                    int(lane.alive()))
            for index, snapshot in telem.items():
                self._apply_worker_snapshot(str(index), snapshot)
            self.history.sample(_time.time(), metrics.collect())

    def _apply_worker_snapshot(self, label: str, snapshot: Dict) -> None:
        """Publish one worker's latest ``TELEM`` snapshot into the
        service registry under a ``worker`` label.  The worker ships
        cumulative totals, so every value is *set* absolutely — a
        re-applied snapshot overwrites, never accumulates.  Caller
        holds ``self._lock``."""
        metrics = self.metrics
        for name, value in (snapshot.get("live") or {}).items():
            metrics.gauge(f"worker.{name}", worker=label).set(value)
        for name in ("spans_started", "spans_dropped"):
            if name in snapshot:
                metrics.gauge(f"worker.{name}", worker=label).set(
                    snapshot[name])
        for entry in snapshot.get("series") or []:
            labels = dict(entry.get("labels", {}))
            labels["worker"] = label
            kind = entry["kind"]
            if kind == "counter":
                counter = metrics.counter(entry["name"], **labels)
                counter.value = entry["value"]
            elif kind == "gauge":
                metrics.gauge(entry["name"], **labels).set(entry["value"])
            # Histograms are skipped live: their buckets merge exactly
            # once, from the final lane result at drain.

    # -- the HTTP control surface ------------------------------------------

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        failed = sum(1 for lane in self.lanes if lane.failed)
        status = "ok" if failed == 0 else "degraded"
        body = {
            "status": status,
            "uptime_seconds": round(self.uptime(), 3),
            "lanes": len(self.lanes),
            "lanes_failed": failed,
            "stopping": self._stop.is_set(),
        }
        return (200 if failed == 0 else 503), body

    def stats_report(self) -> Dict[str, object]:
        with self._lock:
            rates = self.windows.rates()
        return {
            "app": self.config.app_name,
            "uptime_seconds": round(self.uptime(), 3),
            "overload": self.config.overload,
            "transport": self.config.lane_transport,
            "totals": self.totals(),
            "sessions": self.session_totals(),
            "windows": rates,
            "lanes": [lane.snapshot() for lane in self.lanes],
            "stop_reason": self.stop_reason,
        }

    def flows_report(self, limit: int = 256) -> Dict[str, object]:
        flows: List[Dict] = []
        for lane in self.lanes:
            app = lane.app
            if app is None:
                continue
            try:
                snapshot = app.flow_snapshot(limit - len(flows))
            except Exception:
                continue
            for entry in snapshot:
                entry = dict(entry)
                entry["lane"] = lane.index
                flows.append(entry)
            if len(flows) >= limit:
                break
        return {"flows": flows, "count": len(flows)}

    def flow_record_lines(self) -> List[str]:
        """Every sealed flow record so far: archived from replaced
        (crashed/drained) app instances plus the live apps' ledgers."""
        records: List[str] = []
        for lane in self.lanes:
            records.extend(lane.archived_records)
            app = lane.app
            if app is None:
                continue
            try:
                records.extend(app.flow_record_lines())
            except Exception:
                continue
        records.sort()
        return records

    def flow_records_report(self, limit: int = 1024) -> Dict[str, object]:
        """The ``/flows/records`` body: sealed flow records as parsed
        JSON documents (schema ``repro-flowrecords/1``)."""
        from ..net.flowrecord import FLOWRECORDS_SCHEMA

        lines = self.flow_record_lines()
        return {
            "schema": FLOWRECORDS_SCHEMA,
            "app": self.config.app_name,
            "count": len(lines),
            "records": [_json.loads(line) for line in lines[:limit]],
        }

    def metrics_jsonl(self) -> str:
        import io

        with self._lock:
            buffer = io.StringIO()
            self.metrics.emit_jsonl(buffer, meta={
                "app": self.config.app_name, "mode": "service",
            })
            return buffer.getvalue()

    def metrics_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        with self._lock:
            return _promtext.render(self.metrics.collect())

    def history_report(self,
                       window: Optional[float] = None) -> Dict[str, object]:
        """The time-series ring as one JSON document (the
        ``/metrics/history`` body): schema tag plus the samples inside
        *window* seconds of the newest one (all of them when None)."""
        with self._lock:
            samples = self.history.history(window=window)
        return {
            "schema": TIMESERIES_SCHEMA,
            "app": self.config.app_name,
            "window": window,
            "count": len(samples),
            "samples": samples,
        }

    def _start_http(self) -> None:
        if self.config.http_host is None or self.config.http_port is None:
            return
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # silence per-request noise
                pass

            def _send(self, code: int, body: bytes,
                      content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, code: int, doc) -> None:
                body = (_json.dumps(doc, sort_keys=True) + "\n").encode()
                self._send(code, body, "application/json")

            def do_GET(self):  # noqa: N802 — http.server's spelling
                from urllib.parse import parse_qs

                path, __, query = self.path.partition("?")
                params = parse_qs(query)
                try:
                    if path == "/healthz":
                        code, doc = service.healthz()
                        self._send_json(code, doc)
                    elif path == "/stats":
                        self._send_json(200, service.stats_report())
                    elif path == "/flows":
                        self._send_json(200, service.flows_report())
                    elif path == "/flows/records":
                        self._send_json(200,
                                        service.flow_records_report())
                    elif path == "/metrics":
                        # Content negotiation: JSON-lines natively,
                        # the Prometheus text format for scrapers
                        # (?format=prometheus or Accept: text/plain).
                        fmt = params.get("format", [None])[0]
                        accept = self.headers.get("Accept", "") or ""
                        if fmt == "prometheus" or (
                                fmt is None and "text/plain" in accept):
                            self._send(
                                200,
                                service.metrics_prometheus().encode(),
                                _promtext.CONTENT_TYPE)
                        else:
                            self._send(200,
                                       service.metrics_jsonl().encode(),
                                       "application/jsonl")
                    elif path == "/metrics/history":
                        raw = params.get("window", [None])[0]
                        window = float(raw) if raw is not None else None
                        self._send_json(200,
                                        service.history_report(window))
                    else:
                        self._send_json(404, {"error": "not found",
                                              "path": path})
                except Exception as error:  # pragma: no cover
                    self._send_json(500, {"error": str(error)})

        self._httpd = ThreadingHTTPServer(
            (self.config.http_host, self.config.http_port), Handler)
        self._httpd.daemon_threads = True
        self.http_address = self._httpd.server_address[:2]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="service-http",
            daemon=True)
        self._http_thread.start()

    def _stop_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

    # -- service.json ------------------------------------------------------

    def _service_json_path(self) -> str:
        return _os.path.join(self.config.logdir, "service.json")

    def _write_service_json(self, state: str,
                            extra: Optional[Dict] = None,
                            name: str = "service.json") -> str:
        """The discovery file live tooling resolves the service from
        (``servicetop`` reads ``http`` out of it).  ``service.json``
        exists exactly while the service runs — the drain removes it
        and leaves the terminal document in ``service-final.json``."""
        _os.makedirs(self.config.logdir, exist_ok=True)
        doc: Dict[str, object] = {
            "schema": SERVICE_SCHEMA,
            "pid": _os.getpid(),
            "state": state,
            "started_ts": self._started_ts,
            "http": ({"host": self.http_address[0],
                      "port": self.http_address[1]}
                     if self.http_address else None),
            "config": self.config.as_dict(),
        }
        if extra:
            doc.update(extra)
        path = _os.path.join(self.config.logdir, name)
        with open(path, "w") as stream:
            _json.dump(doc, stream, indent=2, sort_keys=True)
            stream.write("\n")
        return path

    def _remove_service_json(self) -> None:
        try:
            _os.remove(self._service_json_path())
        except OSError:
            pass

    # -- running -----------------------------------------------------------

    def serve(self) -> int:
        """Run until stopped; drain; write artifacts; return the exit
        code (0 = clean drain)."""
        config = self.config
        self._started_at = _time.monotonic()
        self._started_ts = _time.time()
        self._start_http()
        self._write_service_json("running")
        if self._transport == "pool":
            # One shared begin: every pool worker arms a fresh lane
            # (dead workers are respawned inside begin_run).
            self._pool.begin_run(self.spec, {})
            for lane in self.lanes:
                lane.breaker.record_flow()
        else:
            for lane in self.lanes:
                self._start_lane(lane)
        self._ingest_thread = threading.Thread(
            target=(self._ingest_pool_body if self._transport == "pool"
                    else self._ingest_body),
            name="service-ingest", daemon=True)
        self._ingest_thread.start()

        next_tick = self._started_at + config.tick_seconds
        try:
            while not self._stop.is_set():
                now = _time.monotonic()
                if (config.duration_seconds is not None
                        and now - self._started_at
                        >= config.duration_seconds):
                    self.request_stop("duration")
                    break
                # Failed lanes are excluded: nothing consumes their
                # queues (a put() racing the escalation drain can still
                # land an item there; _drain re-counts it).  Pool lanes
                # have no parent-side queue — the drain collects what
                # is still in flight in the rings.
                if self.ingest_done and (
                        self._transport == "pool" or all(
                            lane.queue.depth() == 0 for lane in self.lanes
                            if not lane.failed)):
                    self.request_stop("source exhausted")
                    break
                if self._transport == "pool":
                    self._supervise_pool_lanes(now)
                else:
                    self._supervise_lanes(now)
                if now >= next_tick:
                    self._sample()
                    next_tick += config.tick_seconds
                self._stop.wait(0.02)
        except KeyboardInterrupt:
            self.request_stop("interrupt")
        finally:
            self.exit_code = self._drain()
        return self.exit_code

    def _drain(self) -> int:
        """Stop ingest, let lanes finish their queues/rings, finalize
        every app, flush telemetry, write artifacts."""
        config = self.config
        self._stop.set()
        if self.stop_reason is None:
            self.stop_reason = "drain"
        if self._ingest_thread is not None:
            self._ingest_thread.join(timeout=config.drain_timeout)

        if self._transport == "pool":
            lines, hung = self._drain_pool_lanes()
        else:
            lines, hung = self._drain_thread_lanes()
        lines.sort()

        self._sample()
        self.artifacts = self._write_artifacts(lines)
        self._stop_http()
        exit_code = 1 if hung else 0
        self._write_service_json("drained", {
            "exit_code": exit_code,
            "stop_reason": self.stop_reason,
            "totals": self.totals(),
            "sessions": self.session_totals(),
            "artifacts": self.artifacts,
        }, name="service-final.json")
        self._remove_service_json()
        return exit_code

    def _drain_thread_lanes(self) -> Tuple[List[str], bool]:
        config = self.config
        # Crashed-but-not-restarted lanes can't consume their queues.
        for lane in self.lanes:
            alive = lane.thread is not None and lane.thread.is_alive()
            if lane.failed:
                self.dropped_to_failed += lane.queue.drain()
            elif not alive:
                self.dropped_on_stop += lane.queue.drain()
            lane.queue.force(_SENTINEL)

        hung = False
        for lane in self.lanes:
            if lane.thread is not None:
                lane.thread.join(timeout=config.drain_timeout)
                if lane.thread.is_alive():
                    hung = True
        # Anything still queued behind a crash that raced the sentinel.
        for lane in self.lanes:
            self.dropped_on_stop += lane.queue.drain()

        lines: List[str] = []
        for lane in self.lanes:
            lines.extend(lane.archived_lines)
            if lane.app is None:
                continue
            try:
                if not lane.crashed:
                    lane.end_stats = lane.app.on_end()
                lines.extend(lane.app.result_lines())
                lane.archived_records.extend(lane.app.flow_record_lines())
            except Exception as error:
                lane.last_error = f"{type(error).__name__}: {error}"
                continue
            if lane.app.telemetry.enabled and not lane.crashed:
                self._merge_lane_series(
                    lane.index, lane.app.telemetry.metrics.collect())
        return lines, hung

    def _merge_lane_series(self, index: int, series: List[Dict]) -> None:
        """Fold one finished lane's final registry into the service's:
        additively unlabeled (the aggregate), and under ``worker=N``
        for attribution.  The labeled scalar copies are *set*, not
        added — the aggregator's periodic TELEM application already
        mirrors the worker's cumulative values there, and the final
        flush must overwrite that mirror, never stack on it.
        Histograms never travel in TELEM, so their labeled copies
        merge additively exactly once, here."""
        label = str(index)
        with self._lock:
            self.metrics.merge_series(series)
            histograms = [entry for entry in series
                          if entry["kind"] == "histogram"]
            if histograms:
                self.metrics.merge_series(
                    histograms, extra_labels={"worker": label})
            scalars = [entry for entry in series
                       if entry["kind"] != "histogram"]
            self._apply_worker_snapshot(label, {"series": scalars})

    def _drain_pool_lanes(self) -> Tuple[List[str], bool]:
        """Finish every live pool worker's run and harvest its result;
        lanes inside a crash window (or failed) have nothing left to
        collect — their losses were counted when they went down."""
        from .pool import PoolError

        config = self.config
        pool = self._pool
        lines: List[str] = []
        hung = False
        for lane in self.lanes:
            lines.extend(lane.archived_lines)
            index = lane.index
            if lane.failed or lane.pool_down:
                continue
            try:
                with lane.pool_lock:
                    pool.finish(index, timeout=config.drain_timeout)
                result = pool.collect(index, config.drain_timeout)
                lane.processed = lane.pool_base + pool.pushed(index)
                lane.end_stats = result.get("stats")
                lines.extend(self.spec.result_lines_of(result))
                lane.archived_records.extend(
                    self.spec.flow_record_lines_of(result))
                if result.get("metrics"):
                    self._merge_lane_series(index, result["metrics"])
            except PoolError as error:
                lane.crashes += 1
                lane.crashed = True
                lane.pool_down = True
                lane.last_error = str(error)
                lane.packets_lost += max(
                    0, pool.pushed(index) + pool.buffered(index)
                    - pool.progressed(index))
                lane.processed = lane.pool_base + pool.progressed(index)
                with lane.pool_lock:
                    pool.respawn(index)
        return lines, hung

    def _write_artifacts(self, lines: List[str]) -> List[str]:
        from ..net.flowrecord import write_flowrecords_jsonl
        from .pipeline import write_metrics_jsonl

        config = self.config
        _os.makedirs(config.logdir, exist_ok=True)
        written: List[str] = []

        results_path = _os.path.join(config.logdir, config.results_name)
        with open(results_path, "w") as stream:
            for line in lines:
                stream.write(line + "\n")
        written.append(results_path)

        # The drain already harvested every live app's ledger into the
        # lanes' archives; persist the sorted union.
        records = sorted(
            line for lane in self.lanes for line in lane.archived_records)
        written.append(write_flowrecords_jsonl(
            _os.path.join(config.logdir, "flow_records.jsonl"),
            config.app_name, records))

        with self._lock:
            written.append(write_metrics_jsonl(
                _os.path.join(config.logdir, "metrics.jsonl"),
                self.metrics, meta={"app": config.app_name,
                                    "mode": "service"}))
            history_path = _os.path.join(config.logdir,
                                         "timeseries.jsonl")
            with open(history_path, "w") as stream:
                self.history.emit_jsonl(stream, meta={
                    "app": config.app_name, "mode": "service"})
            written.append(history_path)

        stats_path = _os.path.join(config.logdir, "stats.log")
        with open(stats_path, "w") as stream:
            stream.write(self._render_stats())
        written.append(stats_path)
        return written

    def _render_stats(self) -> str:
        report = self.stats_report()
        out = [f"# stats.log — service run ({report['app']})"]
        out.append(f"uptime_seconds {report['uptime_seconds']}")
        out.append(f"stop_reason {report['stop_reason']}")
        for name in sorted(report["totals"]):
            out.append(f"{name} {int(report['totals'][name])}")
        sessions = report["sessions"]
        for name in sorted(sessions):
            out.append(f"sessions_{name} {sessions[name]}")
        for lane in report["lanes"]:
            out.append("")
            out.append(f"[lane {lane['lane']}]")
            for key in ("processed", "crashes", "restarts",
                        "packets_lost", "queue_high_water", "queue_shed",
                        "failed"):
                out.append(f"{key} {lane[key]}")
        return "\n".join(out) + "\n"
