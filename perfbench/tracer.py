"""Span recorder and layer wrappers for the benchmark's traced runs.

The traced run measures where the time goes without changing the
program: :func:`install` replaces each layer's *public* entry points
with thin wrappers that record a span (name, start, end, parent,
value) around the original call, and :func:`restore` puts every
original back.  Spans stay in memory, one flat ``array('q')`` per
thread, and :meth:`Recorder.flush` writes them when the process ends.

Forked pool workers inherit the wrappers; an at-fork hook gives each
child fresh buffers, and the pool worker's main function is wrapped so
the child flushes its own spans before it exits.

Besides spans, the recorder keeps the objects whose built-in counters
the benchmark cross-checks against the traced counts: every HILTI
execution context (``instr_count``, ``blocks_dispatched``,
``segments_dispatched``) and every Bro core (``events_dispatched``).
"""

from __future__ import annotations

import array
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Fields stored per span in the flat per-thread arrays.
FIELDS = 5  # name id, start ns, end ns, parent index (-1 = root), value

#: (span name, module, attribute path, value hook name).  The value hook
#: turns the call's (args, result) into the span's integer value, e.g.
#: 1 for a pcap record actually read or the byte count a reassembler
#: delivered.  Module-level functions are rebound in every module that
#: imported them; methods are patched on their class.
TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("pcap.read", "repro.net.pcap", "PcapReader.read_packet", "not_none"),
    ("packet.parse", "repro.net.packet", "parse_ethernet", None),
    ("flowtable.account", "repro.host.flowtable", "FlowTable.account",
     None),
    ("flowtable.open", "repro.host.flowtable", "FlowTable.open", None),
    ("flowtable.close", "repro.host.flowtable", "FlowTable.close",
     "not_none"),
    ("flowtable.run_eviction", "repro.host.flowtable",
     "FlowTable.run_eviction", None),
    ("flowtable.finish", "repro.host.flowtable", "FlowTable.finish", None),
    ("reassembly.feed", "repro.net.reassembly",
     "ConnectionReassembler.feed_segment", "length"),
    ("analyzer.http_std", "repro.apps.bro.analyzers.http_std",
     "HttpStdAnalyzer.data", None),
    ("analyzer.dns_std", "repro.apps.bro.analyzers.dns_std",
     "DnsStdAnalyzer.data", None),
    ("analyzer.http_pac", "repro.apps.bro.analyzers.pac",
     "HttpPacAnalyzer.data", None),
    ("analyzer.dns_pac", "repro.apps.bro.analyzers.pac",
     "DnsPacAnalyzer.data", None),
    ("binpac.feed", "repro.apps.binpac.codegen", "ParseSession.feed", None),
    ("codegen.call", "repro.core.codegen", "CompiledProgram.call",
     "instr"),
    ("codegen.run_hook", "repro.core.codegen", "CompiledProgram.run_hook",
     "instr"),
    ("codegen.resume", "repro.runtime.fibers", "Fiber.resume",
     "fiber_instr"),
    ("toolchain.hiltic", "repro.core.toolchain", "hiltic", None),
    ("script.interp", "repro.apps.bro.interp", "ScriptInterp.dispatch",
     None),
    ("script.compiled", "repro.apps.bro.compiler",
     "CompiledScripts.dispatch", None),
    ("glue.to_hilti", "repro.apps.bro.glue", "Glue.to_hilti", None),
    ("glue.from_hilti", "repro.apps.bro.glue", "Glue.from_hilti", None),
    ("events.drain", "repro.apps.bro.core", "BroCore.drain_events",
     "core"),
    ("logging.write", "repro.apps.bro.logging", "LogManager.write", None),
    ("bpf.filter", "repro.apps.bpf.compiler", "HiltiFilter.__call__", None),
    ("parallel.dispatch", "repro.host.parallel", "dispatch_plan", "skew"),
    ("parallel.run_pcap", "repro.host.parallel",
     "ParallelPipeline.run_pcap", None),
    ("pool.run", "repro.host.pool", "WorkerPool.run", None),
    ("pool.feed", "repro.host.pool", "WorkerPool.feed", None),
    ("pool.collect", "repro.host.pool", "WorkerPool.collect", None),
    ("ring.push_wait", "repro.host.ring", "ShmRing.push_wait", None),
    ("ring.pop", "repro.host.ring", "ShmRing.pop", "not_none"),
    ("service.offer", "repro.host.service", "BoundedQueue.offer", "offer"),
    ("service.put", "repro.host.service", "BoundedQueue.put", "offer"),
    ("service.get", "repro.host.service", "BoundedQueue.get", "get"),
    ("service.flow_of", "repro.host.parallel", "LaneSpec.flow_of", None),
]

#: Counter-only hooks: wrapped to register objects or count calls, no
#: span (they sit outside any layer's time).
_REGISTRARS = [
    ("repro.core.codegen", "CompiledProgram.init_context", "context"),
    ("repro.core.codegen", "CompiledProgram.call_fiber", "fiber"),
    ("repro.core.codegen", "CompiledProgram.__init__", "program"),
]

class Recorder:
    """Per-process span store; one flat array per thread."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: List[str] = [target[0] for target in TARGETS]
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.started_ns = time.perf_counter_ns()
        self._local = threading.local()
        self._threads: List[Tuple[str, array.array, List]] = []
        self._threads_lock = threading.Lock()
        self.contexts: List = []
        self.cores: Dict[int, object] = {}
        self.fiber_ctx: Dict[int, Tuple[object, object]] = {}
        self.programs = 0
        self.lane_counts: List[List[int]] = []
        self.queue_enter: Dict[int, int] = {}
        self.queue_waits: List[int] = []  # flat (enqueued ns, wait ns)
        self.depth_max = 0
        self.extra: Dict[str, float] = {}

    def thread_state(self):
        """(span array, open-span stack, codegen depth cell) of the
        calling thread, created on first use."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = (array.array("q"), [], [0])
            self._local.state = state
            with self._threads_lock:
                self._threads.append(
                    (threading.current_thread().name, state[0], state[2]))
        return state

    def mark(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span the harness timed itself (e.g. imports)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        spans, stack, __ = self.thread_state()
        parent = stack[-1] if stack else -1
        spans.extend((self._ids[name], start_ns, end_ns, parent, 0))

    def flush(self) -> str:
        """Write this process's spans and counters; returns the path."""
        os.makedirs(self.out_dir, exist_ok=True)
        base = os.path.join(self.out_dir, f"proc-{self.pid}")
        threads = []
        for index, (name, spans, __) in enumerate(self._threads):
            path = f"{base}-t{index}.bin"
            with open(path, "wb") as stream:
                spans.tofile(stream)
            threads.append({"name": name, "spans": os.path.basename(path)})
        counters = {
            "instr_count": sum(ctx.instr_count for ctx in self.contexts),
            "blocks_dispatched": sum(ctx.blocks_dispatched
                                     for ctx in self.contexts),
            "segments_dispatched": sum(ctx.segments_dispatched
                                       for ctx in self.contexts),
            "events_dispatched": sum(core.events_dispatched
                                     for core in self.cores.values()),
            "programs": self.programs,
        }
        meta = {
            "pid": self.pid,
            "is_worker": self.pid != self.root_pid,
            "names": self.names,
            "threads": threads,
            "started_ns": self.started_ns,
            "flushed_ns": time.perf_counter_ns(),
            "counters": counters,
            "lane_counts": self.lane_counts,
            "queue_waits_ns": self.queue_waits,
            "queue_depth_max": self.depth_max,
            "extra": self.extra,
        }
        path = base + ".json"
        with open(path, "w") as stream:
            json.dump(meta, stream)
        return path


def _resolve(module_name: str, dotted: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _value_hook(kind: Optional[str], rec: Recorder):
    """The span-value function for one hook kind: (args, result) -> int."""
    if kind is None:
        return None
    if kind == "not_none":
        return lambda args, result: 0 if result is None else 1
    if kind == "length":
        return lambda args, result: len(result) if result else 0
    if kind == "core":
        def core(args, result):
            rec.cores[id(args[0])] = args[0]
            return result or 0
        return core
    if kind == "skew":
        def skew(args, result):
            jobs = result[0]
            workers = args[2]
            counts = [0] * workers
            for vid, __, __unused in jobs:
                counts[vid % workers] += 1
            rec.lane_counts.append(counts)
            return len(jobs)
        return skew
    raise ValueError(f"unknown value hook {kind!r}")


def _span_wrapper(rec: Recorder, name_id: int, fn: Callable,
                  value: Optional[Callable]):
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        spans, stack, __ = rec.thread_state()
        index = len(spans)
        spans.extend((name_id, 0, 0, stack[-1] if stack else -1, 0))
        stack.append(index)
        spans[index + 1] = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            spans[index + 2] = clock()
            stack.pop()
            if value is not None:
                spans[index + 4] = value(args, result)

    wrapper.__wrapped__ = fn
    return wrapper


def _codegen_wrapper(rec: Recorder, name_id: int, fn: Callable,
                     ctx_of: Callable):
    """A codegen span whose value is the instructions it executed.

    Only the outermost codegen span of a thread takes the delta, so a
    hook that calls a function is not counted twice.
    """
    inner = _span_wrapper(rec, name_id, fn, None)

    def wrapper(*args, **kwargs):
        spans, __, depth = rec.thread_state()
        ctx = ctx_of(args)
        if depth[0] or ctx is None:
            depth[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1
        index = len(spans)
        before = ctx.instr_count
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1
            spans[index + 4] = ctx.instr_count - before

    wrapper.__wrapped__ = fn
    return wrapper


def _queue_wrapper(rec: Recorder, name_id: int, fn: Callable, kind: str):
    """BoundedQueue offer/put/get: time each item from enqueue to
    dequeue, and track the deepest queue seen after an enqueue."""
    inner = _span_wrapper(rec, name_id, fn, None)
    clock = time.perf_counter_ns

    if kind == "offer":
        def wrapper(self, item, *args, **kwargs):
            entered = clock()
            accepted = inner(self, item, *args, **kwargs)
            if accepted:
                rec.queue_enter[id(item)] = entered
                depth = self.depth()
                if depth > rec.depth_max:
                    rec.depth_max = depth
            return accepted
    else:
        def wrapper(self, *args, **kwargs):
            item = inner(self, *args, **kwargs)
            entered = rec.queue_enter.pop(id(item), None)
            if entered is not None:
                rec.queue_waits.extend((entered, clock() - entered))
            return item

    wrapper.__wrapped__ = fn
    return wrapper


class Installation:
    """The patches one :func:`install` applied, for :func:`restore`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.patches: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]
                             if isinstance(owner, type)
                             else getattr(owner, attr)))
        setattr(owner, attr, replacement)


def _import_all() -> None:
    """Import every repro module, so module-level functions can be
    rebound wherever they were imported by name."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith("repro.tools."):
            continue
        importlib.import_module(info.name)


def install(recorder: Recorder) -> Installation:
    """Wrap every layer entry point in :data:`TARGETS`."""
    _import_all()
    inst = Installation(recorder)

    def fiber_ctx(args):
        entry = recorder.fiber_ctx.get(id(args[0]))
        return entry[1] if entry else None

    def call_ctx(args):
        return args[1] if len(args) > 1 else None

    for name_id, (__, module_name, dotted, kind) in enumerate(TARGETS):
        owner, attr, original = _resolve(module_name, dotted)
        if kind in ("instr", "fiber_instr"):
            wrapper = _codegen_wrapper(
                recorder, name_id, original,
                fiber_ctx if kind == "fiber_instr" else call_ctx)
        elif kind in ("offer", "get"):
            wrapper = _queue_wrapper(recorder, name_id, original, kind)
        else:
            wrapper = _span_wrapper(recorder, name_id, original,
                                    _value_hook(kind, recorder))
        if isinstance(owner, type):
            inst.patch(owner, attr, wrapper)
            continue
        # A module-level function: rebind it in every module holding it.
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", None) is None:
                continue
            for key, bound in list(vars(module).items()):
                if bound is original:
                    inst.patch(module, key, wrapper)
    for module_name, dotted, kind in _REGISTRARS:
        owner, attr, original = _resolve(module_name, dotted)
        inst.patch(owner, attr, _registrar(recorder, original, kind))
    _wrap_pool_worker(inst)
    return inst


def _registrar(rec: Recorder, fn: Callable, kind: str):
    if kind == "context":
        def wrapper(self, ctx, *args, **kwargs):
            rec.contexts.append(ctx)
            return fn(self, ctx, *args, **kwargs)
    elif kind == "fiber":
        def wrapper(self, ctx, *args, **kwargs):
            fiber = fn(self, ctx, *args, **kwargs)
            rec.fiber_ctx[id(fiber)] = (fiber, ctx)
            return fiber
    else:
        def wrapper(self, *args, **kwargs):
            rec.programs += 1
            return fn(self, *args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_pool_worker(inst: Installation) -> None:
    """Flush a forked pool worker's spans when its loop returns."""
    from repro.host import pool as pool_module

    original = pool_module.pool_worker_main
    recorder = inst.recorder

    def worker_main(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            recorder.flush()

    worker_main.__wrapped__ = original
    inst.patch(pool_module, "pool_worker_main", worker_main)


def restore(inst: Installation) -> None:
    """Undo every patch, newest first."""
    for owner, attr, original in reversed(inst.patches):
        setattr(owner, attr, original)
    inst.patches.clear()
