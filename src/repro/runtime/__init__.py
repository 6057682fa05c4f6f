"""The HILTI runtime library: data types and execution services."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bytes_buffer": ("Bytes", "BytesIter"),
    ".channels": ("Channel", "deep_copy_value"),
    ".classifier": ("Classifier", "LinearClassifier", "TrieClassifier",
                    "make_classifier"),
    ".containers": ("EXPIRE_ACCESS", "EXPIRE_CREATE", "HiltiList",
                    "HiltiMap", "HiltiSet", "HiltiVector"),
    ".context": ("ExecutionContext",),
    ".exceptions": ("HiltiError", "builtin_exception_types"),
    ".fibers": ("Fiber", "FiberStats", "YIELDED"),
    ".files": ("FileManager", "HiltiFile"),
    ".iosrc": ("IOSource",),
    ".memory": ("AllocationStats",),
    ".overlay": ("OverlayInstance", "unpack_value"),
    ".profiler": ("Profiler", "ProfilerRegistry"),
    ".regexp": ("MATCH_FAIL", "MATCH_NEED_MORE", "MatchState", "RegExp"),
    ".structs": ("Callable", "StructInstance"),
    ".telemetry": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                   "Span", "Telemetry", "Tracer"),
    ".threads": ("Job", "Scheduler"),
    ".timers": ("Timer", "TimerMgr"),
})
