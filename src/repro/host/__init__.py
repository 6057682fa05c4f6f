"""The shared host-application substrate.

The paper's central claim (sections 2 and 5) is that HILTI is *one*
abstract execution environment shared by many host applications — a BPF
filter, a stateful firewall, BinPAC++ parsers, and a Bro-style script
engine.  This package is that claim made structural: every trace-driven
service the Bro exemplar grew (tolerant pcap ingest, fault injection and
health accounting, watchdog budgets, the unified telemetry exporter, the
flow-parallel dispatch with deterministic merge) lives here once, behind
a small :class:`HostApp` interface all four exemplars implement.

Layering (docs/ARCHITECTURE.md)::

    tools      repro.tools.{bro,bpf_filter,firewall,pac_driver}
    host       repro.host.{Pipeline,ParallelPipeline,FlowDemux}
    apps       repro.apps.{bro,bpf,firewall,binpac}
    core/rt    repro.core.*, repro.runtime.*
    net        repro.net.{pcap,packet,flows,reassembly,tracegen}
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".app": ("HostApp", "PipelineServices", "export_health"),
    ".demux": ("FlowDemux",),
    ".eviction": ("SessionLRU",),
    ".flowtable": ("FlowEntry", "FlowTable"),
    ".parallel": ("LaneSpec", "ParallelPipeline", "default_backend",
                  "dispatch_plan"),
    ".pipeline": ("Pipeline",),
    ".pool": ("PoolError", "WorkerPool"),
    ".ring": ("MessageChannel", "RingFull", "ShmRing"),
    ".service": ("BoundedQueue", "HostService", "RollingWindows",
                 "ServiceConfig"),
})
