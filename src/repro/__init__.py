"""repro — a from-scratch reproduction of HILTI (IMC 2014).

HILTI is an abstract execution environment for deep, stateful network
traffic analysis: an abstract machine model tailored to the networking
domain plus a compilation strategy turning abstract-machine programs into
executable code.  This package provides:

* ``repro.core`` — the abstract machine: type system, IR, textual parser,
  builder API, verifier, optimizer, linker, and two execution tiers
  (closure-compiled and interpreted);
* ``repro.runtime`` — the runtime library: bytes buffers, state-managed
  containers, timers, fibers, virtual threads, regexps, classifiers,
  overlays, channels, files, profilers;
* ``repro.net`` — the packet substrate: wire formats, pcap traces, flows,
  TCP reassembly, and synthetic trace generation;
* ``repro.apps`` — the paper's four host applications: a BPF compiler, a
  stateful firewall, the BinPAC++ parser generator, and a Bro-style script
  compiler.

Every package's public names resolve lazily (``repro._lazy``): a run
imports only the submodules it executes (docs/ARCHITECTURE.md, "Import
discipline").
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.toolchain": ("hilti_build", "hiltic", "run_source"),
    ".core.values": ("Addr", "Interval", "Network", "Port", "Time"),
})
