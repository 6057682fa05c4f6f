"""Start-up import discipline: each CLI run imports only what it executes.

Without a bytecode cache every imported module is compiled from source
on every run, so the import set *is* the start-up cost.  Package
``__init__``s resolve their exports lazily (``repro._lazy``) and
features import their heavy modules at their branch point — never per
packet.  These tests pin that:

* each driver, run over a header-only pcap in a fresh interpreter,
  loads none of the modules on its deny list;
* ``repro.host.worker`` (the ``spawn`` entry) loads only the stdlib and
  the ring;
* a zero-packet std ``bro`` run loads the same ``repro`` modules as a
  run over real traffic (minus the per-protocol analyzers, which load
  at a flow's first packet) — so no import moved onto the packet path;
* every name a package exported before the lazy tables still resolves
  to the object its defining submodule holds, and is listed by ``dir``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence, Set

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: Run ``python -m MODULE ARGS...`` in-process under runpy and print the
#: loaded module names as JSON (the tool's own stdout is swallowed).
_RUN_TOOL = r"""
import contextlib, io, json, runpy, sys
module = sys.argv[1]
sys.argv = [module] + sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        if stop.code:
            raise
print(json.dumps(sorted(sys.modules)))
"""

_IMPORT_ONLY = r"""
import json, sys
before = set(sys.modules)
import repro.host.worker
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_CHECK_EXPORTS = r"""
import json, sys
from tests.integration.test_startup_imports import (
    EAGER_EXPORTS, export_problems)
print(json.dumps(export_problems(EAGER_EXPORTS)))
"""

#: Modules std ``bro`` never executes: the HILTI compiler stack, the
#: script compiler, the service/pool/ring transports, trace generation.
_BRO_STD_DENY = (
    "repro.core.codegen", "repro.core.optimize", "repro.core.parser",
    "repro.core.printer", "repro.apps.bro.compiler", "repro.host.service",
    "repro.host.pool", "repro.host.ring", "repro.net.tracegen",
    "multiprocessing",
)

#: Shared by every sequential driver.
_TRANSPORTS = ("repro.host.service", "repro.host.pool", "repro.host.ring",
               "repro.net.tracegen", "repro.net.replay", "multiprocessing")


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    root = os.path.dirname(_SRC)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC, root] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _python(code: str, *args: str, cwd: str) -> List[str]:
    result = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=_env(),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


def _loaded(tmp_path, module: str, *args: str) -> Set[str]:
    return set(_python(_RUN_TOOL, module, *args, cwd=str(tmp_path)))


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    from repro.net.pcap import write_pcap
    from repro.net.tracegen import (
        DnsTraceConfig,
        HttpTraceConfig,
        SshTraceConfig,
        generate_mixed_trace,
    )

    root = tmp_path_factory.mktemp("startup")
    empty = str(root / "empty.pcap")
    write_pcap(empty, [])
    mixed = str(root / "mixed.pcap")
    write_pcap(mixed, generate_mixed_trace(
        http=HttpTraceConfig(sessions=6, seed=5),
        dns=DnsTraceConfig(queries=12, seed=5),
        ssh=SshTraceConfig(sessions=2, seed=5),
    ))
    rules = root / "rules.txt"
    rules.write_text("10.0.0.0/8 * allow\n")
    return {"empty": empty, "mixed": mixed, "rules": str(rules)}


_DRIVERS = {
    "bro-std": (
        ["repro.tools.bro", "--logdir", "logs"],
        _BRO_STD_DENY,
    ),
    "bro-pac-compiled": (
        ["repro.tools.bro", "--logdir", "logs", "--parsers", "pac",
         "--compile-scripts"],
        _TRANSPORTS + ("repro.core.parser", "repro.core.printer",
                       "repro.core.interp", "repro.apps.bro.interp"),
    ),
    # The bundled track.bro has a `for` loop, so compiling it needs the
    # container-iteration instructions without the HILTI text parser.
    "bro-compiled-track": (
        ["repro.tools.bro", "--logdir", "logs", "--compile-scripts",
         "track.bro"],
        _TRANSPORTS + ("repro.core.parser", "repro.core.printer"),
    ),
    "bpf_filter": (
        ["repro.tools.bpf_filter", "udp", "--logdir", "logs"],
        _TRANSPORTS + ("repro.core.parser", "repro.core.printer",
                       "repro.core.interp", "repro.host.demux",
                       "repro.net.reassembly"),
    ),
    "firewall": (
        ["repro.tools.firewall", "--rules", "{rules}", "--logdir", "logs"],
        _TRANSPORTS + ("repro.core.printer", "repro.core.interp",
                       "repro.host.demux", "repro.net.reassembly"),
    ),
    "pac_driver": (
        ["repro.tools.pac_driver", "--logdir", "logs"],
        _TRANSPORTS + ("repro.core.parser", "repro.core.printer",
                       "repro.core.interp"),
    ),
    "flowexport": (
        ["repro.tools.flowexport", "--logdir", "logs"],
        _TRANSPORTS + ("repro.core.toolchain", "repro.core.codegen",
                       "repro.runtime.telemetry", "repro.host.pipeline"),
    ),
}


#: Every driver runs over the header-only pcap; those listed here also
#: run over the mixed trace.
_RUNS = [(driver, "empty") for driver in sorted(_DRIVERS)] + [
    ("bro-compiled-track", "mixed"),
]


class TestDriverImportSets:
    @pytest.mark.parametrize("driver,trace", _RUNS)
    def test_run_skips_deny_list(self, driver, trace, traces, tmp_path):
        argv, deny = _DRIVERS[driver]
        argv = [arg.format(**traces) for arg in argv]
        loaded = _loaded(tmp_path, argv[0], "-r", traces[trace], *argv[1:])
        assert "repro.net.pcap" in loaded  # the run really read the trace
        leaked = sorted(name for name in deny if name in loaded)
        assert not leaked, f"{driver} imported {leaked}"

    def test_worker_entry_loads_only_stdlib_and_ring(self, tmp_path):
        new = _python(_IMPORT_ONLY, cwd=str(tmp_path))
        allowed = {"repro", "repro._lazy", "repro.host", "repro.host.ring",
                   "repro.host.worker", "__main__", "__mp_main__"}
        foreign = sorted(
            name for name in new
            if name not in allowed
            and name.split(".")[0] not in sys.stdlib_module_names)
        assert not foreign, foreign

    def test_no_import_moved_onto_the_packet_path(self, traces, tmp_path):
        """Everything a std run over traffic imports was already loaded
        by a zero-packet run, except the per-protocol analyzers, which
        load once at a flow's first packet."""
        empty = _loaded(tmp_path, "repro.tools.bro", "-r", traces["empty"],
                        "--logdir", "empty-logs")
        mixed = _loaded(tmp_path, "repro.tools.bro", "-r", traces["mixed"],
                        "--logdir", "mixed-logs")

        def repro_modules(names):
            return {name for name in names
                    if name.startswith("repro")
                    and not name.startswith("repro.apps.bro.analyzers")
                    and name != "repro.apps.bro.files"}

        assert "repro.apps.bro.analyzers.http_std" in mixed
        assert repro_modules(mixed) == repro_modules(empty)


# --------------------------------------------------------------------------
# Public-API parity with the eager re-export blocks the lazy tables replaced
# --------------------------------------------------------------------------

#: package -> {defining submodule -> names the package exported before
#: its ``__init__`` became a lazy table}.  A key equal to
#: ``package.name`` exports that submodule itself.
EAGER_EXPORTS: Dict[str, Dict[str, Sequence[str]]] = {
    "repro": {
        "repro.core.toolchain": ("hilti_build", "hiltic", "run_source"),
        "repro.core.values": ("Addr", "Interval", "Network", "Port",
                              "Time"),
    },
    "repro.core": {
        "repro.core.types": ("types",),
        "repro.core.builder": ("FunctionBuilder", "ModuleBuilder"),
        "repro.core.codegen": ("CompiledProgram", "compile_program"),
        "repro.core.interp": ("Interpreter",),
        "repro.core.ir": (
            "Block", "Const", "FieldRef", "FuncRef", "Function",
            "GlobalVar", "Instruction", "LabelRef", "Location", "Module",
            "Parameter", "TupleOp", "TypeRef", "Var",
        ),
        "repro.core.linker": ("LinkedProgram", "LinkError", "link"),
        "repro.core.optimize": ("DEFAULT_OPT_LEVEL", "OPT_LEVELS",
                                "OptStats", "optimize_module"),
        "repro.core.parser": ("ParseError", "parse_module", "parse_type"),
        "repro.core.printer": ("PrintError", "print_module"),
        "repro.core.stubs": ("Stub", "StubResult", "make_stub"),
        "repro.core.toolchain": ("HiltiExecutable", "hilti_build",
                                 "hiltic", "run_source"),
        "repro.core.typecheck": ("TypeCheckError", "check_module"),
        "repro.core.values": ("Addr", "Interval", "Network", "Port",
                              "Time"),
    },
    "repro.runtime": {
        "repro.runtime.bytes_buffer": ("Bytes", "BytesIter"),
        "repro.runtime.channels": ("Channel", "deep_copy_value"),
        "repro.runtime.classifier": ("Classifier", "LinearClassifier",
                                     "TrieClassifier", "make_classifier"),
        "repro.runtime.containers": ("EXPIRE_ACCESS", "EXPIRE_CREATE",
                                     "HiltiList", "HiltiMap", "HiltiSet",
                                     "HiltiVector"),
        "repro.runtime.context": ("ExecutionContext",),
        "repro.runtime.exceptions": ("HiltiError",
                                     "builtin_exception_types"),
        "repro.runtime.fibers": ("Fiber", "FiberStats", "YIELDED"),
        "repro.runtime.files": ("FileManager", "HiltiFile"),
        "repro.runtime.iosrc": ("IOSource",),
        "repro.runtime.memory": ("AllocationStats",),
        "repro.runtime.overlay": ("OverlayInstance", "unpack_value"),
        "repro.runtime.profiler": ("Profiler", "ProfilerRegistry"),
        "repro.runtime.regexp": ("MATCH_FAIL", "MATCH_NEED_MORE",
                                 "MatchState", "RegExp"),
        "repro.runtime.structs": ("Callable", "StructInstance"),
        "repro.runtime.telemetry": ("Counter", "Gauge", "Histogram",
                                    "MetricsRegistry", "Span",
                                    "Telemetry", "Tracer"),
        "repro.runtime.threads": ("Job", "Scheduler"),
        "repro.runtime.timers": ("Timer", "TimerMgr"),
    },
    "repro.net": {
        "repro.net.flows": ("FiveTuple", "flow_hash", "frame_flow_key",
                            "orient"),
        "repro.net.packet": (
            "EthernetFrame", "IPv4Packet", "IPv6Packet", "PacketError",
            "TCPSegment", "UDPDatagram", "build_tcp6_packet",
            "build_tcp_packet", "build_udp6_packet", "build_udp_packet",
            "parse_ethernet",
        ),
        "repro.net.pcap": ("PcapReader", "PcapWriter", "read_pcap",
                           "write_pcap"),
        "repro.net.reassembly": ("ConnectionReassembler",
                                 "StreamReassembler"),
        "repro.net.replay": ("LiveCaptureSource", "RateLimiter",
                             "TraceReplayer"),
        "repro.net.tracegen": ("DnsTraceConfig", "HttpTraceConfig",
                               "generate_dns_trace", "generate_http_trace",
                               "write_dns_trace", "write_http_trace"),
    },
    "repro.host": {
        "repro.host.app": ("HostApp", "PipelineServices", "export_health"),
        "repro.host.demux": ("FlowDemux",),
        "repro.host.eviction": ("SessionLRU",),
        "repro.host.flowtable": ("FlowEntry", "FlowTable"),
        "repro.host.parallel": ("LaneSpec", "ParallelPipeline",
                                "default_backend", "dispatch_plan"),
        "repro.host.pipeline": ("Pipeline",),
        "repro.host.pool": ("PoolError", "WorkerPool"),
        "repro.host.ring": ("MessageChannel", "RingFull", "ShmRing"),
        "repro.host.service": ("BoundedQueue", "HostService",
                               "RollingWindows", "ServiceConfig"),
    },
    "repro.lib": {
        "repro.lib.session_table": ("SESSION_TABLE", "SessionTable"),
    },
    "repro.apps.bro": {
        "repro.apps.bro.core": ("BroCore",),
        "repro.apps.bro.interp": ("ScriptInterp",),
        "repro.apps.bro.lang": ("BroParseError", "Script", "parse_script"),
        "repro.apps.bro.logging": ("LogManager", "normalize_log"),
        "repro.apps.bro.main": ("Bro", "default_scripts"),
        "repro.apps.bro.parallel": ("ParallelBro",),
        "repro.apps.bro.val": ("RecordVal", "SetVal", "TableVal",
                               "VectorVal"),
    },
    "repro.apps.binpac": {
        "repro.apps.binpac.ast": ("ast",),
        "repro.apps.binpac.codegen": ("GrammarCompiler", "ParseSession",
                                      "Parser", "compile_grammar"),
        "repro.apps.binpac.evt": ("AnalyzerSpec", "EventSpec", "EvtFile",
                                  "build_glue_module", "parse_evt"),
        "repro.apps.binpac.parser": ("parse_grammar",),
        "repro.apps.binpac.runtime": ("ParseError",),
    },
    "repro.apps.firewall": {
        "repro.apps.firewall.compiler": ("HiltiFirewall",
                                         "compile_firewall",
                                         "generate_hilti_source"),
        "repro.apps.firewall.reference": ("ReferenceFirewall",),
        "repro.apps.firewall.rules": ("Rule", "RuleError", "RuleSet"),
    },
    "repro.apps.bpf": {
        "repro.apps.bpf.compiler": ("HiltiFilter", "build_filter_module",
                                    "compile_to_hilti"),
        "repro.apps.bpf.lang": ("FilterError", "parse_filter"),
        "repro.apps.bpf.vm": ("BpfProgram", "compile_to_vm"),
    },
}


def export_problems(table: Dict[str, Dict[str, Sequence[str]]]
                    ) -> List[str]:
    """Every way *table*'s names fail to resolve through their package:
    missing, a different object than the defining submodule's, or absent
    from ``dir(package)``."""
    problems = []
    for package_name, modules in table.items():
        package = importlib.import_module(package_name)
        for module_name, names in modules.items():
            for name in names:
                try:
                    value = getattr(package, name)
                except AttributeError as error:
                    problems.append(f"{package_name}.{name}: {error}")
                    continue
                module = importlib.import_module(module_name)
                expected = (module if module_name == f"{package_name}.{name}"
                            else getattr(module, name))
                if value is not expected:
                    problems.append(f"{package_name}.{name} is not "
                                    f"{module_name}.{name}")
                if name not in dir(package):
                    problems.append(f"{name} missing from "
                                    f"dir({package_name})")
    return problems


class TestPublicApiParity:
    def test_every_export_resolves_in_a_fresh_interpreter(self, tmp_path):
        """Resolution from a cold start exercises the lazy path itself
        (in this process most submodules are already loaded)."""
        assert _python(_CHECK_EXPORTS, cwd=str(tmp_path)) == []

    def test_submodule_imports_through_packages(self, tmp_path):
        code = (
            "import json\n"
            "from repro.core import types as ht\n"
            "from repro.net import ipsumdump\n"
            "from repro.core import OPT_LEVELS, DEFAULT_OPT_LEVEL\n"
            "import repro.core.optimize as opt\n"
            "print(json.dumps([ht.__name__, ipsumdump.__name__,\n"
            "    OPT_LEVELS is opt.OPT_LEVELS,\n"
            "    DEFAULT_OPT_LEVEL == opt.DEFAULT_OPT_LEVEL]))\n"
        )
        assert _python(code, cwd=str(tmp_path)) == [
            "repro.core.types", "repro.net.ipsumdump", True, True]

    def test_unknown_name_is_an_attribute_error(self):
        import repro.core

        assert not hasattr(repro.core, "no_such_export")
        with pytest.raises(ImportError):
            from repro.host import no_such_export  # noqa: F401
