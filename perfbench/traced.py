"""Run one repro CLI with the layer wrappers installed.

    python perfbench/traced.py --out DIR --spawned MONO -- MODULE [ARGS...]

Imports ``MODULE`` (timed as ``setup.import_s``), installs the wrappers
of :mod:`tracer`, calls the module's ``main(ARGS)``, shuts the shared
worker pool down so forked workers flush their spans, then writes this
process's spans into ``DIR``.  *MONO* is the parent's
``time.monotonic()`` just before it spawned this process, so the
interpreter start-up shows as ``setup.spawn_s``.  Exits with the CLI's
exit code.
"""

from __future__ import annotations

import time

_STARTED_MONO = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="traced")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("module")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)
    cli_args = ns.args[1:] if ns.args[:1] == ["--"] else ns.args

    import_begin = time.perf_counter_ns()
    module = importlib.import_module(ns.module)
    import_end = time.perf_counter_ns()

    recorder = tracer.Recorder(ns.out)
    installation = tracer.install(recorder)
    recorder.mark("setup.import", import_begin, import_end)
    run_begin = time.perf_counter_ns()
    code = 0
    try:
        code = module.main(cli_args) or 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        run_end = time.perf_counter_ns()
        from repro.host.pool import shutdown_shared_pools

        shutdown_shared_pools()
        tracer.restore(installation)
        recorder.extra.update({
            "import_ns": import_end - import_begin,
            "run_ns": (import_end - import_begin) + (run_end - run_begin),
            "spawn_s": _STARTED_MONO - ns.spawned,
        })
        recorder.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
