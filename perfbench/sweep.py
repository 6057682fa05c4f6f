"""One-off rate sweep that sized the ``bro-std-serve`` phase rates.

    python3 perfbench/sweep.py [--seed 42] [--seconds 6] [RATE ...]

Runs the service child once per offered rate (one phase of *seconds*
over the workload's trace, pinned to one CPU as in the benchmark) and
prints, per rate: packets processed per second, shed fraction, latency
p50/p99 and how late the generator ran.  The below-capacity rate is
chosen where nothing is shed and p50 latency is flat; the overload
rate is one the generator still sustains (low lateness) while the
lanes shed.  The recorded sweep is in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import WORK, require_sources, trace_path  # noqa: E402
from run import ServeWorkload  # noqa: E402


def sweep(seed: int, seconds: float, rates):
    workload = ServeWorkload()
    trace = trace_path(workload.recipe, seed)
    work = os.path.join(WORK, f"sweep-{os.getpid()}")
    rows = []
    try:
        for rate in rates:
            result, report = workload.child(
                trace, work, str(rate), [(rate, int(rate * seconds))])
            if report is None:
                raise RuntimeError(result.output[-500:])
            phase = report["phases"][0]
            rows.append({
                "offered_pps": rate,
                "processed_pps": round(phase["processed"]
                                       / phase["elapsed_s"], 1),
                "shed_frac": round(phase["shed"]
                                   / max(1, phase["offered"]), 4),
                "lat_p50_ms": round(phase["lat_p50_ms"], 3),
                "lat_p99_ms": round(phase["lat_p99_ms"], 3),
                "gen_late_ms_p99": round(phase["late_ms_p99"], 3),
                "sent_frac": round(phase["offered"]
                                   / (rate * seconds), 4),
            })
            print(json.dumps(rows[-1]), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sweep")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("rates", nargs="*", type=int,
                        default=[2000, 3000, 4000, 6000, 8000, 10000,
                                 12000])
    ns = parser.parse_args(argv)
    require_sources()
    sweep(ns.seed, ns.seconds, ns.rates)
    return 0


if __name__ == "__main__":
    sys.exit(main())
