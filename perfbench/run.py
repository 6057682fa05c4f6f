"""The repository benchmark: whole runs of the real CLIs and service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``bro-std-seq``   -- ``bro -r <mixed trace>``, std parsers, interpreted
  scripts, sequential;
* ``bro-hilti-par`` -- ``bro --parsers pac --compile-scripts --parallel
  --backend pool`` with min(2, nproc) workers;
* ``bro-std-serve`` -- the std Bro app behind ``HostService`` (2 thread
  lanes, shed policy) fed DNS traffic by an open-loop generator, first
  below and then above capacity;
* ``bpf-dns``       -- ``bpf_filter`` with a fixed filter over a DNS trace.

``perfbench/README.md`` defines every metric and maps each layer metric
to the end-to-end metric and workload it should move.  Inputs are
generated from ``--seed`` by ``tracegen`` and cached under
``perfbench/.cache``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs untraced/traced pairs and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output oracle held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from batch import BpfDns, BroHiltiPar, BroStdSeq  # noqa: E402
from common import (  # noqa: E402
    PYTHON,
    WORK,
    BenchError,
    environment,
    loadavg,
    median,
    require_sources,
    run_child,
    time_left,
    trace_path,
)

SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")

#: End-to-end metrics with their units, reported by every workload.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("pps", "1/s"),
              ("rss_mb", "MB"), ("lat_p50_ms", "ms")]

#: ``bro-std-serve`` schedule, each phase this many seconds long.  The
#: below-capacity rate is about half of what the two lanes process on
#: a slow 2-CPU host (~6k pps of DNS traffic; ~15k when the same host
#: ran fast).  The overload rate is above capacity even on the fast
#: host; where the generator cannot sustain it, it still offers about
#: twice what the lanes take.  The sweep is in perfbench/README.md and
#: baseline.json.
SERVE_RATE_BELOW = 3000
SERVE_RATE_ABOVE = 24000
SERVE_PHASE_SECONDS = 3

#: Service runs per measurement at least (medians reported).
SERVE_MIN_RUNS = 3

#: A service run is invalid when the generator's p99 lateness in the
#: below-capacity phase exceeds this: the latencies would then measure
#: the generator, not the service.  (Typical: 0.3-10 ms.)
GEN_LATE_BOUND_MS = 100.0


class ServeWorkload:
    """The std Bro app streamed through ``HostService``.

    Oracle: the conservation invariant ``ingested == processed + shed +
    lost + dropped`` holds, no lane crashed, nothing was shed below
    capacity, the drain exited 0 and the generator kept its schedule.
    """

    name = "bro-std-serve"
    recipe = "dns"

    def child(self, trace: Dict, work: str, tag: str, phases: List,
              trace_out: str = None):
        """Run the service child once; (RunResult, its report or None)."""
        child_dir = os.path.join(work, tag)
        os.makedirs(child_dir, exist_ok=True)
        out = os.path.join(child_dir, "result.json")
        argv = [PYTHON, SERVE, "--trace", trace["path"], "--out", out,
                "--workdir", child_dir]
        for rate, count in phases:
            argv += ["--phase", f"{rate}:{count}"]
        if trace_out is not None:
            argv += ["--trace-out", trace_out,
                     "--spawned", repr(time.monotonic())]
        result = run_child(argv, cwd=child_dir)
        report = None
        if result.code == 0 and os.path.exists(out):
            with open(out) as stream:
                report = json.load(stream)
        shutil.rmtree(os.path.join(child_dir, "logs"), ignore_errors=True)
        return result, report

    def _check(self, result, report, problems: List[str], tag: str,
               on_schedule: bool = True):
        """Failed packets of one service run (all of them when the run
        itself is invalid).  *on_schedule* requires the generator to
        have kept its schedule; the traced run, slowed by its wrappers,
        only feeds the layer split and is exempt."""
        if report is None:
            problems.append(f"{tag}: exit {result.code}: "
                            f"{result.output[-300:]}")
            return None
        totals = report["totals"]
        offered = totals["packets_ingested"]
        accounted = (totals["packets_processed"] + totals["packets_shed"]
                     + totals["packets_lost"] + totals["packets_dropped"])
        if accounted != offered:
            problems.append(f"{tag}: conservation broken: ingested "
                            f"{offered} != {accounted}")
            return offered
        if totals["lane_crashes"]:
            problems.append(f"{tag}: {totals['lane_crashes']} lane crashes")
            return offered
        below = report["phases"][0]
        late = below["late_ms_p99"]
        if on_schedule and late > GEN_LATE_BOUND_MS:
            problems.append(f"{tag}: generator ran {late:.0f} ms late below "
                            f"capacity (bound {GEN_LATE_BOUND_MS:.0f} ms)")
            return offered
        failed = totals["packets_lost"] + totals["packets_dropped"]
        if below["shed"]:
            problems.append(f"{tag}: {below['shed']} packets shed below "
                            "capacity")
            failed += below["shed"]
        if failed:
            problems.append(f"{tag}: {failed} packets lost or dropped")
        return failed

    @staticmethod
    def _phases():
        """(rate, packets) of the below- and above-capacity phases."""
        return [(rate, rate * SERVE_PHASE_SECONDS)
                for rate in (SERVE_RATE_BELOW, SERVE_RATE_ABOVE)]

    def run(self, seed: int, seconds: float, traced: bool) -> Dict:
        trace = trace_path(self.recipe, seed)
        work = os.path.join(WORK, f"{self.name}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            if traced:
                report = self._run_traced(trace, seconds, work)
            else:
                report = self._run_timed(trace, seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report["trace"] = {key: trace[key]
                           for key in ("recipe", "seed", "packets", "bytes")}
        return report

    def _run_timed(self, trace, seconds, work) -> Dict:
        """Service runs until the time budget is spent; medians over the
        runs.  ``setup_s`` is each run's spawn-to-both-lanes-begun time
        (the generator waits for it, so traffic never enters it).
        ``rss_mb`` is the child's peak RSS at the end of the
        below-capacity phase: the service keeps a flow record per flow
        it processed, and how many packets the overload phase processes
        follows the host's speed, so a whole-run peak would too."""
        problems: List[str] = []
        loads = []
        setups: List[float] = []
        runs: List[Dict[str, float]] = []
        attempted = failed = 0
        phases = self._phases()
        begin = time.monotonic()
        index = 0
        while index < SERVE_MIN_RUNS or time_left(begin, seconds, index):
            loads.append(loadavg())
            result, report = self.child(trace, work, f"run-{index}",
                                        phases)
            lost = self._check(result, report, problems, f"run {index}")
            index += 1
            if report is None:
                attempted += 1
                failed += 1
                continue
            attempted += report["totals"]["packets_ingested"]
            failed += lost
            setups.append(report["begun_mono"] - result.spawned)
            below, above = report["phases"]
            runs.append({
                "wall_s": result.wall_s,
                "rss_mb": below["peak_rss_mb"],
                "pps": above["processed"] / above["elapsed_s"],
                "lat_p50_ms": below["lat_p50_ms"],
                "lat_p99_ms": below["lat_p99_ms"],
                "shed_frac": above["shed"] / max(1, above["offered"]),
                "gen_late_ms": below["late_ms_p99"],
                "latency_samples": below["latency_samples"],
            })
        if not runs:
            return _failed_report(problems, loads)
        medians = layers.median_metrics(runs)
        metrics = {name: medians[name]
                   for name in ("wall_s", "pps", "rss_mb", "lat_p50_ms")}
        metrics["setup_s"] = median(setups)
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": min(attempted, failed),
            "metrics": metrics,
            "problems": problems,
            "runs": len(runs),
            "loadavg": loads,
            "extra": {
                "goodput_pps": medians["pps"],
                "lat_p99_ms": medians["lat_p99_ms"],
                "shed_frac": medians["shed_frac"],
                "gen_late_ms": max(run["gen_late_ms"] for run in runs),
                "latency_samples": medians["latency_samples"],
            },
        }

    def _run_traced(self, trace, seconds, work) -> Dict:
        """One untraced and one traced service run."""
        problems: List[str] = []
        loads = [loadavg()]
        phases = self._phases()
        plain, plain_report = self.child(trace, work, "plain", phases)
        failed = self._check(plain, plain_report, problems, "untraced run")
        loads.append(loadavg())
        spans = os.path.join(work, "spans")
        result, report = self.child(trace, work, "traced", phases,
                                     trace_out=spans)
        failed_traced = self._check(result, report, problems, "traced run",
                                    on_schedule=False)
        if plain_report is None or report is None:
            return _failed_report(problems, loads)
        procs = layers.load(spans)
        processed = report["totals"]["packets_processed"]
        metrics = layers.analyze(procs, processed)
        problems.extend(layers.cross_check(metrics, procs, trace["packets"]))
        below, above = plain_report["phases"]
        traced_above = report["phases"][1]
        goodput = above["processed"] / above["elapsed_s"]
        traced_goodput = traced_above["processed"] / traced_above["elapsed_s"]
        metrics.update({
            "trace.overhead_frac": goodput / traced_goodput - 1,
            "gen.late_ms": below["late_ms_p99"],
            "lat_p99_ms": below["lat_p99_ms"],
            "shed_frac": above["shed"] / max(1, above["offered"]),
        })
        attempted = (plain_report["totals"]["packets_ingested"]
                     + report["totals"]["packets_ingested"])
        failed_all = (failed or 0) + (failed_traced or 0)
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": min(attempted, failed_all),
            "metrics": metrics,
            "problems": problems,
            "runs": 1,
            "loadavg": loads,
            "extra": {},
        }


def _failed_report(problems, loads) -> Dict:
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "problems": problems, "runs": 0, "loadavg": loads, "extra": {}}


WORKLOADS = {
    "bro-std-seq": BroStdSeq,
    "bro-hilti-par": BroHiltiPar,
    "bro-std-serve": ServeWorkload,
    "bpf-dns": BpfDns,
}


def _metric_block(report: Dict, traced: bool) -> Dict[str, Dict]:
    """The final line's metrics: every declared metric of the mode,
    by name with its unit (0 where a layer never ran)."""
    declared = layers.PER_LAYER if traced else END_TO_END
    values = report["metrics"]
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        require_sources()
        env = environment()
        report = WORKLOADS[ns.workload]().run(ns.seed, ns.seconds,
                                              bool(ns.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    metrics = _metric_block(report, bool(ns.trace))
    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"]) if report["correct"] else max(
        1, int(report["failed"]))
    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"runs {report['runs']}  input {report.get('trace')}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in sorted(report["extra"].items()):
        if isinstance(value, (int, float)):
            print(f"  {name:<28} {value:>16.6g}")
    print(f"  {'fail_frac':<28} {failed / attempted:>16.6g}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    print("env " + json.dumps(dict(env, loadavg=report["loadavg"])))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
