"""The three batch workloads: whole CLI runs as fresh subprocesses.

Each measured iteration runs the workload's command twice, once over a
header-only pcap (set-up: interpreter start, imports, ``hiltic``, pool
spawn, empty merge and output) and once over the seeded trace; the
loop repeats until the time budget is spent and reports medians.
Every run's output goes through the workload's oracle, computed once
per invocation, outside the timed region.
"""

from __future__ import annotations

import os
import re
import shutil
import time
from typing import Dict, List, Optional

import layers
from common import (
    PYTHON,
    WORK,
    BenchError,
    RunResult,
    empty_trace,
    fingerprint_dir,
    loadavg,
    median,
    run_child,
    time_left,
    tool,
    trace_path,
)

TRACED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "traced.py")

#: The BPF workload's filter: about two thirds of the DNS packets pass
#: (clients 10.20.0.1-63, or the first resolver), the rest are rejected.
BPF_FILTER = "udp and port 53 and (net 10.20.0.0/26 or host 192.0.2.1)"

_PROCESSED = re.compile(r"processed (\d+) packets")
_ACCEPTED = re.compile(r"accepted (\d+)")
_FINGERPRINT = re.compile(r"^\s*fingerprint: (sha256:[0-9a-f]+)", re.M)


def _changed(prints: Dict[str, str], reference: Dict[str, str]
             ) -> List[str]:
    """Output files whose fingerprints differ (or exist on one side)."""
    return sorted(name for name in set(prints) | set(reference)
                  if prints.get(name) != reference.get(name))


class BatchWorkload:
    """One CLI configuration over one trace recipe."""

    name = ""
    recipe = ""
    module = ""

    def cli_args(self, trace: str, logdir: str) -> List[str]:
        raise NotImplementedError

    # -- oracle ------------------------------------------------------------

    def prepare(self, trace: Dict, work: str) -> None:
        """Compute the reference output (once per invocation)."""

    def check(self, result: RunResult, logdir: str, packets: int
              ) -> Optional[str]:
        """None when the run's output is correct, else the reason."""
        if result.code != 0:
            return f"exit code {result.code}: {result.output[-300:]}"
        match = _PROCESSED.search(result.output)
        if match is None or int(match.group(1)) != packets:
            return (f"expected 'processed {packets} packets', got "
                    f"{result.output[:200]!r}")
        return None

    # -- running -----------------------------------------------------------

    def command(self, trace: str, logdir: str) -> List[str]:
        return tool(self.module, *self.cli_args(trace, logdir))

    def traced_command(self, trace: str, logdir: str, out: str,
                       spawned_at: float) -> List[str]:
        return [PYTHON, TRACED, "--out", out, "--spawned",
                repr(spawned_at), f"repro.tools.{self.module}", "--",
                *self.cli_args(trace, logdir)]

    def run(self, seed: int, seconds: float, traced: bool) -> Dict:
        trace = trace_path(self.recipe, seed)
        packets = trace["packets"]
        work = os.path.join(WORK, f"{self.name}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            self.prepare(trace, work)
            if traced:
                report = self._run_traced(trace, seconds, work)
            else:
                report = self._run_timed(trace, seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report["trace"] = {key: trace[key]
                           for key in ("recipe", "seed", "packets", "bytes")}
        return report

    def _full_run(self, trace: Dict, work: str, index: int,
                  problems: List[str]) -> RunResult:
        logdir = os.path.join(work, f"full-{index}")
        result = run_child(self.command(trace["path"], logdir), cwd=work)
        problem = self.check(result, logdir, trace["packets"])
        if problem is not None:
            problems.append(f"run {index}: {problem}")
        shutil.rmtree(logdir, ignore_errors=True)
        return result

    def _setup_run(self, work: str, index: int,
                   problems: List[str]) -> RunResult:
        logdir = os.path.join(work, f"setup-{index}")
        result = run_child(self.command(empty_trace(), logdir), cwd=work)
        if result.code != 0 or "processed 0 packets" not in result.output:
            problems.append(f"setup run {index}: exit {result.code}: "
                            f"{result.output[-300:]}")
        shutil.rmtree(logdir, ignore_errors=True)
        return result

    def _run_timed(self, trace: Dict, seconds: float, work: str) -> Dict:
        packets = trace["packets"]
        problems: List[str] = []
        setups: List[RunResult] = []
        fulls: List[RunResult] = []
        loads = []
        begin = time.monotonic()
        index = 0
        while index < 3 or time_left(begin, seconds, index):
            loads.append(loadavg())
            # Alternate the order so drift hits both halves alike.
            if index % 2:
                fulls.append(self._full_run(trace, work, index, problems))
                setups.append(self._setup_run(work, index, problems))
            else:
                setups.append(self._setup_run(work, index, problems))
                fulls.append(self._full_run(trace, work, index, problems))
            index += 1
        wall = median([run.wall_s for run in fulls])
        setup = median([run.wall_s for run in setups])
        metrics = {
            "wall_s": wall,
            "setup_s": setup,
            "pps": packets / (wall - setup) if wall > setup else 0.0,
            "rss_mb": median([run.rss_mb for run in fulls]),
            "lat_p50_ms": wall * 1000.0,
        }
        attempted = packets * len(fulls)
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": min(attempted, packets * len(problems)),
            "metrics": metrics,
            "problems": problems,
            "runs": len(fulls),
            "loadavg": loads,
            "extra": {},
        }

    def _run_traced(self, trace: Dict, seconds: float, work: str) -> Dict:
        """Pairs of (untraced, traced) full runs; per-layer medians."""
        packets = trace["packets"]
        problems: List[str] = []
        runs: List[Dict[str, float]] = []
        loads = []
        begin = time.monotonic()
        index = 0
        while index < 1 or time_left(begin, seconds, index):
            loads.append(loadavg())
            plain = self._full_run(trace, work, index, problems)
            logdir = os.path.join(work, f"traced-{index}")
            out = os.path.join(work, f"spans-{index}")
            spawned_at = time.monotonic()
            result = run_child(
                self.traced_command(trace["path"], logdir, out, spawned_at),
                cwd=work)
            problem = self.check(result, logdir, packets)
            if problem is not None:
                problems.append(f"traced run {index}: {problem}")
                index += 1
                continue
            procs = layers.load(out)
            metrics = layers.analyze(procs, packets)
            problems.extend(f"traced run {index}: {text}" for text in
                            layers.cross_check(metrics, procs, packets))
            metrics["trace.overhead_frac"] = result.wall_s / plain.wall_s - 1
            runs.append(metrics)
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(logdir, ignore_errors=True)
            index += 1
        attempted = packets * 2 * index
        return {
            "correct": not problems and bool(runs),
            "attempted": attempted,
            "failed": min(attempted, packets * len(problems)),
            "metrics": layers.median_metrics(runs),
            "problems": problems,
            "runs": len(runs),
            "loadavg": loads,
            "extra": {},
        }


class BroStdSeq(BatchWorkload):
    """Sequential Bro on the hand-written parsers and script interpreter.

    Oracle: every run's output files byte-identical to the first run's,
    and ``flow_records.jsonl`` valid under ``validate-flowrecords``.
    """

    name = "bro-std-seq"
    recipe = "mixed"
    module = "bro"

    def __init__(self):
        self.reference: Optional[Dict[str, str]] = None

    def cli_args(self, trace: str, logdir: str) -> List[str]:
        return ["-r", trace, "--logdir", logdir]

    def check(self, result, logdir, packets):
        problem = super().check(result, logdir, packets)
        if problem is not None:
            return problem
        prints = fingerprint_dir(logdir)
        if self.reference is None:
            records = os.path.join(logdir, "flow_records.jsonl")
            valid = run_child(
                [PYTHON, "-m", "repro.runtime.telemetry",
                 "validate-flowrecords", "--min-records", "1", records],
                cwd=os.path.dirname(logdir))
            if valid.code != 0:
                return f"validate-flowrecords: {valid.output[-300:]}"
            self.reference = prints
            return None
        if prints != self.reference:
            return (f"output differs from the first run in "
                    f"{_changed(prints, self.reference)}")
        return None


class BroHiltiPar(BatchWorkload):
    """Bro on BinPAC++ parsers and compiled scripts, flow-parallel on the
    shared-memory worker pool with min(2, nproc) workers.

    Oracle: each log's sorted lines (the parallel merge's fingerprint)
    and ``flow_records.jsonl`` byte for byte equal a sequential HILTI run
    of the same trace.
    """

    name = "bro-hilti-par"
    recipe = "mixed"
    module = "bro"

    def __init__(self):
        self.reference: Optional[Dict[str, str]] = None

    def _hilti_args(self, trace: str, logdir: str) -> List[str]:
        return ["-r", trace, "--logdir", logdir, "--parsers", "pac",
                "--compile-scripts"]

    def cli_args(self, trace: str, logdir: str) -> List[str]:
        workers = min(2, os.cpu_count() or 1)
        return self._hilti_args(trace, logdir) + [
            "--parallel", "--backend", "pool", "--workers", str(workers)]

    def prepare(self, trace, work):
        logdir = os.path.join(work, "reference")
        result = run_child(tool("bro", *self._hilti_args(trace["path"],
                                                         logdir)), cwd=work)
        if result.code != 0:
            raise BenchError(f"sequential reference run failed: "
                             f"{result.output[-300:]}")
        self.reference = fingerprint_dir(logdir, sort_lines=True)

    def check(self, result, logdir, packets):
        problem = super().check(result, logdir, packets)
        if problem is not None:
            return problem
        prints = fingerprint_dir(logdir, sort_lines=True)
        if prints != self.reference:
            return (f"differs from the sequential HILTI run in "
                    f"{_changed(prints, self.reference)}")
        return None


class BpfDns(BatchWorkload):
    """The compiled BPF filter over a DNS-only trace.

    Oracle: accept count and accepted-packet fingerprint equal to the
    classic BPF virtual machine (``--engine vm``) on the same trace.
    """

    name = "bpf-dns"
    recipe = "dns"
    module = "bpf_filter"

    def __init__(self):
        self.accepted: Optional[int] = None
        self.fingerprint: Optional[str] = None

    def cli_args(self, trace: str, logdir: str) -> List[str]:
        return [BPF_FILTER, "-r", trace, "--logdir", logdir]

    def prepare(self, trace, work):
        logdir = os.path.join(work, "reference")
        result = run_child(tool(self.module, *self.cli_args(
            trace["path"], logdir), "--engine", "vm"), cwd=work)
        accepted = _ACCEPTED.search(result.output)
        if result.code != 0 or accepted is None:
            raise BenchError(f"BPF VM reference run failed: "
                             f"{result.output[-300:]}")
        self.accepted = int(accepted.group(1))
        printed = _FINGERPRINT.search(result.output)
        self.fingerprint = printed.group(1) if printed else None
        if not 0 < self.accepted < trace["packets"]:
            raise BenchError(f"filter accepts {self.accepted} of "
                             f"{trace['packets']} packets; the workload "
                             "needs both accepts and rejects")

    def check(self, result, logdir, packets):
        problem = super().check(result, logdir, packets)
        if problem is not None:
            return problem
        accepted = _ACCEPTED.search(result.output)
        if accepted is None or int(accepted.group(1)) != self.accepted:
            return f"accept count differs from the VM's {self.accepted}"
        printed = _FINGERPRINT.search(result.output)
        if (printed.group(1) if printed else None) != self.fingerprint:
            return "accepted-packet fingerprint differs from the VM's"
        return None
