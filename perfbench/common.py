"""Shared plumbing: checkout paths, seeded trace cache, timed subprocesses,
order statistics and the environment stamp."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(BENCH_DIR, ".cache")
WORK = os.path.join(BENCH_DIR, ".work")
PYTHON = sys.executable

#: Trace recipes: ``tracegen`` arguments, the seed appended last.  The
#: mixed trace is the four-protocol fixture at ~8.2k packets; the DNS
#: trace is ~24k small UDP packets in ~12k short flows.
RECIPES: Dict[str, List[str]] = {
    "mixed": ["mixed", "--sessions", "300", "--queries", "600",
              "--ssh-sessions", "150", "--transfers", "200"],
    "dns": ["dns", "--queries", "12000"],
}

#: Hard limit on any one child process, far above a normal run.
CHILD_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. no program sources)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC}")


class RunResult:
    """One finished child: exit code, wall time, peak RSS, output."""

    def __init__(self, code: int, wall_s: float, rss_mb: float,
                 output: str, spawned: float):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.output = output
        self.spawned = spawned


def run_child(argv: Sequence[str], cwd: str,
              timeout: float = CHILD_TIMEOUT) -> RunResult:
    """Spawn *argv*, wait for it, and time spawn-to-exit.

    The child runs in its own session so a timeout kills its whole
    process tree (pool workers included).  ``wait4`` gives the peak RSS
    of the largest process in the tree that was waited for, i.e. the
    child or any worker it reaped.
    """
    os.makedirs(cwd, exist_ok=True)
    out_path = os.path.join(cwd, "stdout.txt")
    with open(out_path, "wb") as out:
        spawned = time.monotonic()
        begin = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stragglers of a crashed child, if any
    with open(out_path, "rb") as stream:
        output = stream.read().decode("utf-8", "replace")
    return RunResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     output, spawned)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def tool(module: str, *args: str) -> List[str]:
    return [PYTHON, "-m", f"repro.tools.{module}", *args]


def trace_path(recipe: str, seed: int) -> Dict[str, object]:
    """The cached pcap for (*recipe*, *seed*), generated on first use
    with the real ``tracegen`` CLI; returns its path, packets and bytes.
    """
    args = RECIPES[recipe] + ["--seed", str(seed)]
    key = hashlib.sha256(json.dumps(args).encode()).hexdigest()[:12]
    base = os.path.join(CACHE, "traces", f"{recipe}-{seed}-{key}")
    meta_path = base + ".json"
    if os.path.exists(meta_path):
        with open(meta_path) as stream:
            return json.load(stream)
    os.makedirs(os.path.dirname(base), exist_ok=True)
    tmp = f"{base}.{os.getpid()}.tmp.pcap"
    work = os.path.join(WORK, f"tracegen-{os.getpid()}")
    try:
        result = run_child(tool("tracegen", *args, "-o", tmp), cwd=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.code != 0:
        raise BenchError(f"tracegen failed: {result.output[-500:]}")
    packets = _count_records(tmp)
    os.replace(tmp, base + ".pcap")
    meta = {"path": base + ".pcap", "recipe": recipe, "seed": seed,
            "args": args, "packets": packets,
            "bytes": os.path.getsize(base + ".pcap")}
    with open(meta_path + ".tmp", "w") as stream:
        json.dump(meta, stream)
    os.replace(meta_path + ".tmp", meta_path)
    return meta


def _count_records(path: str) -> int:
    """Records in a little-endian microsecond pcap (tracegen's format)."""
    count = 0
    with open(path, "rb") as stream:
        stream.read(24)
        while True:
            header = stream.read(16)
            if len(header) < 16:
                return count
            stream.seek(struct.unpack("<IIII", header)[2], os.SEEK_CUR)
            count += 1


def empty_trace() -> str:
    """A header-only pcap: the run pays set-up and nothing else."""
    path = os.path.join(CACHE, "empty.pcap")
    if not os.path.exists(path):
        os.makedirs(CACHE, exist_ok=True)
        with open(path + ".tmp", "wb") as stream:
            stream.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                                     65535, 1))
        os.replace(path + ".tmp", path)
    return path


def time_left(begin: float, seconds: float, done: int) -> bool:
    """Is there room in the budget for one more iteration as long as
    the average so far?"""
    elapsed = time.monotonic() - begin
    return elapsed + elapsed / max(1, done) <= seconds


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of nothing")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as stream:
            ref = stream.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as stream:
                return stream.read().strip()
        return ref
    except OSError:
        return "unknown"


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, best of three: a host whose
    speed drifted between two sets of runs shows it here."""
    best = float("inf")
    for __ in range(3):
        begin = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value
        best = min(best, time.perf_counter() - begin)
    return best


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        # The program's default (repro.host.pool.default_start_method).
        "start_method": ("fork" if "fork" in
                         multiprocessing.get_all_start_methods()
                         else "spawn"),
        "platform": platform.platform(),
        "commit": commit(),
        "speed_probe_s": speed_probe(),
    }


def loadavg() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def fingerprint_dir(logdir: str, sort_lines: bool = False
                    ) -> Dict[str, str]:
    """sha256 per output file; with *sort_lines* each file's lines are
    sorted first (the parallel merge's documented fingerprint)."""
    prints = {}
    for name in sorted(os.listdir(logdir)):
        with open(os.path.join(logdir, name), "rb") as stream:
            data = stream.read()
        if sort_lines and name != "flow_records.jsonl":
            data = b"\n".join(sorted(data.split(b"\n")))
        prints[name] = hashlib.sha256(data).hexdigest()
    return prints
