"""§6.6 — concurrency: the same parser under threaded setups.

The paper verifies HILTI's thread-safety guarantees and scheduler
operation by load-balancing DNS traffic across varying numbers of
hardware threads, each processing its share with the HILTI-based parser,
and confirming the same parsing code supports both the threaded and
non-threaded setups.  We reproduce that check and measure scheduler
throughput (jobs/s) across worker counts.  (Python's GIL caps parallel
speedup; the claims under test are correctness and model fidelity, not
scaling.)
"""

import pytest

from repro.core import hiltic
from repro.net.flows import flow_hash, frame_flow_key
from repro.net.packet import parse_ethernet
from repro.runtime.bytes_buffer import Bytes
from repro.runtime.threads import Scheduler

_SRC = """module Main
import Hilti

global int<64> messages
global int<64> byte_total

void process(ref<bytes> payload) {
    local int<64> size
    size = bytes.length payload
    messages = int.incr messages
    byte_total = int.add byte_total size
}

int<64> get_messages() {
    return messages
}

int<64> get_bytes() {
    return byte_total
}
"""


@pytest.fixture(scope="module")
def jobs(dns_trace):
    out = []
    for __, frame in dns_trace:
        info = frame_flow_key(frame)
        __, udp = parse_ethernet(frame)
        if info is None or not udp.payload:
            continue
        payload = Bytes(udp.payload)
        payload.freeze()
        out.append((flow_hash(info[0]), payload))
    return out


def _totals(program, scheduler):
    messages = 0
    total_bytes = 0
    for ctx in scheduler.contexts().values():
        messages += program.call(ctx, "Main::get_messages")
        total_bytes += program.call(ctx, "Main::get_bytes")
    return messages, total_bytes


def _run(jobs, workers, vthreads, threaded=False):
    program = hiltic([_SRC])
    scheduler = Scheduler(program, workers=workers)
    for fh, payload in jobs:
        scheduler.schedule(fh % vthreads, "Main::process", (payload,))
    if threaded:
        scheduler.run_threaded()
    else:
        scheduler.run_until_idle()
    return _totals(program, scheduler), scheduler


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_scheduler_throughput(benchmark, jobs, workers):
    def run():
        return _run(jobs, workers=workers, vthreads=workers * 8)

    (messages, __), ___ = benchmark.pedantic(run, rounds=3, iterations=1)
    assert messages == len(jobs)


def test_correctness_across_configurations(jobs, report, benchmark):
    baseline, __ = _run(jobs, workers=1, vthreads=1)
    rows = {}
    for workers, vthreads in ((1, 8), (2, 16), (4, 64)):
        totals, scheduler = _run(jobs, workers=workers, vthreads=vthreads)
        rows[(workers, vthreads)] = (totals, scheduler.vthread_count)
        assert totals == baseline
        assert scheduler.errors == []
    threaded_totals, __sched = _run(jobs, workers=4, vthreads=64,
                                    threaded=True)
    assert threaded_totals == baseline
    report(
        "6.6 threading (paper: same parser code, threaded and not)",
        jobs=len(jobs),
        baseline_messages=baseline[0],
        configurations_checked=len(rows) + 2,
        all_identical=True,
    )
    benchmark(lambda: None)


def test_deep_copy_isolation_under_load(jobs, report, benchmark):
    """Mutating a payload after scheduling must not corrupt results —
    the scheduler deep-copies arguments at the sender."""
    program = hiltic([_SRC])
    scheduler = Scheduler(program, workers=2)
    mutable = Bytes(b"0123456789")
    scheduler.schedule(1, "Main::process", (mutable,))
    mutable.append(b"EXTRA BYTES APPENDED AFTER SCHEDULING")
    scheduler.run_until_idle()
    ctx = scheduler.context_for(1)
    assert program.call(ctx, "Main::get_bytes") == 10
    report("6.6 argument isolation", deep_copy_respected=True)
    benchmark(lambda: None)
