"""§6.6: the same parser code runs threaded and non-threaded.

The paper verifies HILTI's thread-safety guarantees by load-balancing DNS
traffic across varying numbers of hardware threads, each running the
HILTI-based parser, and checking correct operation.  We reproduce that:
the same compiled parse function processes DNS messages distributed by
flow hash over 1..N virtual threads, and the aggregate results are
identical in every configuration.
"""

import pytest

from repro.core import hiltic
from repro.net.flows import flow_hash, frame_flow_key
from repro.net.packet import parse_ethernet
from repro.net.tracegen import DnsTraceConfig, generate_dns_trace
from repro.runtime.threads import Scheduler

# A HILTI program whose vthreads each count DNS messages and sum txids —
# results live in thread-locals, collected per context afterwards.
_SRC = """module Main
import Hilti

global int<64> messages
global int<64> txid_sum

void process(ref<bytes> payload) {
    local int<64> txid
    txid = unpack payload 0 UInt16Big
    messages = int.incr messages
    txid_sum = int.add txid_sum txid
}

int<64> get_messages() {
    return messages
}

int<64> get_txid_sum() {
    return txid_sum
}
"""


def _dns_payloads(count=120):
    from repro.runtime.bytes_buffer import Bytes

    frames = generate_dns_trace(
        DnsTraceConfig(queries=count, crud_fraction=0.0)
    )
    out = []
    for __, frame in frames:
        key = frame_flow_key(frame)[0]
        __, udp = parse_ethernet(frame)
        if len(udp.payload) >= 2:
            payload = Bytes(udp.payload)
            payload.freeze()
            out.append((flow_hash(key), payload))
    return out


def _run(workers: int, vthreads: int, threaded: bool = False):
    program = hiltic([_SRC])
    scheduler = Scheduler(program, workers=workers)
    for fh, payload in _dns_payloads():
        scheduler.schedule(fh % vthreads, "Main::process", (payload,))
    if threaded:
        scheduler.run_threaded()
    else:
        scheduler.run_until_idle()
    total_messages = 0
    total_txids = 0
    for vid, ctx in scheduler.contexts().items():
        total_messages += program.call(ctx, "Main::get_messages")
        total_txids += program.call(ctx, "Main::get_txid_sum")
    return total_messages, total_txids, scheduler


class TestThreadedParsing:
    def test_non_threaded_baseline(self):
        messages, txids, __ = _run(workers=1, vthreads=1)
        assert messages == len(_dns_payloads())

    @pytest.mark.parametrize("workers,vthreads", [
        (1, 4), (2, 8), (4, 16),
    ])
    def test_same_totals_across_configurations(self, workers, vthreads):
        baseline = _run(workers=1, vthreads=1)[:2]
        result = _run(workers=workers, vthreads=vthreads)[:2]
        assert result == baseline

    def test_real_threads_match(self):
        baseline = _run(workers=1, vthreads=1)[:2]
        threaded = _run(workers=4, vthreads=16, threaded=True)[:2]
        assert threaded == baseline

    def test_flow_affinity(self):
        """All messages of one flow land on the same vthread."""
        payloads = _dns_payloads()
        vthreads = 8
        assignments = {}
        for fh, __ in payloads:
            vid = fh % vthreads
            assignments.setdefault(fh, set()).add(vid)
        assert all(len(v) == 1 for v in assignments.values())

    def test_no_errors_in_any_configuration(self):
        __, ___, scheduler = _run(workers=3, vthreads=12)
        assert scheduler.errors == []


class TestThreadedBinpacParser:
    """§6.6 verbatim: the *BinPAC++-generated DNS parser* itself runs
    load-balanced across virtual threads, with per-thread counters kept
    in thread-local globals via a hook module."""

    @staticmethod
    def _build():
        from repro.apps.binpac.codegen import Parser
        from repro.apps.binpac.grammars import dns_grammar
        from repro.core import types as ht
        from repro.core.builder import ModuleBuilder

        mb = ModuleBuilder("Count")
        mb.global_var("messages", ht.INT64)
        fb = mb.hook("DNS::Message::%done", [("obj", ht.ANY)])
        bumped = fb.temp(ht.INT64, "bumped")
        fb.emit("int.incr", fb.var("messages"), target=bumped)
        fb.emit("assign", bumped, target=fb.var("messages"))
        fb.ret()
        getter = mb.function("get", [], ht.INT64)
        getter.ret(getter.var("messages"))
        return Parser(dns_grammar(), extra_modules=[mb.finish()])

    def _payloads(self):
        from repro.runtime.bytes_buffer import Bytes

        frames = generate_dns_trace(
            DnsTraceConfig(queries=60, crud_fraction=0.0)
        )
        out = []
        for __, frame in frames:
            key = frame_flow_key(frame)[0]
            __ip, udp = parse_ethernet(frame)
            payload = Bytes(udp.payload)
            payload.freeze()
            out.append((flow_hash(key), payload))
        return out

    @pytest.mark.parametrize("workers,vthreads", [(1, 1), (2, 8), (4, 16)])
    def test_parser_counts_identical_across_configs(self, workers,
                                                    vthreads):
        parser = self._build()
        scheduler = Scheduler(parser.program, workers=workers)
        payloads = self._payloads()
        for fh, payload in payloads:
            scheduler.schedule(
                fh % vthreads, "DNS::Message::parse",
                (payload, payload.begin()),
            )
        scheduler.run_until_idle()
        assert scheduler.errors == []
        total = sum(
            parser.program.call(ctx, "Count::get")
            for ctx in scheduler.contexts().values()
        )
        assert total == len(payloads)

    def test_copied_iterator_points_at_copied_buffer(self):
        """The scheduler's deep copy must keep (bytes, iterator) pairs
        internally consistent."""
        from repro.runtime.bytes_buffer import Bytes
        from repro.runtime.channels import deep_copy_value

        buffer = Bytes(b"abcdef")
        buffer.freeze()
        copied_buffer, copied_iter = deep_copy_value(
            (buffer, buffer.begin())
        )
        assert copied_iter.bytes_obj is copied_buffer
        assert copied_buffer is not buffer
