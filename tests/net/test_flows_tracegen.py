"""Flow hashing, trace generation, ipsumdump."""

import pytest
from hypothesis import given, strategies as st

from repro.core.values import Addr
from repro.net import ipsumdump
from repro.net.flows import FiveTuple, flow_hash, frame_flow_key
from repro.net.packet import PROTO_TCP, PROTO_UDP, parse_ethernet
from repro.net.tracegen import (
    DnsTraceConfig,
    HttpTraceConfig,
    SshTraceConfig,
    TftpTraceConfig,
    generate_dns_trace,
    generate_http_trace,
    generate_mixed_trace,
    generate_ssh_trace,
    generate_tftp_trace,
)


class TestFlows:
    def test_symmetric_hash(self):
        ft = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"), 1234, 80,
                       PROTO_TCP)
        assert flow_hash(ft.key) == flow_hash(ft.reversed().key)

    def test_different_flows_differ(self):
        a = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"), 1234, 80, PROTO_TCP)
        b = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"), 1235, 80, PROTO_TCP)
        assert flow_hash(a.key) != flow_hash(b.key)

    def test_protocol_distinguishes(self):
        a = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"), 53, 53, PROTO_TCP)
        b = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"), 53, 53, PROTO_UDP)
        assert flow_hash(a.key) != flow_hash(b.key)

    def test_frame_flow_key(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=2))
        info = frame_flow_key(frames[0][1])
        assert info is not None
        assert info[0][4] == PROTO_TCP
        assert frame_flow_key(b"garbage") is None

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
           st.integers(0, 65535), st.integers(0, 65535))
    def test_hash_direction_invariant(self, a, b, pa, pb):
        ft = FiveTuple(Addr.from_v4_int(a), Addr.from_v4_int(b), pa, pb,
                       PROTO_TCP)
        assert flow_hash(ft.key) == flow_hash(ft.reversed().key)


class TestHttpTrace:
    def test_deterministic(self):
        a = generate_http_trace(HttpTraceConfig(seed=7, sessions=5))
        b = generate_http_trace(HttpTraceConfig(seed=7, sessions=5))
        assert [f for __, f in a] == [f for __, f in b]

    def test_different_seeds_differ(self):
        a = generate_http_trace(HttpTraceConfig(seed=1, sessions=5))
        b = generate_http_trace(HttpTraceConfig(seed=2, sessions=5))
        assert [f for __, f in a] != [f for __, f in b]

    def test_timestamps_monotonic(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=5))
        times = [t.nanos for t, __ in frames]
        assert times == sorted(times)

    def test_contains_http_payload(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=3))
        request_seen = False
        response_seen = False
        for __, frame in frames:
            ip, tcp = parse_ethernet(frame)
            if tcp is None or not tcp.payload:
                continue
            if tcp.payload.startswith((b"GET ", b"POST ", b"HEAD ", b"PUT ")):
                request_seen = True
            if tcp.payload.startswith(b"HTTP/1.1 "):
                response_seen = True
        assert request_seen and response_seen

    def test_all_port_80(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=3))
        for __, frame in frames:
            __, tcp = parse_ethernet(frame)
            assert 80 in (tcp.src_port, tcp.dst_port)


class TestDnsTrace:
    def test_deterministic(self):
        a = generate_dns_trace(DnsTraceConfig(seed=5, queries=20))
        b = generate_dns_trace(DnsTraceConfig(seed=5, queries=20))
        assert [f for __, f in a] == [f for __, f in b]

    def test_all_port_53_udp(self):
        frames = generate_dns_trace(DnsTraceConfig(queries=20))
        for __, frame in frames:
            ip, udp = parse_ethernet(frame)
            assert ip.protocol == PROTO_UDP
            assert 53 in (udp.src_port, udp.dst_port)

    def test_requests_get_responses(self):
        config = DnsTraceConfig(queries=50, unanswered_fraction=0.0,
                                crud_fraction=0.0)
        frames = generate_dns_trace(config)
        # With no crud and no drops, every query has exactly one reply.
        assert len(frames) == 100

    def test_crud_fraction(self):
        config = DnsTraceConfig(queries=200, crud_fraction=1.0)
        frames = generate_dns_trace(config)
        # All crud: one packet per "query", no responses.
        assert len(frames) == 200


class TestSshTrace:
    def test_deterministic(self):
        a = generate_ssh_trace(SshTraceConfig(seed=9, sessions=15))
        b = generate_ssh_trace(SshTraceConfig(seed=9, sessions=15))
        assert [f for __, f in a] == [f for __, f in b]

    def test_all_port_22_tcp(self):
        frames = generate_ssh_trace(SshTraceConfig(sessions=10))
        for __, frame in frames:
            ip, tcp = parse_ethernet(frame)
            assert ip.protocol == PROTO_TCP
            assert 22 in (tcp.src_port, tcp.dst_port)

    def test_banners_present(self):
        frames = generate_ssh_trace(
            SshTraceConfig(sessions=20, crud_fraction=0.0))
        payloads = b"".join(f for __, f in frames)
        assert b"SSH-" in payloads

    def test_crud_sessions_lack_banner(self):
        frames = generate_ssh_trace(
            SshTraceConfig(sessions=20, crud_fraction=1.0))
        payloads = b"".join(f for __, f in frames)
        assert b"NOT-AN-SSH-SERVER" in payloads

    def test_timestamps_monotonic(self):
        frames = generate_ssh_trace(SshTraceConfig(sessions=10))
        times = [t for t, __ in frames]
        assert times == sorted(times)


class TestTftpTrace:
    def test_deterministic(self):
        a = generate_tftp_trace(TftpTraceConfig(seed=9, transfers=15))
        b = generate_tftp_trace(TftpTraceConfig(seed=9, transfers=15))
        assert [f for __, f in a] == [f for __, f in b]

    def test_all_port_69_udp(self):
        frames = generate_tftp_trace(TftpTraceConfig(transfers=10))
        for __, frame in frames:
            ip, udp = parse_ethernet(frame)
            assert ip.protocol == PROTO_UDP
            assert 69 in (udp.src_port, udp.dst_port)

    def test_requests_and_data(self):
        frames = generate_tftp_trace(
            TftpTraceConfig(transfers=30, error_fraction=0.0,
                            crud_fraction=0.0))
        opcodes = set()
        for __, frame in frames:
            __, udp = parse_ethernet(frame)
            opcodes.add(int.from_bytes(udp.payload[:2], "big"))
        assert {1, 3, 4} <= opcodes  # RRQ, DATA, ACK

    def test_error_fraction(self):
        frames = generate_tftp_trace(
            TftpTraceConfig(transfers=40, error_fraction=1.0,
                            crud_fraction=0.0))
        # All transfers answered with ERROR: request + error only.
        for __, frame in frames:
            __, udp = parse_ethernet(frame)
            assert int.from_bytes(udp.payload[:2], "big") in (1, 2, 5)


class TestMixedTrace:
    def test_backwards_compatible_without_new_kinds(self):
        old = generate_mixed_trace(HttpTraceConfig(sessions=5),
                                   DnsTraceConfig(queries=5))
        assert all(len(item) == 2 for item in old)

    def test_four_way_merge_sorted(self):
        frames = generate_mixed_trace(
            http=HttpTraceConfig(sessions=5),
            dns=DnsTraceConfig(queries=5),
            ssh=SshTraceConfig(sessions=5),
            tftp=TftpTraceConfig(transfers=5))
        times = [t for t, __ in frames]
        assert times == sorted(times)
        ports = set()
        for __, frame in frames:
            __, transport = parse_ethernet(frame)
            ports.add(transport.src_port)
            ports.add(transport.dst_port)
        assert {80, 53, 22, 69} <= ports


class TestIpsumdump:
    def test_roundtrip(self, tmp_path):
        frames = generate_dns_trace(DnsTraceConfig(queries=10))
        path = str(tmp_path / "dump.txt")
        count = ipsumdump.dump_to_file(path, frames)
        parsed = ipsumdump.read_file(path)
        assert len(parsed) == count
        t, src, dst = parsed[0]
        ip, __ = parse_ethernet(frames[0][1])
        assert src == ip.src and dst == ip.dst

    def test_line_format(self):
        frames = generate_dns_trace(DnsTraceConfig(queries=2))
        line = next(ipsumdump.dump_lines(frames))
        parts = line.split()
        assert len(parts) == 3
        float(parts[0])  # timestamp parses
