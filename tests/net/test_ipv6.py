"""IPv6 wire format and end-to-end pipeline support.

HILTI's single ``addr`` type covers both families (paper, section 3.2);
the substrate carries that through: IPv6 frames parse, flow-hash, and
drive the full Bro pipeline exactly like IPv4 ones.
"""

import io

import pytest

from repro.core.values import Addr
from repro.net import (
    IPv6Packet,
    PacketError,
    build_tcp6_packet,
    build_udp6_packet,
    parse_ethernet,
)
from repro.net.flows import flow_hash, frame_flow_key, orient
from repro.net.tracegen import DnsTraceConfig, generate_dns_trace


class TestWireFormat:
    def test_udp6_roundtrip(self):
        frame = build_udp6_packet(
            Addr("2001:db8::1"), Addr("2001:db8::53"), 5555, 53, b"query",
        )
        ip, udp = parse_ethernet(frame)
        assert isinstance(ip, IPv6Packet)
        assert ip.src == Addr("2001:db8::1")
        assert ip.dst == Addr("2001:db8::53")
        assert udp.payload == b"query"

    def test_tcp6_roundtrip(self):
        frame = build_tcp6_packet(
            Addr("2001:db8::a"), Addr("2001:db8::b"), 1000, 80,
            seq=42, payload=b"GET /",
        )
        ip, tcp = parse_ethernet(frame)
        assert ip.protocol == 6
        assert tcp.seq == 42
        assert tcp.payload == b"GET /"

    def test_header_fields(self):
        packet = IPv6Packet(
            Addr("::1"), Addr("::2"), 17, b"xy",
            hop_limit=33, traffic_class=7, flow_label=0xABCDE,
        )
        parsed = IPv6Packet.parse(packet.build())
        assert parsed.hop_limit == 33
        assert parsed.traffic_class == 7
        assert parsed.flow_label == 0xABCDE

    def test_truncated(self):
        with pytest.raises(PacketError):
            IPv6Packet.parse(b"\x60" + b"\x00" * 10)

    def test_wrong_version(self):
        with pytest.raises(PacketError):
            IPv6Packet.parse(b"\x40" + b"\x00" * 39)


class TestFlows6:
    def test_flow_hash_symmetric(self):
        frame = build_udp6_packet(
            Addr("2001:db8::1"), Addr("2001:db8::2"), 1234, 53,
            payload=b"x",
        )
        info = frame_flow_key(frame)
        assert info is not None
        lo, lo_port, hi, hi_port, proto = key = info[0]
        reverse, __ = orient(hi, hi_port, lo, lo_port, proto)
        assert flow_hash(key) == flow_hash(reverse)

    def test_v4_v6_flows_distinct(self):
        from repro.net import build_udp_packet

        v4 = frame_flow_key(build_udp_packet(
            Addr("10.0.0.1"), Addr("10.0.0.2"), 1234, 53, payload=b"x"))[0]
        v6 = frame_flow_key(build_udp6_packet(
            Addr("2001:db8::1"), Addr("2001:db8::2"), 1234, 53,
            payload=b"x"))[0]
        assert flow_hash(v4) != flow_hash(v6)


class TestPipeline6:
    def test_dns_over_ipv6_logged_by_both_parsers(self):
        from repro.apps.bro import Bro, normalize_log

        trace = generate_dns_trace(
            DnsTraceConfig(queries=120, ipv6_fraction=0.5)
        )
        logs = {}
        for parsers in ("std", "pac"):
            bro = Bro(parsers=parsers, print_stream=io.StringIO())
            bro.run(trace)
            logs[parsers] = bro.log_lines("dns")
        v6_lines = [l for l in logs["std"] if "2001:db8:" in l]
        assert v6_lines, "no IPv6 sessions logged"
        a = set(normalize_log(logs["std"], drop_columns=(0,)))
        b = set(normalize_log(logs["pac"], drop_columns=(0,)))
        assert len(a & b) / max(len(a), len(b)) > 0.99

    def test_aaaa_answers_render_as_v6(self):
        from repro.apps.bro import Bro

        trace = generate_dns_trace(DnsTraceConfig(queries=200))
        bro = Bro(print_stream=io.StringIO())
        bro.run(trace)
        aaaa = [l for l in bro.log_lines("dns") if "\tAAAA\t" in l
                and "\tNOERROR\t" in l]
        assert aaaa
        assert any("2001:db8:" in line for line in aaaa)
