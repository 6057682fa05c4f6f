"""The BPF exemplar: language, classic VM, HILTI compiler, equivalence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bpf import compile_to_hilti, compile_to_vm, parse_filter
from repro.apps.bpf.app import BpfApp
from repro.apps.bpf.lang import (
    And,
    FilterError,
    HostTest,
    NetTest,
    Not,
    Or,
    PortTest,
    ProtoTest,
)
from repro.apps.bpf.vm import BpfVmError
from repro.core.values import Addr, Time
from repro.host.app import PipelineServices
from repro.net.packet import build_tcp_packet, build_udp_packet
from repro.net.tracegen import HttpTraceConfig, generate_http_trace


class TestFilterLanguage:
    def test_paper_example(self):
        node = parse_filter("host 192.168.1.1 or src net 10.0.5.0/24")
        assert isinstance(node, Or)
        assert isinstance(node.left, HostTest)
        assert node.left.direction is None
        assert isinstance(node.right, NetTest)
        assert node.right.direction == "src"

    def test_precedence_not_and_or(self):
        node = parse_filter("not tcp and port 80 or udp")
        assert isinstance(node, Or)
        assert isinstance(node.left, And)
        assert isinstance(node.left.left, Not)

    def test_parentheses(self):
        node = parse_filter("tcp and (port 80 or port 443)")
        assert isinstance(node, And)
        assert isinstance(node.right, Or)

    def test_errors(self):
        for bad in ("", "bogus 1", "host", "port abc", "tcp and"):
            with pytest.raises(FilterError):
                parse_filter(bad)


def _tcp(src, dst, sport, dport, payload=b""):
    return build_tcp_packet(Addr(src), Addr(dst), sport, dport,
                            payload=payload)


def _udp(src, dst, sport, dport):
    return build_udp_packet(Addr(src), Addr(dst), sport, dport)


_SAMPLE = [
    _tcp("192.168.1.1", "10.0.0.1", 1234, 80),
    _tcp("10.0.0.1", "192.168.1.1", 80, 1234),
    _tcp("10.0.5.7", "10.0.0.1", 5555, 443),
    _udp("10.0.5.200", "8.8.8.8", 53535, 53),
    _udp("172.16.0.1", "8.8.4.4", 1111, 53),
    _tcp("10.99.0.1", "10.98.0.1", 2000, 8080),
]

_FILTERS = [
    "host 192.168.1.1",
    "src host 10.0.0.1",
    "dst host 8.8.8.8",
    "net 10.0.0.0/8",
    "src net 10.0.5.0/24",
    "tcp",
    "udp",
    "ip",
    "port 80",
    "src port 53535",
    "dst port 53",
    "tcp and port 80",
    "host 192.168.1.1 or src net 10.0.5.0/24",
    "not tcp",
    "udp and dst port 53 and src net 10.0.5.0/24",
    "not (port 80 or port 443)",
]


class TestVmAgainstHilti:
    @pytest.mark.parametrize("expression", _FILTERS)
    def test_same_verdicts(self, expression):
        node = parse_filter(expression)
        vm = compile_to_vm(node)
        hilti = compile_to_hilti(node)
        for frame in _SAMPLE:
            assert bool(vm.run(frame)) == hilti(frame), (
                f"{expression!r} disagrees"
            )

    def test_non_ip_always_rejected(self):
        from repro.net.packet import EthernetFrame

        arp = EthernetFrame(b"\x00" * 28, ethertype=0x0806).build()
        node = parse_filter("host 1.2.3.4")
        assert compile_to_vm(node).run(arp) == 0
        assert compile_to_hilti(node)(arp) is False

    def test_truncated_packet_rejected(self):
        node = parse_filter("port 80")
        assert compile_to_vm(node).run(b"\x00" * 20) == 0


class TestOnTrace:
    def test_match_counts_agree(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=25))
        from repro.net.packet import parse_ethernet

        ip, __ = parse_ethernet(frames[7][1])
        expression = f"host {ip.src} or src net 172.16.0.0/16 and port 80"
        node = parse_filter(expression)
        vm = compile_to_vm(node)
        hilti = compile_to_hilti(node)
        vm_hits = sum(1 for __t, f in frames if vm.run(f))
        hilti_hits = sum(1 for __t, f in frames if hilti(f))
        assert vm_hits == hilti_hits > 0

    def test_interpreted_tier_agrees_too(self):
        frames = generate_http_trace(HttpTraceConfig(sessions=10))
        node = parse_filter("src net 10.10.0.0/16 and port 80")
        compiled = compile_to_hilti(node, tier="compiled")
        interp = compile_to_hilti(node, tier="interpreted")
        for __, frame in frames[:60]:
            assert compiled(frame) == interp(frame)


_DNS_FILTER = "udp and port 53 and (net 10.20.0.0/26 or host 192.0.2.1)"

# IPv4 ethertype, then only two bytes of IP header: the first header
# read past the end traps inside the filter's exception scope.
_TRUNCATED = b"\x00" * 12 + b"\x08\x00" + b"\x45\x00"

_DNS_PACKETS = [
    _udp("10.20.0.5", "8.8.8.8", 5353, 53),
    _udp("10.20.1.5", "192.0.2.1", 53, 1234),
    _tcp("10.20.0.5", "8.8.8.8", 5353, 53),
]


class TestFilterAccounting:
    """The filter is one lowered function; its counts must match the
    segment engine it replaced (the -O1/-O2 literals are that engine's
    figures) and the interpreter must agree with -O0."""

    def test_truncated_frame(self):
        runs = {}
        for tier, level in (("interpreted", 0), ("compiled", 0),
                            ("compiled", 1), ("compiled", 2)):
            hilti = compile_to_hilti(_DNS_FILTER, tier=tier,
                                     opt_level=level)
            verdict = hilti(_TRUNCATED)
            runs[tier, level] = (verdict, hilti.ctx.instr_count,
                                 hilti.ctx.segments_dispatched)
        assert runs["interpreted", 0][:2] == runs["compiled", 0][:2] == \
            (False, 6)
        assert runs["compiled", 1] == runs["compiled", 2] == (False, 6, 4)

    @pytest.mark.parametrize("level,budget,expected", [
        (0, None, (2, 1, 88, 31)),
        (1, None, (2, 1, 74, 31)),
        (2, None, (2, 1, 65, 24)),
        (0, 8, (0, 3, 30, 14)),
        (1, 8, (0, 3, 30, 16)),
        (2, 8, (0, 3, 28, 14)),
        (1, 20, (0, 3, 52, 22)),
        (2, 20, (0, 3, 55, 20)),
    ])
    def test_watchdog_inside_filter(self, level, budget, expected):
        # Hilti::ProcessingTimeout is a Hilti::Exception, so the
        # filter's own scope catches a trip and rejects the packet: no
        # filter error and no watchdog trip reach the host.
        app = BpfApp(_DNS_FILTER, opt_level=level,
                     services=PipelineServices(watchdog_budget=budget))
        for second, frame in enumerate(_DNS_PACKETS):
            app.packet(Time(second), frame)
        ctx = app.engine_contexts()[0][1]
        assert (app.accepted, app.rejected, ctx.instr_count,
                ctx.segments_dispatched) == expected
        assert app.app_stats()["filter_errors"] == 0
        assert app.services.health.watchdog_trips == 0

    def test_watchdog_interpreter_verdicts(self):
        for budget, accepted in ((None, 2), (8, 0)):
            app = BpfApp(_DNS_FILTER, engine="interpreted",
                         services=PipelineServices(watchdog_budget=budget))
            for second, frame in enumerate(_DNS_PACKETS):
                app.packet(Time(second), frame)
            assert app.accepted == accepted
            assert app.errors == 0


class TestVmVerifier:
    def test_rejects_empty(self):
        from repro.apps.bpf.vm import BpfProgram

        with pytest.raises(BpfVmError):
            BpfProgram([])

    def test_rejects_missing_ret(self):
        from repro.apps.bpf.vm import BpfInstruction, BpfProgram

        with pytest.raises(BpfVmError):
            BpfProgram([BpfInstruction("ldh_abs", 12)])


_addr_pool = ["192.168.1.1", "10.0.5.9", "10.0.6.9", "172.16.2.3"]


@st.composite
def _filter_nodes(draw, depth=0):
    if depth >= 2:
        choice = draw(st.integers(0, 3))
    else:
        choice = draw(st.integers(0, 6))
    if choice == 0:
        return HostTest(Addr(draw(st.sampled_from(_addr_pool))),
                        draw(st.sampled_from([None, "src", "dst"])))
    if choice == 1:
        from repro.core.values import Network

        net = draw(st.sampled_from(
            ["10.0.0.0/8", "10.0.5.0/24", "172.16.0.0/12"]))
        return NetTest(Network(net),
                       draw(st.sampled_from([None, "src", "dst"])))
    if choice == 2:
        return PortTest(draw(st.sampled_from([53, 80, 443, 1234])),
                        draw(st.sampled_from([None, "src", "dst"])))
    if choice == 3:
        return ProtoTest(draw(st.sampled_from(["ip", "tcp", "udp"])))
    if choice == 4:
        return Not(draw(_filter_nodes(depth + 1)))
    if choice == 5:
        return And(draw(_filter_nodes(depth + 1)),
                   draw(_filter_nodes(depth + 1)))
    return Or(draw(_filter_nodes(depth + 1)),
              draw(_filter_nodes(depth + 1)))


class TestRandomFilters:
    @given(_filter_nodes())
    @settings(max_examples=30, deadline=None)
    def test_vm_and_hilti_agree_on_random_filters(self, node):
        vm = compile_to_vm(node)
        hilti = compile_to_hilti(node, optimize=False)
        for frame in _SAMPLE:
            assert bool(vm.run(frame)) == hilti(frame)
