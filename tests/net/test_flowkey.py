"""Flat flow keys: the byte-level extractor against the object parser.

``frame_flow_key`` reads a frame's flow key, orientation, payload length
and TCP flags straight from the wire bytes.  Its oracle is
``reference_flow_key`` (``repro.tools.fuzz``), built on
``parse_ethernet``: on every frame the two must agree, ``None`` included.
Frames come from hypothesis — valid IPv4/IPv6 TCP/UDP frames, every
truncation length, corrupted header fields, raw bytes — and the hash
placement of four flows is pinned to the values the ``FiveTuple``-keyed
dispatcher produced.
"""

from hypothesis import given, settings, strategies as st

from repro.core.values import Addr
from repro.net.flows import (
    FiveTuple,
    flow_hash,
    frame_flow_key,
    vthread_of,
)
from repro.net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    build_tcp6_packet,
    build_tcp_packet,
    build_udp6_packet,
    build_udp_packet,
)
from repro.tools.fuzz import (
    gen_flow_frame,
    minimize_frame,
    reference_flow_key,
    run_frame_case,
)

_V4 = st.integers(0, (1 << 32) - 1).map(Addr.from_v4_int)
_V6 = st.integers(0, (1 << 128) - 1).map(Addr)
_PORTS = st.integers(0, 65535)
_PAYLOADS = st.binary(max_size=48)


@st.composite
def valid_frames(draw):
    family = draw(st.sampled_from((4, 6)))
    addrs = _V4 if family == 4 else _V6
    src = draw(addrs)
    dst = draw(st.one_of(st.just(src), addrs))
    sport = draw(_PORTS)
    dport = draw(st.one_of(st.just(sport), _PORTS))
    payload = draw(_PAYLOADS)
    if draw(st.booleans()):
        build = build_tcp_packet if family == 4 else build_tcp6_packet
        return build(src, dst, sport, dport,
                     flags=draw(st.integers(0, 255)), payload=payload)
    build = build_udp_packet if family == 4 else build_udp6_packet
    return build(src, dst, sport, dport, payload=payload)


@st.composite
def truncated_frames(draw):
    frame = draw(valid_frames())
    return frame[:draw(st.integers(0, len(frame)))]


@st.composite
def mutated_frames(draw):
    """A valid frame with one header field overwritten."""
    frame = bytearray(draw(valid_frames()))
    v6 = frame[12:14] == b"\x86\xdd"
    start = 54 if v6 else 34
    udp = frame[(20 if v6 else 23)] == PROTO_UDP
    field = draw(st.sampled_from(
        ("ethertype", "version", "ihl", "tcp_offset", "udp_length",
         "ip_length", "protocol")))
    if field == "ethertype":
        frame[12:14] = draw(st.sampled_from(
            (b"\x08\x00", b"\x86\xdd", b"\x08\x06", b"\x00\x00")))
    elif field == "version":
        frame[14] = (frame[14] & 0x0F) | (draw(st.integers(0, 15)) << 4)
    elif field == "ihl":
        frame[14] = (frame[14] & 0xF0) | draw(st.integers(0, 15))
    elif field == "tcp_offset" and not udp:
        frame[start + 12] = ((frame[start + 12] & 0x0F)
                             | (draw(st.integers(0, 15)) << 4))
    elif field == "udp_length" and udp:
        frame[start + 4:start + 6] = draw(
            st.integers(0, 65535)).to_bytes(2, "big")
    elif field == "ip_length":
        at = 18 if v6 else 16
        frame[at:at + 2] = draw(st.integers(0, 65535)).to_bytes(2, "big")
    elif field == "protocol":
        frame[20 if v6 else 23] = draw(st.sampled_from((6, 17, 1, 58)))
    return bytes(frame)


_RAW = st.one_of(
    st.binary(max_size=96),
    st.tuples(st.binary(min_size=12, max_size=12),
              st.sampled_from((b"\x08\x00", b"\x86\xdd")),
              st.binary(max_size=80)).map(b"".join),
)


def _agrees(frame: bytes) -> None:
    assert frame_flow_key(frame) == reference_flow_key(frame), frame.hex()


class TestDifferential:
    @settings(max_examples=300)
    @given(valid_frames())
    def test_valid_frames(self, frame):
        _agrees(frame)
        assert frame_flow_key(frame) is not None

    @settings(max_examples=300)
    @given(truncated_frames())
    def test_truncated_frames(self, frame):
        _agrees(frame)

    @settings(max_examples=400)
    @given(mutated_frames())
    def test_mutated_header_fields(self, frame):
        _agrees(frame)

    @settings(max_examples=300)
    @given(_RAW)
    def test_raw_bytes(self, frame):
        _agrees(frame)

    def test_every_truncation_length(self):
        a, b = Addr("10.0.0.1"), Addr("2001:db8::2")
        frames = [
            build_tcp_packet(a, Addr("10.0.0.2"), 4000, 80, flags=0x18,
                             payload=b"GET /"),
            build_udp_packet(a, Addr("10.0.0.2"), 53, 53, payload=b"q"),
            build_tcp6_packet(Addr("2001:db8::1"), b, 443, 5000,
                              payload=b"x" * 3),
            build_udp6_packet(Addr("2001:db8::1"), b, 1234, 53),
        ]
        for frame in frames:
            for cut in range(len(frame) + 1):
                _agrees(frame[:cut])

    def test_generated_fuzz_frames(self):
        import random

        rng = random.Random(11)
        frames = [gen_flow_frame(rng) for __ in range(500)]
        assert run_frame_case(frames)["divergences"] == []
        assert any(frame_flow_key(frame) is None for frame in frames)
        assert any(frame_flow_key(frame) is not None for frame in frames)


class TestExtraction:
    def test_fields_and_orientation(self):
        frame = build_tcp_packet(Addr("10.0.0.9"), Addr("10.0.0.2"),
                                 4000, 80, flags=0x12, payload=b"abc")
        key, sender_is_first, payload_len, flags = frame_flow_key(frame)
        assert key == (Addr("10.0.0.2").value, 80,
                       Addr("10.0.0.9").value, 4000, PROTO_TCP)
        assert not sender_is_first
        assert (payload_len, flags) == (3, 0x12)

    def test_ipv4_stays_v4_mapped(self):
        frame = build_udp_packet(Addr("1.2.3.4"), Addr("5.6.7.8"), 1, 2)
        key = frame_flow_key(frame)[0]
        assert key[0] == (0xFFFF << 32) | 0x01020304
        assert key[4] == PROTO_UDP

    def test_udp_length_clamps_payload(self):
        frame = bytearray(build_udp_packet(
            Addr("1.2.3.4"), Addr("5.6.7.8"), 1, 2, payload=b"x" * 10))
        frame[38:40] = (8 + 4).to_bytes(2, "big")
        assert frame_flow_key(bytes(frame))[2] == 4

    def test_non_transport_protocol_rejected(self):
        frame = bytearray(build_udp_packet(
            Addr("1.2.3.4"), Addr("5.6.7.8"), 1, 2))
        frame[23] = 1  # ICMP
        assert frame_flow_key(bytes(frame)) is None


class TestOracleCatchesBugs:
    """The lane's oracle and minimizer, against a deliberately wrong
    extractor that forgets the UDP length check."""

    @staticmethod
    def _broken(frame):
        if frame[12:14] == b"\x08\x00" and len(frame) >= 42 \
                and frame[23] == PROTO_UDP:
            frame = frame[:38] + b"\x00\x08" + frame[40:]
        return frame_flow_key(frame)

    def test_divergence_found_and_minimized(self, monkeypatch):
        import repro.net.flows as flows

        bad = bytearray(build_udp_packet(
            Addr("1.2.3.4"), Addr("5.6.7.8"), 1, 2, payload=b"xyz"))
        bad[38:40] = b"\x00\x03"  # UDP length 3 < 8: must reject
        assert frame_flow_key(bytes(bad)) is None
        monkeypatch.setattr(flows, "frame_flow_key", self._broken)
        assert run_frame_case([bytes(bad)])["divergences"]
        small = minimize_frame(bytes(bad))
        assert len(small) == 42  # payload dropped, headers kept
        assert run_frame_case([small])["divergences"]


class TestPinnedPlacement:
    """``flow_hash``/``vthread_of`` of four flows, both directions, as
    the FiveTuple-keyed dispatcher computed them: a change here silently
    re-shards every deployment's flows."""

    FLOWS = [
        (FiveTuple(Addr("10.0.0.1"), Addr("10.0.0.2"), 40000, 80,
                   PROTO_TCP), 16190751032435863422, 14, 0),
        (FiveTuple(Addr("192.0.2.9"), Addr("10.20.0.3"), 53, 33333,
                   PROTO_UDP), 487373416868823404, 12, 3),
        (FiveTuple(Addr("2001:db8::1"), Addr("2001:db8::2"), 1234, 53,
                   PROTO_UDP), 10343461578355794628, 4, 5),
        (FiveTuple(Addr("2001:db8::ff"), Addr("2001:db8::2"), 443, 50000,
                   PROTO_TCP), 6070182977183987641, 9, 0),
    ]

    def test_pinned_values_both_directions(self):
        for flow, hashed, vid16, vid7 in self.FLOWS:
            for direction in (flow, flow.reversed()):
                key = direction.key
                assert flow_hash(key) == hashed, direction
                assert vthread_of(key, 16) == vid16
                assert vthread_of(key, 7) == vid7

    def test_frame_keys_hash_the_same(self):
        flow = self.FLOWS[0][0]
        for direction in (flow, flow.reversed()):
            frame = build_tcp_packet(direction.src, direction.dst,
                                     direction.src_port,
                                     direction.dst_port)
            assert flow_hash(frame_flow_key(frame)[0]) == self.FLOWS[0][1]

    def test_host_pair_placement(self):
        from repro.apps.firewall.app import host_pair_place

        assert [host_pair_place(flow.key, 16)
                for flow, *__ in self.FLOWS] == [0, 15, 12, 14]
