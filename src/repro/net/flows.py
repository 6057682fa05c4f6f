"""Flows: flat flow keys and hash-based load balancing.

The ID-based virtual-thread model maps directly onto the hash-based
load-balancing schemes deployed for parallel traffic analysis: hash the
flow's 5-tuple into an integer and interpret it as the virtual thread to
run that flow's analysis on (paper, section 3.2).  The hash is symmetric —
both directions of a connection land on the same thread — matching the
front-end balancers of NIDS clusters.

Every flow table keys by a :data:`FlowKey`, a tuple of plain ints
``(lo_addr, lo_port, hi_addr, hi_port, proto)``: the addresses are the
128-bit :attr:`~repro.core.values.Addr.value` integers (IPv4 stays
v4-mapped), and the ``(addr, port)`` ends are ordered, so both directions
of a connection produce the same key.  :func:`orient` builds every key;
:func:`frame_flow_key` reads one straight from a frame's wire bytes,
without building any packet or address objects.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.values import _V4_MAPPED_PREFIX, Addr
from .packet import PROTO_TCP, PROTO_UDP

__all__ = ["FiveTuple", "FlowKey", "flow_hash", "frame_flow_key",
           "orient", "placement", "vthread_of"]

#: ``(lo_addr, lo_port, hi_addr, hi_port, proto)`` — all plain ints.
FlowKey = Tuple[int, int, int, int, int]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_ETHERTYPE_IPV4 = b"\x08\x00"
_ETHERTYPE_IPV6 = b"\x86\xdd"


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def _packed(value: int) -> bytes:
    """An address integer's wire bytes: 4 for v4-mapped, else 16."""
    if value >> 32 == 0xFFFF:
        return (value & 0xFFFFFFFF).to_bytes(4, "big")
    return value.to_bytes(16, "big")


def orient(src: int, sport: int, dst: int, dport: int,
           proto: int) -> Tuple[FlowKey, bool]:
    """``(key, sender_is_first)`` for one directional packet.

    The key puts the smaller ``(addr, port)`` end first; the boolean
    says whether the packet's sender is that first end — what flow
    tables need to orient per-direction counters.
    """
    if src < dst or (src == dst and sport <= dport):
        return (src, sport, dst, dport, proto), True
    return (dst, dport, src, sport, proto), False


def frame_flow_key(frame: bytes) -> Optional[Tuple[FlowKey, bool, int, int]]:
    """``(key, sender_is_first, payload_len, tcp_flags)`` of an Ethernet
    frame, or None.

    One pass over the wire bytes.  Accepts exactly the frames that
    :func:`~repro.net.packet.parse_ethernet` parses down to a TCP or UDP
    header, with the same length rules: the IPv4 ``total_length`` and
    IPv6 payload length clamp the transport to the captured bytes, the
    IHL and TCP data offset must fit, and a UDP length below 8 rejects.
    ``payload_len`` is the transport payload's length; ``tcp_flags`` is
    the TCP flag byte (0 for UDP).
    """
    size = len(frame)
    ethertype = frame[12:14]
    if ethertype == _ETHERTYPE_IPV4:
        if size < 34:
            return None
        version_ihl = frame[14]
        if version_ihl >> 4 != 4:
            return None
        start = 14 + (version_ihl & 0x0F) * 4
        if start < 34 or start > size:
            return None
        end = 14 + ((frame[16] << 8) | frame[17])
        proto = frame[23]
        src = _V4_MAPPED_PREFIX | int.from_bytes(frame[26:30], "big")
        dst = _V4_MAPPED_PREFIX | int.from_bytes(frame[30:34], "big")
    elif ethertype == _ETHERTYPE_IPV6:
        if size < 54 or frame[14] >> 4 != 6:
            return None
        start = 54
        end = 54 + ((frame[18] << 8) | frame[19])
        proto = frame[20]
        src = int.from_bytes(frame[22:38], "big")
        dst = int.from_bytes(frame[38:54], "big")
    else:
        return None
    if end > size:
        end = size
    # Transport bytes; negative when an IPv4 total_length undercuts the
    # header, which leaves an empty payload either way.
    length = end - start
    if proto == PROTO_TCP:
        if length < 20:
            return None
        offset = (frame[start + 12] >> 4) * 4
        if offset < 20 or offset > length:
            return None
        payload_len = length - offset
        flags = frame[start + 13]
    elif proto == PROTO_UDP:
        if length < 8:
            return None
        udp_length = (frame[start + 4] << 8) | frame[start + 5]
        if udp_length < 8:
            return None
        payload_len = (udp_length if udp_length < length else length) - 8
        flags = 0
    else:
        return None
    key, sender_is_first = orient(
        src, (frame[start] << 8) | frame[start + 1],
        dst, (frame[start + 2] << 8) | frame[start + 3], proto)
    return key, sender_is_first, payload_len, flags


class FiveTuple:
    """A directional connection identifier: endpoints plus transport
    protocol.

    A display and construction value (tests, the demux's new-flow
    callback); flow tables key by its :attr:`key`, never by the object.
    """

    __slots__ = ("src", "dst", "src_port", "dst_port", "protocol")

    def __init__(self, src: Addr, dst: Addr, src_port: int, dst_port: int,
                 protocol: int):
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol

    def reversed(self) -> "FiveTuple":
        return FiveTuple(
            self.dst, self.src, self.dst_port, self.src_port, self.protocol
        )

    @property
    def key(self) -> FlowKey:
        """The direction-independent :data:`FlowKey` of this flow."""
        return orient(self.src.value, self.src_port, self.dst.value,
                      self.dst_port, self.protocol)[0]

    def __repr__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(
            self.protocol, str(self.protocol)
        )
        return (
            f"{self.src}:{self.src_port} -> {self.dst}:{self.dst_port}/{proto}"
        )


def flow_hash(key: FlowKey) -> int:
    """A stable, symmetric 64-bit hash of the flow.

    *key* is already direction-independent, so both directions produce
    the same value and scheduling by ``flow_hash(key) % n_threads``
    serializes each connection's analysis on a single virtual thread.
    The hashed material is the wire form of the ordered 5-tuple: packed
    low address, packed high address, both ports and the protocol.
    """
    lo, lo_port, hi, hi_port, proto = key
    return _fnv1a(_packed(lo) + _packed(hi) + lo_port.to_bytes(2, "big")
                  + hi_port.to_bytes(2, "big") + proto.to_bytes(1, "big"))


def vthread_of(key: FlowKey, vthreads: int) -> int:
    """The virtual thread a flow's analysis runs on (§3.2): the
    symmetric flow hash modulo the vthread supply."""
    return flow_hash(key) % vthreads


def placement(key: FlowKey, vthreads: int, workers: int) -> Tuple[int, int]:
    """``(vthread_id, worker)`` for a flow — the two-level mapping the
    parallel pipeline uses everywhere.

    The worker half mirrors ``Scheduler.worker_of`` (``vid % workers``),
    so the multiprocessing backend's pcap shards land exactly where the
    in-process scheduler would run the same flow's jobs.  The mapping is
    a pure function of the 5-tuple: both directions of a connection, in
    any run, on any backend, always land on the same vthread and worker.
    """
    vid = vthread_of(key, vthreads)
    return vid, vid % workers
