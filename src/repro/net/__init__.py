"""The packet substrate: wire formats, traces, flows, and reassembly."""

from .flows import FiveTuple, flow_hash, frame_flow_key, orient  # noqa: F401
from .packet import (  # noqa: F401
    EthernetFrame,
    IPv4Packet,
    IPv6Packet,
    PacketError,
    TCPSegment,
    UDPDatagram,
    build_tcp6_packet,
    build_tcp_packet,
    build_udp6_packet,
    build_udp_packet,
    parse_ethernet,
)
from .pcap import PcapReader, PcapWriter, read_pcap, write_pcap  # noqa: F401
from .reassembly import ConnectionReassembler, StreamReassembler  # noqa: F401
from .replay import (  # noqa: F401
    LiveCaptureSource,
    RateLimiter,
    TraceReplayer,
)
from .tracegen import (  # noqa: F401
    DnsTraceConfig,
    HttpTraceConfig,
    generate_dns_trace,
    generate_http_trace,
    write_dns_trace,
    write_http_trace,
)
