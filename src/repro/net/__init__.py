"""The packet substrate: wire formats, traces, flows, and reassembly."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".flows": ("FiveTuple", "flow_hash", "frame_flow_key", "orient"),
    ".packet": (
        "EthernetFrame", "IPv4Packet", "IPv6Packet", "PacketError",
        "TCPSegment", "UDPDatagram", "build_tcp6_packet",
        "build_tcp_packet", "build_udp6_packet", "build_udp_packet",
        "parse_ethernet",
    ),
    ".pcap": ("PcapReader", "PcapWriter", "read_pcap", "write_pcap"),
    ".reassembly": ("ConnectionReassembler", "StreamReassembler"),
    ".replay": ("LiveCaptureSource", "RateLimiter", "TraceReplayer"),
    ".tracegen": ("DnsTraceConfig", "HttpTraceConfig",
                  "generate_dns_trace", "generate_http_trace",
                  "write_dns_trace", "write_http_trace"),
})
