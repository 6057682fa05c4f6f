"""Domain-specific runtime values of the HILTI machine model.

HILTI ships first-class networking types: IP addresses that transparently
cover IPv4 and IPv6, CIDR-style network masks, transport-layer ports, and
times / time intervals with nanosecond resolution (paper, section 3.2).
These classes are the runtime representation shared by the interpreter, the
closure code generator, and the host applications.

All values are immutable and hashable so they can serve as map/set keys and
cross thread boundaries without copying.
"""

from __future__ import annotations

import struct
from functools import total_ordering

__all__ = [
    "Addr",
    "Network",
    "Port",
    "Time",
    "Interval",
    "NANOS_PER_SEC",
]

NANOS_PER_SEC = 1_000_000_000

_V4_MAPPED_PREFIX = 0xFFFF << 32
_MAX_128 = (1 << 128) - 1


def _parse_v4(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def _parse_v6(text: str) -> int:
    # Handle an embedded IPv4 tail such as ::ffff:1.2.3.4.
    if "." in text:
        head, _, tail = text.rpartition(":")
        v4 = _parse_v4(tail)
        text = f"{head}:{v4 >> 16:x}:{v4 & 0xFFFF:x}"
    if "::" in text:
        if text.count("::") > 1 or ":::" in text:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        left_text, right_text = text.split("::")
        left = left_text.split(":") if left_text else []
        right = right_text.split(":") if right_text else []
        if "" in left or "" in right:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        missing = 8 - len(left) - len(right)
        if missing < 1:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        groups = left + ["0"] * missing + right
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        try:
            chunk = int(group, 16)
        except ValueError:
            raise ValueError(f"invalid IPv6 address: {text!r}") from None
        value = (value << 16) | chunk
    return value


def _format_v6(value: int) -> str:
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
    # Find the longest run of zero groups to compress with "::".
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, g in enumerate(groups):
        if g == 0:
            if run_start < 0:
                run_start, run_len = i, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len < 2:
        return ":".join(f"{g:x}" for g in groups)
    head = ":".join(f"{g:x}" for g in groups[:best_start])
    tail = ":".join(f"{g:x}" for g in groups[best_start + best_len:])
    return f"{head}::{tail}"


@total_ordering
class Addr:
    """An IP address, transparently supporting both IPv4 and IPv6.

    Internally every address is a 128-bit integer; IPv4 addresses use the
    IPv4-mapped IPv6 form (``::ffff:a.b.c.d``) so that a single type covers
    both families, mirroring HILTI's ``addr`` type.
    """

    __slots__ = ("_value",)

    def __init__(self, address):
        if isinstance(address, Addr):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address <= _MAX_128:
                raise ValueError("address integer out of 128-bit range")
            self._value = address
        elif isinstance(address, str):
            if ":" in address:
                self._value = _parse_v6(address)
            else:
                self._value = _V4_MAPPED_PREFIX | _parse_v4(address)
        elif isinstance(address, (bytes, bytearray)):
            if len(address) == 4:
                self._value = _V4_MAPPED_PREFIX | int.from_bytes(address, "big")
            elif len(address) == 16:
                self._value = int.from_bytes(address, "big")
            else:
                raise ValueError("address bytes must be 4 or 16 bytes long")
        else:
            raise TypeError(f"cannot build Addr from {type(address).__name__}")

    @classmethod
    def from_packed(cls, raw: bytes) -> "Addr":
        """Build from wire-format bytes (4 or 16) without dispatch overhead."""
        addr = cls.__new__(cls)
        if len(raw) == 4:
            addr._value = _V4_MAPPED_PREFIX | int.from_bytes(raw, "big")
        elif len(raw) == 16:
            addr._value = int.from_bytes(raw, "big")
        else:
            raise ValueError("address bytes must be 4 or 16 bytes long")
        return addr

    @classmethod
    def from_v4_int(cls, value: int) -> "Addr":
        """Build an IPv4 address from its 32-bit host integer."""
        if not 0 <= value < (1 << 32):
            raise ValueError("IPv4 integer out of range")
        return cls(_V4_MAPPED_PREFIX | value)

    @property
    def family(self) -> int:
        """4 for IPv4 addresses, 6 for IPv6 addresses."""
        return 4 if self.is_v4 else 6

    @property
    def is_v4(self) -> bool:
        return (self._value >> 32) == 0xFFFF

    @property
    def is_v6(self) -> bool:
        return not self.is_v4

    @property
    def value(self) -> int:
        """The 128-bit integer representation."""
        return self._value

    @property
    def v4_value(self) -> int:
        """The 32-bit integer of an IPv4 address."""
        if not self.is_v4:
            raise ValueError(f"{self} is not an IPv4 address")
        return self._value & 0xFFFFFFFF

    def packed(self) -> bytes:
        """Wire-format bytes: 4 bytes for IPv4, 16 for IPv6."""
        if self.is_v4:
            return struct.pack(">I", self.v4_value)
        return self._value.to_bytes(16, "big")

    def mask(self, length: int) -> "Addr":
        """Keep the top *length* bits (counted within the family)."""
        width = 32 if self.is_v4 else 128
        if not 0 <= length <= width:
            raise ValueError(f"mask length {length} out of range for /{width}")
        if self.is_v4:
            kept = (self.v4_value >> (32 - length) << (32 - length)) if length else 0
            return Addr.from_v4_int(kept)
        kept = (self._value >> (128 - length) << (128 - length)) if length else 0
        return Addr(kept)

    def __eq__(self, other) -> bool:
        return isinstance(other, Addr) and self._value == other._value

    def __lt__(self, other) -> bool:
        if not isinstance(other, Addr):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("addr", self._value))

    def __str__(self) -> str:
        if self.is_v4:
            v = self.v4_value
            return f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"
        return _format_v6(self._value)

    def __repr__(self) -> str:
        return f"Addr({str(self)!r})"


@total_ordering
class Network:
    """A CIDR-style subnet mask (HILTI's ``net`` type)."""

    __slots__ = ("_prefix", "_length")

    def __init__(self, prefix, length=None):
        if isinstance(prefix, Network) and length is None:
            self._prefix, self._length = prefix._prefix, prefix._length
            return
        if isinstance(prefix, str) and length is None:
            if "/" not in prefix:
                raise ValueError(f"network needs a /length: {prefix!r}")
            addr_text, _, len_text = prefix.partition("/")
            prefix = Addr(addr_text)
            length = int(len_text)
        else:
            prefix = Addr(prefix)
            if length is None:
                length = 32 if prefix.is_v4 else 128
        width = 32 if prefix.is_v4 else 128
        if not 0 <= length <= width:
            raise ValueError(f"prefix length {length} out of range for /{width}")
        self._prefix = prefix.mask(length)
        self._length = length

    @property
    def prefix(self) -> Addr:
        return self._prefix

    @property
    def length(self) -> int:
        return self._length

    @property
    def family(self) -> int:
        return self._prefix.family

    def contains(self, addr: Addr) -> bool:
        """True if *addr* lies inside this network.

        An address of the other family never matches.  Compares the
        leading *length* bits as shifted integers, building no ``Addr``
        on the way (a v4 value keeps its mapped prefix above the shift,
        equal on both sides).
        """
        value = addr._value if addr.__class__ is Addr else Addr(addr)._value
        prefix = self._prefix._value
        v4 = prefix >> 32 == 0xFFFF
        if (value >> 32 == 0xFFFF) is not v4:
            return False
        shift = (32 if v4 else 128) - self._length
        return value >> shift == prefix >> shift

    def __contains__(self, addr) -> bool:
        return self.contains(addr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Network)
            and self._prefix == other._prefix
            and self._length == other._length
        )

    def __lt__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (self._prefix, self._length) < (other._prefix, other._length)

    def __hash__(self) -> int:
        return hash(("net", self._prefix, self._length))

    def __str__(self) -> str:
        return f"{self._prefix}/{self._length}"

    def __repr__(self) -> str:
        return f"Network({str(self)!r})"


@total_ordering
class Port:
    """A transport-layer port, tagged with its protocol (``80/tcp``)."""

    __slots__ = ("_number", "_protocol")

    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"

    def __init__(self, number, protocol=None):
        if isinstance(number, Port) and protocol is None:
            self._number, self._protocol = number._number, number._protocol
            return
        if isinstance(number, str) and protocol is None:
            num_text, _, protocol = number.partition("/")
            number = int(num_text)
        if protocol not in (self.TCP, self.UDP, self.ICMP):
            raise ValueError(f"unknown port protocol: {protocol!r}")
        if not 0 <= int(number) <= 65535:
            raise ValueError(f"port number out of range: {number}")
        self._number = int(number)
        self._protocol = protocol

    @property
    def number(self) -> int:
        return self._number

    @property
    def protocol(self) -> str:
        return self._protocol

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Port)
            and self._number == other._number
            and self._protocol == other._protocol
        )

    def __lt__(self, other) -> bool:
        if not isinstance(other, Port):
            return NotImplemented
        return (self._number, self._protocol) < (other._number, other._protocol)

    def __hash__(self) -> int:
        return hash(("port", self._number, self._protocol))

    def __str__(self) -> str:
        return f"{self._number}/{self._protocol}"

    def __repr__(self) -> str:
        return f"Port({str(self)!r})"


@total_ordering
class Interval:
    """A time interval with nanosecond resolution."""

    __slots__ = ("_nanos",)

    def __init__(self, seconds=0, nanos=None):
        if isinstance(seconds, Interval) and nanos is None:
            self._nanos = seconds._nanos
        elif nanos is not None:
            self._nanos = int(seconds) * NANOS_PER_SEC + int(nanos)
        elif isinstance(seconds, float):
            self._nanos = round(seconds * NANOS_PER_SEC)
        else:
            self._nanos = int(seconds) * NANOS_PER_SEC

    @classmethod
    def from_nanos(cls, nanos: int) -> "Interval":
        ival = cls.__new__(cls)
        ival._nanos = int(nanos)
        return ival

    @property
    def nanos(self) -> int:
        return self._nanos

    @property
    def seconds(self) -> float:
        return self._nanos / NANOS_PER_SEC

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval.from_nanos(self._nanos + other._nanos)
        if isinstance(other, Time):
            return Time.from_nanos(self._nanos + other.nanos)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval.from_nanos(self._nanos - other._nanos)
        return NotImplemented

    def __mul__(self, factor):
        if isinstance(factor, (int, float)):
            return Interval.from_nanos(round(self._nanos * factor))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self._nanos == other._nanos

    def __lt__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self._nanos < other._nanos

    def __hash__(self) -> int:
        return hash(("interval", self._nanos))

    def __bool__(self) -> bool:
        return self._nanos != 0

    def __str__(self) -> str:
        return f"{self.seconds:.6f}s"

    def __repr__(self) -> str:
        return f"Interval.from_nanos({self._nanos})"


@total_ordering
class Time:
    """An absolute point in time (nanoseconds since the UNIX epoch)."""

    __slots__ = ("_nanos",)

    def __init__(self, seconds=0):
        if isinstance(seconds, Time):
            self._nanos = seconds._nanos
        elif isinstance(seconds, float):
            self._nanos = round(seconds * NANOS_PER_SEC)
        else:
            self._nanos = int(seconds) * NANOS_PER_SEC

    @classmethod
    def from_nanos(cls, nanos: int) -> "Time":
        t = cls.__new__(cls)
        t._nanos = int(nanos)
        return t

    EPOCH: "Time"

    @property
    def nanos(self) -> int:
        return self._nanos

    @property
    def seconds(self) -> float:
        return self._nanos / NANOS_PER_SEC

    def __add__(self, other):
        if isinstance(other, Interval):
            return Time.from_nanos(self._nanos + other.nanos)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Time.from_nanos(self._nanos - other.nanos)
        if isinstance(other, Time):
            return Interval.from_nanos(self._nanos - other._nanos)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, Time) and self._nanos == other._nanos

    def __lt__(self, other) -> bool:
        if not isinstance(other, Time):
            return NotImplemented
        return self._nanos < other._nanos

    def __hash__(self) -> int:
        return hash(("time", self._nanos))

    def __str__(self) -> str:
        return f"{self.seconds:.6f}"

    def __repr__(self) -> str:
        return f"Time.from_nanos({self._nanos})"


Time.EPOCH = Time.from_nanos(0)
