"""NetFlow-style flow records: the unified ledger's export format.

Every host application accounts its flows through one shared ledger
(:class:`repro.host.flowtable.FlowTable`); when a flow closes — normally,
by TTL expiry, or by capacity eviction — the ledger seals it into a
:class:`FlowRecord`: canonical 5-tuple, uid, first/last timestamps,
per-direction packet/byte counters, the TCP flag union, and the close
reason.  Records serialize to one deterministic JSON line each
(``sort_keys``, compact separators), so a sorted record stream is a pure
function of trace content — byte-identical across the sequential
pipeline and all four parallel backends.

The ``repro-flowrecords/1`` schema is validated by the same hand-rolled
pattern as ``repro-metrics/1`` (no external JSON-Schema dependency):
:func:`validate_flowrecord_lines` returns a list of human-readable
errors, and ``python -m repro.runtime.telemetry validate-flowrecords``
exposes it on the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Dict, List, Optional

__all__ = [
    "CLOSE_REASONS",
    "FLOWRECORDS_SCHEMA",
    "FlowRecord",
    "flowrecords_header_line",
    "format_record_uid",
    "validate_flowrecord_lines",
    "write_flowrecords_jsonl",
]

#: Schema tag carried by the header line of every flow_records.jsonl.
FLOWRECORDS_SCHEMA = "repro-flowrecords/1"

#: Why a flow left the table: normal teardown / end-of-trace flush
#: ("finished"), TTL expiry ("expired"), capacity or memory-budget
#: eviction ("evicted").
CLOSE_REASONS = ("finished", "expired", "evicted")


def format_record_uid(serial: int) -> str:
    """The generic record uid: ``S`` + zero-padded arrival serial.

    Apps with their own uid scheme (Bro's ``C...`` base62, binpac's
    ``F...``) reuse it for their records; apps without one (bpf,
    firewall, the flowexport tool) get this.
    """
    return f"S{serial:06d}"


@dataclass
class FlowRecord:
    """One sealed bidirectional flow.

    ``src``/``src_port`` is the *originator* end — whichever endpoint
    sent the first packet of the flow — so direction-split counters are
    meaningful; the 5-tuple itself is still canonical under direction
    reversal (the same two endpoints always produce the same record).
    """

    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: int
    uid: Optional[str]
    first_ts: float
    last_ts: float
    orig_pkts: int
    orig_bytes: int
    resp_pkts: int
    resp_bytes: int
    tcp_flags: int
    close_reason: str

    def to_dict(self) -> Dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "src_port": self.src_port,
            "dst_port": self.dst_port,
            "protocol": self.protocol,
            "uid": self.uid,
            "first_ts": round(self.first_ts, 6),
            "last_ts": round(self.last_ts, 6),
            "orig_pkts": self.orig_pkts,
            "orig_bytes": self.orig_bytes,
            "resp_pkts": self.resp_pkts,
            "resp_bytes": self.resp_bytes,
            "tcp_flags": self.tcp_flags,
            "close_reason": self.close_reason,
        }

    def to_line(self) -> str:
        """The record's JSON line, formatted directly.

        Byte-identical to ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))`` for finite timestamps: keys in sorted
        order, strings escaped as ``json.dumps`` escapes them
        (``ensure_ascii``), floats as ``repr``.
        """
        uid = self.uid
        return (
            f'{{"close_reason":{_json_string(self.close_reason)},'
            f'"dst":{_json_string(self.dst)},"dst_port":{self.dst_port},'
            f'"first_ts":{round(self.first_ts, 6)!r},'
            f'"last_ts":{round(self.last_ts, 6)!r},'
            f'"orig_bytes":{self.orig_bytes},"orig_pkts":{self.orig_pkts},'
            f'"protocol":{self.protocol},"resp_bytes":{self.resp_bytes},'
            f'"resp_pkts":{self.resp_pkts},"src":{_json_string(self.src)},'
            f'"src_port":{self.src_port},"tcp_flags":{self.tcp_flags},'
            f'"uid":{"null" if uid is None else _json_string(uid)}}}')

    @classmethod
    def from_dict(cls, data: Dict) -> "FlowRecord":
        return cls(**{field: data[field] for field in _RECORD_FIELDS})


_RECORD_FIELDS = (
    "src", "dst", "src_port", "dst_port", "protocol", "uid",
    "first_ts", "last_ts", "orig_pkts", "orig_bytes",
    "resp_pkts", "resp_bytes", "tcp_flags", "close_reason",
)

#: field -> (allowed types, extra check). None values allowed for uid.
_COUNTER_FIELDS = ("orig_pkts", "orig_bytes", "resp_pkts", "resp_bytes",
                   "tcp_flags")


def flowrecords_header_line(app: str, count: int) -> str:
    """The deterministic header line.

    Intentionally carries only the schema tag, the producing app, and
    the record count — *not* backend/worker topology — because the file
    body must be byte-identical across sequential and every parallel
    backend (the cross-backend identity oracle diffs whole files).
    """
    return json.dumps(
        {"schema": FLOWRECORDS_SCHEMA, "app": app, "records": count},
        sort_keys=True, separators=(",", ":"))


def validate_flowrecord_lines(lines: List[str]) -> List[str]:
    """Validate a flow_records.jsonl body; returns error strings.

    Hand-rolled (the repo bakes in no jsonschema): header shape, per
    record the exact field set and types, port ranges, protocol and
    close-reason domains, timestamp ordering, non-negative counters,
    record-count agreement, and the sorted-order invariant the merge
    relies on.
    """
    errors: List[str] = []
    lines = [line for line in lines if line.strip()]
    if not lines:
        return ["empty input: missing header line"]

    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        return [f"header: not JSON ({exc})"]
    if not isinstance(header, dict):
        return ["header: not a JSON object"]
    if header.get("schema") != FLOWRECORDS_SCHEMA:
        errors.append(
            f"header: schema is {header.get('schema')!r},"
            f" want {FLOWRECORDS_SCHEMA!r}")
    if not isinstance(header.get("app"), str) or not header.get("app"):
        errors.append("header: missing app name")
    declared = header.get("records")
    if not isinstance(declared, int) or declared < 0:
        errors.append("header: records must be a non-negative int")
        declared = None

    body = lines[1:]
    if declared is not None and len(body) != declared:
        errors.append(
            f"header: declares {declared} records, body has {len(body)}")
    if body != sorted(body):
        errors.append("body: record lines are not sorted")

    for index, line in enumerate(body, start=2):
        where = f"line {index}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            errors.append(f"{where}: not JSON ({exc})")
            continue
        if not isinstance(record, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        missing = [f for f in _RECORD_FIELDS if f not in record]
        extra = [f for f in record if f not in _RECORD_FIELDS]
        if missing:
            errors.append(f"{where}: missing fields {missing}")
        if extra:
            errors.append(f"{where}: unknown fields {extra}")
        if missing or extra:
            continue
        for field in ("src", "dst"):
            if not isinstance(record[field], str) or not record[field]:
                errors.append(f"{where}: {field} must be a non-empty "
                              f"string")
        for field in ("src_port", "dst_port"):
            value = record[field]
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not 0 <= value <= 65535:
                errors.append(f"{where}: {field} out of range: {value!r}")
        if not isinstance(record["protocol"], int) \
                or isinstance(record["protocol"], bool) \
                or not 0 <= record["protocol"] <= 255:
            errors.append(
                f"{where}: protocol out of range: {record['protocol']!r}")
        if record["uid"] is not None and (
                not isinstance(record["uid"], str) or not record["uid"]):
            errors.append(f"{where}: uid must be null or a non-empty "
                          f"string")
        ts_ok = True
        for field in ("first_ts", "last_ts"):
            value = record[field]
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                errors.append(f"{where}: {field} must be a number")
                ts_ok = False
        if ts_ok and record["first_ts"] > record["last_ts"]:
            errors.append(f"{where}: first_ts > last_ts")
        for field in _COUNTER_FIELDS:
            value = record[field]
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                errors.append(
                    f"{where}: {field} must be a non-negative int")
        if isinstance(record["tcp_flags"], int) \
                and not isinstance(record["tcp_flags"], bool) \
                and record["tcp_flags"] > 0xFF:
            errors.append(f"{where}: tcp_flags exceeds one octet")
        if record["close_reason"] not in CLOSE_REASONS:
            errors.append(
                f"{where}: close_reason {record['close_reason']!r}"
                f" not in {CLOSE_REASONS}")
    return errors


def write_flowrecords_jsonl(path: str, app: str,
                            record_lines: List[str]) -> str:
    """Write a flow_records.jsonl: header + pre-sorted record lines."""
    with open(path, "w") as stream:
        stream.write(flowrecords_header_line(app, len(record_lines)))
        stream.write("\n")
        for line in record_lines:
            stream.write(line)
            stream.write("\n")
    return path
