"""The unified flow ledger: records, schema, table, features.

Unit-level coverage for the flow-record layer (docs/FLOWS.md): the
``repro-flowrecords/1`` serialization round-trip, the hand-rolled
validator's error taxonomy, flow-key (``orient``) symmetry, the
shared :class:`~repro.host.flowtable.FlowTable` (uid precedence,
bidirectional accounting, TTL/cap eviction with the counted-eviction
contract, bare-key recency mode), the 19-feature vectors, and the
``flowexport`` tool end-to-end.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.core.values import Addr
from repro.host.flowtable import FlowTable
from repro.net.features import (
    FEATURE_NAMES,
    aggregate_windows,
    flow_features,
)
from repro.net.flowrecord import (
    CLOSE_REASONS,
    FLOWRECORDS_SCHEMA,
    FlowRecord,
    flowrecords_header_line,
    format_record_uid,
    validate_flowrecord_lines,
    write_flowrecords_jsonl,
)
from repro.net.flows import FiveTuple, orient
from repro.net.packet import ACK, FIN, PROTO_TCP, PROTO_UDP, SYN


def _tuple(sport=1234, dport=80, proto=PROTO_TCP):
    return FiveTuple(Addr("10.0.0.1"), Addr("10.0.0.2"),
                     sport, dport, proto)


def _oriented(flow):
    """``(key, sender_is_first)`` of a directional FiveTuple."""
    return orient(flow.src.value, flow.src_port, flow.dst.value,
                  flow.dst_port, flow.protocol)


def _record(**overrides):
    fields = dict(
        src="10.0.0.1", dst="10.0.0.2", src_port=1234, dst_port=80,
        protocol=PROTO_TCP, uid="S000001", first_ts=1.0, last_ts=2.5,
        orig_pkts=3, orig_bytes=120, resp_pkts=2, resp_bytes=900,
        tcp_flags=SYN | ACK | FIN, close_reason="finished",
    )
    fields.update(overrides)
    return FlowRecord(**fields)


def _file_lines(records, app="test"):
    lines = sorted(r.to_line() for r in records)
    return [flowrecords_header_line(app, len(lines))] + lines


class TestFlowRecordSerialization:
    def test_line_round_trip(self):
        record = _record()
        again = FlowRecord.from_dict(json.loads(record.to_line()))
        assert again == record

    def test_lines_are_compact_and_key_sorted(self):
        line = _record().to_line()
        assert ": " not in line and ", " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_timestamps_round_to_microseconds(self):
        doc = _record(first_ts=1.123456789, last_ts=2.0).to_dict()
        assert doc["first_ts"] == 1.123457

    def test_record_uid_format(self):
        assert format_record_uid(1) == "S000001"
        assert format_record_uid(125) == "S000125"

    def test_header_carries_no_topology(self):
        header = json.loads(flowrecords_header_line("bpf", 7))
        assert header == {
            "schema": FLOWRECORDS_SCHEMA, "app": "bpf", "records": 7,
        }


_UIDS = st.one_of(
    st.none(),
    st.text(min_size=1, max_size=12),
    st.sampled_from(['C"quoted"', "back\\slash", "naïve-✓", "\x00\x7f\n",
                     "\U0001f600"]),
)
_ADDRS = st.one_of(
    st.integers(0, (1 << 32) - 1).map(lambda v: str(Addr.from_v4_int(v))),
    st.integers(0, (1 << 128) - 1).map(lambda v: str(Addr(v))),
    st.sampled_from(["::1", "2001:db8::2", "::ffff:1.2.3.4", "fe80::"]),
)
_TIMESTAMPS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 4.9999995e-7, 1e300,
                     1.7976931348623157e308, 1234567890.1234567]),
    st.integers(-10, 10**12),
)
_COUNTERS = st.integers(0, 1 << 40)


class TestToLineIdentity:
    """The direct formatter against the ``json.dumps`` definition."""

    @given(src=_ADDRS, dst=_ADDRS, ports=st.tuples(st.integers(0, 65535),
                                                  st.integers(0, 65535)),
           protocol=st.integers(0, 255), uid=_UIDS,
           stamps=st.tuples(_TIMESTAMPS, _TIMESTAMPS),
           counters=st.tuples(_COUNTERS, _COUNTERS, _COUNTERS, _COUNTERS),
           tcp_flags=st.integers(0, 255),
           reason=st.sampled_from(CLOSE_REASONS))
    def test_matches_json_dumps(self, src, dst, ports, protocol, uid,
                                stamps, counters, tcp_flags, reason):
        first_ts, last_ts = sorted(stamps)
        record = FlowRecord(
            src=src, dst=dst, src_port=ports[0], dst_port=ports[1],
            protocol=protocol, uid=uid, first_ts=first_ts,
            last_ts=last_ts, orig_pkts=counters[0],
            orig_bytes=counters[1], resp_pkts=counters[2],
            resp_bytes=counters[3], tcp_flags=tcp_flags,
            close_reason=reason)
        line = record.to_line()
        assert line == json.dumps(record.to_dict(), sort_keys=True,
                                  separators=(",", ":"))
        header = flowrecords_header_line("test", 1)
        assert validate_flowrecord_lines([header, line]) == []

    def test_edge_values(self):
        for overrides in ({"uid": None}, {"uid": 'q"\\é'},
                          {"src": "2001:db8::1", "dst": "::"},
                          {"first_ts": -0.0, "last_ts": 0.0},
                          {"first_ts": 1e-9, "last_ts": 1e300}):
            record = _record(**overrides)
            assert record.to_line() == json.dumps(
                record.to_dict(), sort_keys=True, separators=(",", ":"))


class TestValidator:
    def test_valid_stream_passes(self):
        lines = _file_lines([_record(), _record(src_port=9999,
                                                uid="S000002")])
        assert validate_flowrecord_lines(lines) == []

    def test_written_file_passes(self, tmp_path):
        path = write_flowrecords_jsonl(
            str(tmp_path / "flow_records.jsonl"), "test",
            sorted(r.to_line() for r in [_record()]))
        with open(path) as stream:
            assert validate_flowrecord_lines(stream.readlines()) == []

    def test_empty_input(self):
        assert validate_flowrecord_lines([]) == \
            ["empty input: missing header line"]

    def test_bad_schema_tag(self):
        lines = _file_lines([_record()])
        lines[0] = json.dumps({"schema": "nope/9", "app": "x",
                               "records": 1})
        assert any("schema" in e for e in
                   validate_flowrecord_lines(lines))

    def test_count_mismatch(self):
        lines = _file_lines([_record()])
        lines[0] = flowrecords_header_line("test", 5)
        assert any("declares 5 records" in e
                   for e in validate_flowrecord_lines(lines))

    def test_unsorted_body_rejected(self):
        records = [_record(uid="S000002"), _record(uid="S000001",
                                                   src_port=9)]
        lines = [flowrecords_header_line("test", 2)] + \
            sorted((r.to_line() for r in records), reverse=True)
        assert any("not sorted" in e
                   for e in validate_flowrecord_lines(lines))

    def test_missing_and_unknown_fields(self):
        doc = _record().to_dict()
        del doc["uid"]
        doc["bogus"] = 1
        lines = [flowrecords_header_line("test", 1),
                 json.dumps(doc, sort_keys=True)]
        errors = validate_flowrecord_lines(lines)
        assert any("missing fields ['uid']" in e for e in errors)
        assert any("unknown fields ['bogus']" in e for e in errors)

    @pytest.mark.parametrize("field,value,fragment", [
        ("src_port", 70000, "out of range"),
        ("src_port", True, "out of range"),
        ("protocol", 300, "protocol out of range"),
        ("uid", "", "uid must be null"),
        ("orig_pkts", -1, "non-negative"),
        ("tcp_flags", 0x1FF, "exceeds one octet"),
        ("close_reason", "vanished", "close_reason"),
        ("first_ts", "soon", "must be a number"),
    ])
    def test_field_violations(self, field, value, fragment):
        doc = _record().to_dict()
        doc[field] = value
        lines = [flowrecords_header_line("test", 1),
                 json.dumps(doc, sort_keys=True)]
        assert any(fragment in e
                   for e in validate_flowrecord_lines(lines))

    def test_reversed_timestamps_rejected(self):
        lines = _file_lines([_record(first_ts=9.0, last_ts=1.0)])
        assert any("first_ts > last_ts" in e
                   for e in validate_flowrecord_lines(lines))

    def test_null_uid_allowed(self):
        lines = _file_lines([_record(uid=None)])
        assert validate_flowrecord_lines(lines) == []


class TestFiveTupleIdentity:
    """A flow's identity is its FlowKey: ``orient`` maps both directions
    of a 5-tuple to one plain-int key."""

    def test_canonical_symmetry(self):
        forward = _tuple()
        assert forward.key == forward.reversed().key
        assert hash(forward.key) == hash(forward.reversed().key)

    def test_orient_reports_origin(self):
        low_first = FiveTuple(Addr("1.1.1.1"), Addr("2.2.2.2"),
                              10, 20, PROTO_TCP)
        key, src_first = _oriented(low_first)
        assert src_first and key == (Addr("1.1.1.1").value, 10,
                                     Addr("2.2.2.2").value, 20, PROTO_TCP)
        key2, src_first2 = _oriented(low_first.reversed())
        assert not src_first2 and key2 == key

    def test_port_breaks_address_tie(self):
        a = FiveTuple(Addr("1.1.1.1"), Addr("1.1.1.1"), 9, 5, PROTO_UDP)
        key = a.key
        assert (key[1], key[3]) == (5, 9)

    def test_eq_hash_respect_all_fields(self):
        assert _tuple().key == _tuple().key
        assert _tuple().key != _tuple(proto=PROTO_UDP).key
        assert _tuple().key != _tuple(sport=4321).key
        assert _tuple().key != "10.0.0.1:1234"
        assert len({_tuple().key, _tuple().key,
                    _tuple(sport=4321).key}) == 2

    def test_repr_names_protocol(self):
        assert "/tcp" in repr(_tuple())
        assert "/udp" in repr(_tuple(proto=PROTO_UDP))
        assert "10.0.0.1:1234" in repr(_tuple())


class TestFlowTable:
    def test_bidirectional_accounting(self):
        table = FlowTable(uid_format=format_record_uid)
        flow = _tuple()
        table.account(*_oriented(flow), 1.0, payload_len=100,
                      tcp_flags=SYN)
        table.account(*_oriented(flow.reversed()), 2.0, payload_len=40,
                      tcp_flags=SYN | ACK)
        table.account(*_oriented(flow), 3.5, payload_len=60,
                      tcp_flags=FIN)
        assert len(table) == 1
        table.finish()
        (record,) = table.records()
        assert (record.src, record.src_port) == ("10.0.0.1", 1234)
        assert (record.orig_pkts, record.orig_bytes) == (2, 160)
        assert (record.resp_pkts, record.resp_bytes) == (1, 40)
        assert record.tcp_flags == SYN | ACK | FIN
        assert (record.first_ts, record.last_ts) == (1.0, 3.5)
        assert record.uid == "S000001"
        assert record.close_reason == "finished"

    def test_originator_on_high_end(self):
        # The first packet comes from the key's second end: the record
        # still names that sender as src and counts it as orig.
        table = FlowTable()
        flow = _tuple().reversed()
        table.account(*_oriented(flow), 1.0, payload_len=7)
        table.account(*_oriented(flow.reversed()), 2.0, payload_len=3)
        table.finish()
        (record,) = table.records()
        assert (record.src, record.src_port) == ("10.0.0.2", 80)
        assert (record.dst, record.dst_port) == ("10.0.0.1", 1234)
        assert (record.orig_pkts, record.orig_bytes) == (1, 7)
        assert (record.resp_pkts, record.resp_bytes) == (1, 3)

    def test_uid_precedence(self):
        key, first = _oriented(_tuple())
        mapped = FlowTable(uid_map={key: "M1"},
                           uid_format=format_record_uid)
        assert mapped.open(key, first, 0.0).uid == "M1"
        explicit = FlowTable(uid_map={key: "M1"})
        assert explicit.open(key, first, 0.0, uid="X9").uid == "X9"
        assert FlowTable().open(key, first, 0.0).uid is None

    def test_serial_counts_every_first_sight(self):
        table = FlowTable(uid_format=format_record_uid)
        table.account(*_oriented(_tuple(sport=1)), 0.0)
        table.account(*_oriented(_tuple(sport=2)), 0.0)
        table.account(*_oriented(_tuple(sport=1)), 1.0)  # no new serial
        assert table.serial == 2
        assert table.get(_tuple(sport=2).key).uid == "S000002"

    def test_ttl_expiry_vs_capacity_eviction(self):
        table = FlowTable(session_ttl=10.0, max_sessions=2)
        table.account(*_oriented(_tuple(sport=1)), 0.0)
        table.run_eviction(20.0)
        assert (table.sessions_expired, table.sessions_evicted) == (1, 0)
        for sport in (2, 3, 4):
            table.account(*_oriented(_tuple(sport=sport)), 21.0)
            table.run_eviction(21.0)
        assert table.sessions_evicted == 1
        assert len(table) == 2
        reasons = sorted(r.close_reason for r in table.records())
        assert reasons == ["evicted", "expired"]

    def test_on_evict_counted_contract(self):
        seen = []

        def on_evict(key, reason):
            seen.append((key, reason))
            return len(seen) % 2 == 1  # count every other victim

        table = FlowTable(max_sessions=1, on_evict=on_evict)
        for sport in (1, 2, 3):
            table.account(*_oriented(_tuple(sport=sport)), float(sport))
            table.run_eviction(None)
        assert [reason for _, reason in seen] == ["evicted", "evicted"]
        assert table.sessions_evicted == 1  # uncounted victim skipped
        # ...but both victims still sealed into the ledger.
        assert len(table.records()) == 2

    def test_record_lines_sorted(self):
        table = FlowTable(uid_format=format_record_uid)
        for sport in (9, 2, 7):
            table.account(*_oriented(_tuple(sport=sport)), 0.0)
        table.finish()
        lines = table.record_lines()
        assert lines == sorted(lines) and len(lines) == 3
        header = flowrecords_header_line("test", len(lines))
        assert validate_flowrecord_lines([header] + lines) == []

    def test_bare_key_recency_mode(self):
        dropped = []
        table = FlowTable(
            max_sessions=2,
            on_evict=lambda key, reason: dropped.append(key) or True)
        for tick, key in enumerate(["a", "b", "c"]):
            table.touch(key, float(tick))
            table.run_eviction(None)
        assert dropped == ["a"]
        assert table.sessions_evicted == 1
        assert table.records() == []  # no ledger entries for bare keys
        table.close("b")  # recency-only close: nothing to seal
        assert table.records() == []

    def test_close_reason_domain(self):
        assert set(CLOSE_REASONS) == {"finished", "expired", "evicted"}


class TestFeatures:
    def test_vector_matches_names(self):
        vector = flow_features(_record())
        assert len(vector) == len(FEATURE_NAMES) == 19
        named = dict(zip(FEATURE_NAMES, vector))
        assert named["duration"] == 1.5
        assert named["total_pkts"] == 5
        assert named["total_bytes"] == 1020
        assert named["bytes_per_packet"] == 204
        assert named["orig_ratio_pkts"] == 0.6
        assert (named["fin_flag"], named["syn_flag"],
                named["rst_flag"]) == (1.0, 1.0, 0.0)
        assert named["is_tcp"] == 1.0
        assert named["closed_normally"] == 1.0

    def test_zero_duration_rates(self):
        vector = flow_features(_record(first_ts=1.0, last_ts=1.0,
                                       orig_pkts=1, resp_pkts=0))
        named = dict(zip(FEATURE_NAMES, vector))
        assert named["pkts_per_second"] == 0.0
        assert named["bytes_per_second"] == 0.0

    def test_window_aggregation(self):
        records = [_record(first_ts=0.5, last_ts=1.0),
                   _record(first_ts=1.5, last_ts=2.0),
                   _record(first_ts=65.0, last_ts=66.0)]
        windows = aggregate_windows(records, 60.0)
        assert [w["window_start"] for w in windows] == [0.0, 60.0]
        assert [w["flows"] for w in windows] == [2, 1]
        assert all(len(w["features"]) == 19 for w in windows)

    def test_window_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            aggregate_windows([], 0)


class TestFlowExport:
    @pytest.fixture(scope="class")
    def trace_pcap(self, tmp_path_factory):
        from repro.net.pcap import write_pcap
        from repro.net.tracegen import (
            DnsTraceConfig,
            HttpTraceConfig,
            generate_mixed_trace,
        )

        trace = generate_mixed_trace(
            HttpTraceConfig(sessions=5, seed=3),
            DnsTraceConfig(queries=8, seed=3))
        path = str(tmp_path_factory.mktemp("trace") / "mixed.pcap")
        write_pcap(path, trace)
        return path

    def test_export_flows_deterministic(self, trace_pcap):
        from repro.tools.flowexport import export_flows

        first = export_flows(trace_pcap)
        second = export_flows(trace_pcap)
        assert first.record_lines() == second.record_lines()
        assert len(first.records()) == first.serial > 0

    def test_cli_end_to_end(self, trace_pcap, tmp_path, capsys):
        from repro.tools.flowexport import main

        logdir = str(tmp_path / "logs")
        rc = main(["-r", trace_pcap, "--logdir", logdir,
                   "--window", "60", "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exported" in out and "records.jsonl: ok" in out

        with open(f"{logdir}/records.jsonl") as stream:
            lines = stream.readlines()
        assert validate_flowrecord_lines(lines) == []
        flows = json.loads(lines[0])["records"]

        with open(f"{logdir}/features.csv") as stream:
            rows = stream.read().splitlines()
        assert rows[0] == "uid," + ",".join(FEATURE_NAMES)
        assert len(rows) == flows + 1
        assert all(len(row.split(",")) == 20 for row in rows[1:])

        with open(f"{logdir}/windows.csv") as stream:
            window_rows = stream.read().splitlines()
        assert window_rows[0].startswith("window_start,flows,")
        assert len(window_rows) > 1
