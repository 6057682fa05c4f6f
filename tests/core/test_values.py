"""Domain value types: addr, net, port, time, interval."""

import pytest
from hypothesis import given, strategies as st

from repro.core.values import Addr, Interval, Network, Port, Time


class TestAddr:
    def test_v4_parse_and_format(self):
        a = Addr("192.168.1.1")
        assert str(a) == "192.168.1.1"
        assert a.is_v4
        assert a.family == 4

    def test_v6_parse_and_format(self):
        a = Addr("2001:db8::1")
        assert str(a) == "2001:db8::1"
        assert a.is_v6
        assert a.family == 6

    def test_v6_full_form(self):
        a = Addr("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert str(a) == "2001:db8::1"

    def test_v4_mapped_is_v4(self):
        assert Addr("::ffff:1.2.3.4") == Addr("1.2.3.4")

    def test_packed_roundtrip_v4(self):
        a = Addr("10.0.0.1")
        assert Addr(a.packed()) == a
        assert len(a.packed()) == 4

    def test_packed_roundtrip_v6(self):
        a = Addr("2001:db8::42")
        assert Addr(a.packed()) == a
        assert len(a.packed()) == 16

    def test_from_v4_int(self):
        assert Addr.from_v4_int(0x0A000001) == Addr("10.0.0.1")

    def test_mask_v4(self):
        assert Addr("10.1.2.3").mask(16) == Addr("10.1.0.0")
        assert Addr("10.1.2.3").mask(0) == Addr("0.0.0.0")
        assert Addr("10.1.2.3").mask(32) == Addr("10.1.2.3")

    def test_invalid_inputs(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4",
                    "2001:::1", "xyz"):
            with pytest.raises(ValueError):
                Addr(bad)
        with pytest.raises(ValueError):
            Addr(b"abc")  # 3 bytes
        with pytest.raises(TypeError):
            Addr(1.5)

    def test_ordering_and_hash(self):
        a, b = Addr("1.1.1.1"), Addr("1.1.1.2")
        assert a < b
        assert len({a, Addr("1.1.1.1")}) == 1

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_v4_int_roundtrip(self, value):
        a = Addr.from_v4_int(value)
        assert a.v4_value == value
        assert Addr(str(a)) == a

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_v6_string_roundtrip(self, value):
        a = Addr(value)
        assert Addr(str(a)).value == value


class TestNetwork:
    def test_parse_and_contains(self):
        n = Network("10.0.5.0/24")
        assert n.contains(Addr("10.0.5.77"))
        assert not n.contains(Addr("10.0.6.1"))
        assert str(n) == "10.0.5.0/24"

    def test_prefix_is_masked(self):
        assert Network("10.0.5.77/24").prefix == Addr("10.0.5.0")

    def test_zero_length_contains_all_v4(self):
        n = Network("0.0.0.0/0")
        assert n.contains(Addr("255.255.255.255"))

    def test_family_mismatch(self):
        assert not Network("10.0.0.0/8").contains(Addr("2001:db8::1"))

    def test_v6_network(self):
        n = Network("2001:db8::/32")
        assert n.contains(Addr("2001:db8::1234"))
        assert not n.contains(Addr("2001:db9::1"))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Network("10.0.0.0/33")
        with pytest.raises(ValueError):
            Network("10.0.0.0")

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1),
           st.integers(min_value=0, max_value=32))
    def test_prefix_always_contains_base(self, value, length):
        a = Addr.from_v4_int(value)
        n = Network(a, length)
        assert n.contains(a)


class TestNetworkContains:
    """``contains`` compares shifted integers; these pin its answers at
    the prefix-length edges and under the family rule (a v4-mapped
    address is IPv4, and families never match across)."""

    @pytest.mark.parametrize("network,inside,outside", [
        ("0.0.0.0/0", ["0.0.0.0", "255.255.255.255"], []),
        ("10.20.0.0/26", ["10.20.0.0", "10.20.0.63"],
         ["10.20.0.64", "10.20.1.0", "9.20.0.1"]),
        ("192.0.2.1/32", ["192.0.2.1"], ["192.0.2.0", "192.0.2.2"]),
        ("2001:db8:1:2::/64",
         ["2001:db8:1:2::", "2001:db8:1:2:ffff:ffff:ffff:ffff"],
         ["2001:db8:1:3::", "2001:db8:1:1:ffff:ffff:ffff:ffff"]),
    ], ids=["v4/0", "v4/26", "v4/32", "v6/64"])
    def test_prefix_edges(self, network, inside, outside):
        net = Network(network)
        for text in inside:
            assert net.contains(Addr(text)), text
        for text in outside:
            assert not net.contains(Addr(text)), text

    def test_v6_address_never_in_v4_network(self):
        assert not Network("0.0.0.0/0").contains(Addr("::1"))
        assert not Network("10.0.0.0/8").contains(Addr("::a00:1"))

    def test_v4_mapped_address_against_v6_network(self):
        mapped = Addr("::ffff:10.0.0.1")
        assert mapped.is_v4
        assert not Network("::/0").contains(mapped)
        assert not Network("::/80").contains(mapped)
        assert Network("10.0.0.0/8").contains(mapped)

    def test_accepts_str_and_int(self):
        net = Network("10.20.0.0/26")
        assert net.contains("10.20.0.5")
        assert not net.contains("10.20.0.64")
        assert Network("2001:db8::/32").contains("2001:db8::1")
        assert net.contains(Addr("10.20.0.9").value)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1),
           st.integers(min_value=0, max_value=(1 << 128) - 1),
           st.integers(min_value=0, max_value=128))
    def test_matches_mask_definition(self, base, probe, length):
        # Half the draws land in IPv4 (mapped) space.
        if base & 1:
            base = Addr.from_v4_int(base >> 96).value
            length %= 33
        net = Network(Addr(base), length)
        addr = Addr(probe if probe & 1 else
                    Addr.from_v4_int(probe >> 96).value)
        expected = addr.family == net.family and \
            addr.mask(length) == net.prefix
        assert net.contains(addr) is expected


class TestPort:
    def test_parse(self):
        p = Port("80/tcp")
        assert p.number == 80
        assert p.protocol == "tcp"
        assert str(p) == "80/tcp"

    def test_protocols_distinct(self):
        assert Port(53, "tcp") != Port(53, "udp")

    def test_range_check(self):
        with pytest.raises(ValueError):
            Port(70000, "tcp")
        with pytest.raises(ValueError):
            Port(80, "sctp")

    def test_ordering(self):
        assert Port(22, "tcp") < Port(80, "tcp")


class TestTimeInterval:
    def test_nanosecond_resolution(self):
        t = Time.from_nanos(1_000_000_001)
        assert t.nanos == 1_000_000_001

    def test_arithmetic(self):
        t = Time(100.0)
        i = Interval(2.5)
        assert (t + i).seconds == pytest.approx(102.5)
        assert (t - i).seconds == pytest.approx(97.5)
        assert ((t + i) - t) == Interval(2.5)

    def test_interval_scaling(self):
        assert Interval(2) * 3 == Interval(6)
        assert 2 * Interval(3) == Interval(6)

    def test_comparison(self):
        assert Time(1.0) < Time(2.0)
        assert Interval(1) < Interval(2)

    def test_interval_truthiness(self):
        assert not Interval(0)
        assert Interval(1)

    @given(st.integers(min_value=-10**15, max_value=10**15),
           st.integers(min_value=-10**15, max_value=10**15))
    def test_time_interval_algebra(self, a, b):
        t = Time.from_nanos(a)
        i = Interval.from_nanos(b)
        assert (t + i) - i == t
        assert (t + i) - t == i
