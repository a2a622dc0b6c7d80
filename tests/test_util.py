"""Unit tests for shared utilities."""

import ipaddress
import random

import pytest

from repro._util import (
    chunk_payload,
    clamp,
    cumulative,
    derive_rng,
    derive_seed,
    int_to_ipv4,
    int_to_ipv6,
    ip_version,
    ipv4_to_int,
    ipv6_to_int,
    pairwise,
    stable_hash,
    weighted_choice,
    zipf_weights,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_sensitive_to_parts(self):
        assert stable_hash("a", 1) != stable_hash("a", 2)
        assert stable_hash("a", 1) != stable_hash("b", 1)

    def test_no_concatenation_collision(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_64_bit_range(self):
        assert 0 <= stable_hash("x") < 2**64


class TestDeriveRng:
    def test_independent_streams(self):
        a = derive_rng(7, "alpha")
        b = derive_rng(7, "beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_reproducible(self):
        assert derive_rng(7, "x").random() == derive_rng(7, "x").random()

    def test_seed_derivation(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestIpConversions:
    def test_ipv4_roundtrip(self):
        for addr in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "198.41.128.7"):
            assert int_to_ipv4(ipv4_to_int(addr)) == addr

    def test_ipv6_roundtrip(self):
        for addr in ("::", "2a00::1", "2606:4700::abcd:1"):
            assert int_to_ipv6(ipv6_to_int(addr)) == addr

    def test_ip_version(self):
        assert ip_version("10.0.0.1") == 4
        assert ip_version("2a00::1") == 6
        with pytest.raises(ValueError):
            ip_version("not-an-ip")


def _outcome(fn, address):
    """The value ``fn`` returns for ``address``, or its exception type."""
    try:
        return fn(address)
    except Exception as exc:  # the type is what is compared
        return type(exc)


#: Texts and non-texts where a fast parser could part from ``ipaddress``:
#: leading zeros, scope ids, embedded IPv4, whitespace, non-ASCII digits,
#: brackets, NULs, prefixes, shorthand forms and non-string inputs.
ADDRESS_EDGE_CASES = [
    "1.2.3.4", "0.0.0.0", "255.255.255.255", "01.2.3.4", "1.2.3.04",
    "00.0.0.0", "256.1.1.1", "1.2.3", "1.2.3.4.5", "0x1.2.3.4",
    " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "\u0661.2.3.4", "1.2.3.4\x00",
    "1.2.3.4/32", "", "::", "::1", "[::1]", "::1\x00", "fe80::1%eth0",
    "fe80::1%", "::ffff:1.2.3.4", "::1.2.3.4", "::ffff:01.2.3.4",
    "::ffff:1.2.3", "1:2:3:4:5:6:1.2.3.4", "1:2:3:4:5:6:7:1.2.3.4",
    "1::2::3", "2001:0db8:0000::1", "02001:db8::1", "ABCD::ef",
    "1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8:9", "1:2:3:4:5:6:7::",
    "::1:2:3:4:5:6:7", "1::", ":1::", "::fffff", " ::1", "\uff11.2.3.4",
    5, 2**32, -1, None, 1.5, b"\x01\x02\x03\x04", b"1.2.3.4",
]


class TestAddressParsersMatchIpaddress:
    """The inet_pton fast paths return what ``ipaddress`` returns, or
    raise the exception type it raises, on every edge case."""

    @pytest.mark.parametrize("address", ADDRESS_EDGE_CASES, ids=repr)
    def test_ip_version(self, address):
        assert _outcome(ip_version, address) == _outcome(
            lambda a: ipaddress.ip_address(a).version, address
        )

    @pytest.mark.parametrize("address", ADDRESS_EDGE_CASES, ids=repr)
    def test_ipv4_to_int(self, address):
        assert _outcome(ipv4_to_int, address) == _outcome(
            lambda a: int(ipaddress.IPv4Address(a)), address
        )

    @pytest.mark.parametrize("address", ADDRESS_EDGE_CASES, ids=repr)
    def test_ipv6_to_int(self, address):
        assert _outcome(ipv6_to_int, address) == _outcome(
            lambda a: int(ipaddress.IPv6Address(a)), address
        )


class TestZipfWeights:
    def test_normalized(self):
        assert sum(zipf_weights(100)) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(50, exponent=1.2)
        assert all(a > b for a, b in zip(w, w[1:]))

    def test_single(self):
        assert zipf_weights(1) == [1.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestWeightedChoice:
    def test_respects_weights(self):
        rng = random.Random(1)
        picks = [weighted_choice(rng, ["a", "b"], [0.99, 0.01]) for _ in range(200)]
        assert picks.count("a") > 180

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_choice(random.Random(0), ["a"], [0.5, 0.5])


class TestChunkPayload:
    def test_exact_multiple(self):
        assert chunk_payload(b"abcdef", 2) == [b"ab", b"cd", b"ef"]

    def test_remainder(self):
        assert chunk_payload(b"abcde", 2) == [b"ab", b"cd", b"e"]

    def test_empty(self):
        assert chunk_payload(b"", 5) == []

    def test_invalid_mss(self):
        with pytest.raises(ValueError):
            chunk_payload(b"x", 0)


class TestSmallHelpers:
    def test_clamp(self):
        assert clamp(5, 0, 10) == 5
        assert clamp(-1, 0, 10) == 0
        assert clamp(11, 0, 10) == 10

    def test_cumulative(self):
        assert cumulative([1, 2, 3]) == [1, 3, 6]
        assert cumulative([]) == []

    def test_pairwise(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]
        assert list(pairwise([1])) == []
