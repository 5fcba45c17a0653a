"""Tests for IPv4 prefixes and prefix-list ranges."""

from __future__ import annotations

import random

import pytest

from repro.bgp.prefix import (
    Prefix,
    PrefixRange,
    format_ipv4,
    parse_ipv4,
)

from tests import draws


def test_parse_and_format_ipv4():
    assert parse_ipv4("10.0.0.1") == 0x0A000001
    assert parse_ipv4("255.255.255.255") == 0xFFFFFFFF
    assert format_ipv4(0x0A000001) == "10.0.0.1"


@pytest.mark.parametrize("bad", ["10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
def test_parse_ipv4_rejects_invalid(bad):
    with pytest.raises(ValueError):
        parse_ipv4(bad)


def test_prefix_parse_and_str():
    p = Prefix.parse("10.0.0.0/8")
    assert p.address == 0x0A000000
    assert p.length == 8
    assert str(p) == "10.0.0.0/8"


def test_prefix_canonicalises_host_bits():
    p = Prefix(parse_ipv4("10.1.2.3"), 8)
    assert p == Prefix.parse("10.0.0.0/8")


def test_prefix_length_bounds():
    with pytest.raises(ValueError):
        Prefix(0, 33)
    with pytest.raises(ValueError):
        Prefix(0, -1)


def test_prefix_containment():
    p8 = Prefix.parse("10.0.0.0/8")
    p16 = Prefix.parse("10.1.0.0/16")
    other = Prefix.parse("192.168.0.0/16")
    assert p8.contains(p16)
    assert not p16.contains(p8)
    assert p8.contains(p8)
    assert not p8.contains(other)
    assert p8.overlaps(p16) and p16.overlaps(p8)
    assert not p8.overlaps(other)


def test_default_route_contains_everything():
    default = Prefix.parse("0.0.0.0/0")
    assert default.contains(Prefix.parse("203.0.113.0/24"))


def test_subprefixes():
    p = Prefix.parse("10.0.0.0/30")
    subs = list(p.subprefixes(32))
    assert len(subs) == 4
    assert subs[0] == Prefix.parse("10.0.0.0/32")
    assert subs[3] == Prefix.parse("10.0.0.3/32")
    with pytest.raises(ValueError):
        list(p.subprefixes(8))


def test_prefix_range_exact():
    r = PrefixRange.exact(Prefix.parse("10.0.0.0/8"))
    assert r.matches(Prefix.parse("10.0.0.0/8"))
    assert not r.matches(Prefix.parse("10.1.0.0/16"))


def test_prefix_range_le():
    r = PrefixRange.parse("10.0.0.0/8 le 24")
    assert r.matches(Prefix.parse("10.0.0.0/8"))
    assert r.matches(Prefix.parse("10.5.0.0/16"))
    assert r.matches(Prefix.parse("10.5.5.0/24"))
    assert not r.matches(Prefix.parse("10.5.5.5/32"))
    assert not r.matches(Prefix.parse("11.0.0.0/8"))


def test_prefix_range_ge_le():
    r = PrefixRange.parse("10.0.0.0/8 ge 16 le 24")
    assert not r.matches(Prefix.parse("10.0.0.0/8"))
    assert r.matches(Prefix.parse("10.5.0.0/16"))
    assert not r.matches(Prefix.parse("10.0.0.0/25"))


def test_prefix_range_ge_only_opens_to_32():
    r = PrefixRange.parse("10.0.0.0/8 ge 16")
    assert r.matches(Prefix.parse("10.0.0.1/32"))
    assert not r.matches(Prefix.parse("10.0.0.0/9"))


def test_prefix_range_invalid_bounds():
    with pytest.raises(ValueError):
        PrefixRange(Prefix.parse("10.0.0.0/16"), 8, 24)


@pytest.mark.parametrize("seed", range(200))
def test_containment_is_antisymmetric_and_str_round_trips(seed):
    rng = random.Random(seed)
    a = draws.prefix(rng)
    if rng.random() < 0.5:
        b = draws.prefix(rng)
    else:  # a's parent, a itself or a child: where containment holds
        b = Prefix(a.address, min(32, max(0, a.length + rng.randint(-1, 1))))
    if a.contains(b) and b.contains(a):
        assert a == b
    for p in (a, b):
        assert Prefix.parse(str(p)) == p
