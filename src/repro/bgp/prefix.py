"""IPv4 prefixes and prefix-list ranges.

Routes in the paper's model carry a prefix = (address, length) pair (§3.1).
This module implements that pair with the operations the rest of the system
needs: containment, overlap and parsing.
"""

from __future__ import annotations

from typing import Iterator

from repro.record import Value


_MAX_LEN = 32
_ADDR_MASK = (1 << 32) - 1


def _mask_for(length: int) -> int:
    if length == 0:
        return 0
    return (_ADDR_MASK << (32 - length)) & _ADDR_MASK


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 text into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format a 32-bit integer as dotted-quad text."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class Prefix(Value, order=True):
    """An IPv4 prefix: a network address and a mask length.

    The address is stored canonically (host bits zeroed), so two equal
    prefixes always compare equal.
    """

    address: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= _MAX_LEN:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.address <= _ADDR_MASK:
            raise ValueError(f"address out of range: {self.address:#x}")
        canonical = self.address & _mask_for(self.length)
        if canonical != self.address:
            object.__setattr__(self, "address", canonical)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` notation."""
        if "/" not in text:
            raise ValueError(f"missing /length in prefix {text!r}")
        addr_text, __, len_text = text.partition("/")
        return cls(parse_ipv4(addr_text), int(len_text))

    @property
    def mask(self) -> int:
        return _mask_for(self.length)

    def contains_address(self, address: int) -> bool:
        return address & self.mask == self.address

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and self.contains_address(other.address)

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other) or other.contains(self)

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """All prefixes of the given (longer) length contained in this one."""
        if length < self.length:
            raise ValueError("target length is shorter than the prefix")
        count = 1 << (length - self.length)
        step = 1 << (32 - length)
        for i in range(count):
            yield Prefix(self.address + i * step, length)

    def __str__(self) -> str:
        return f"{format_ipv4(self.address)}/{self.length}"


class PrefixRange(Value):
    """A prefix-list entry: a base prefix plus allowed mask-length bounds.

    ``PrefixRange(Prefix.parse("10.0.0.0/8"), 8, 24)`` matches every route
    whose prefix falls under 10.0.0.0/8 with length between 8 and 24 — the
    semantics of ``ip prefix-list ... ge/le``.
    """

    prefix: Prefix
    min_length: int
    max_length: int

    def __post_init__(self) -> None:
        if not self.prefix.length <= self.min_length <= self.max_length <= _MAX_LEN:
            raise ValueError(
                f"invalid length bounds {self.min_length}..{self.max_length} "
                f"for {self.prefix}"
            )

    @classmethod
    def exact(cls, prefix: Prefix) -> "PrefixRange":
        return cls(prefix, prefix.length, prefix.length)

    @classmethod
    def parse(cls, text: str) -> "PrefixRange":
        """Parse ``"10.0.0.0/8"``, ``"10.0.0.0/8 le 24"``, ``"... ge 9 le 24"``."""
        tokens = text.split()
        if not tokens:
            raise ValueError("empty prefix range")
        prefix = Prefix.parse(tokens[0])
        min_len = prefix.length
        max_len = prefix.length
        rest = tokens[1:]
        while rest:
            if len(rest) < 2 or rest[0] not in ("ge", "le"):
                raise ValueError(f"invalid prefix range {text!r}")
            value = int(rest[1])
            if rest[0] == "ge":
                min_len = value
                if max_len < min_len:
                    max_len = _MAX_LEN
            else:
                max_len = value
            rest = rest[2:]
        return cls(prefix, min_len, max_len)

    def matches(self, prefix: Prefix) -> bool:
        return (
            self.min_length <= prefix.length <= self.max_length
            and self.prefix.contains(prefix)
        )

    def __str__(self) -> str:
        base = str(self.prefix)
        length = self.prefix.length
        if self.min_length == length and self.max_length == length:
            return base
        if self.min_length == length:
            return f"{base} le {self.max_length}"
        if self.max_length == _MAX_LEN:
            return f"{base} ge {self.min_length}"
        return f"{base} ge {self.min_length} le {self.max_length}"
