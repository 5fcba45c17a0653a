"""BGP route announcements.

A route is the tuple ``(Prefix, ASPath, NextHop, LocalPref, MED, Comm)`` of
§3.1, plus an ``origin`` code (used by the decision process) and a mapping of
*ghost attributes*.  Ghost attributes never influence concrete forwarding;
they exist so the simulator can mirror the verification-level instrumentation
of §4.4 when the test suite cross-checks verified properties against
simulated traces.
"""

from __future__ import annotations

from typing import Mapping

from repro.bgp.prefix import Prefix
from repro.record import Value, replace


ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2

DEFAULT_LOCAL_PREF = 100


class Community(Value, order=True):
    """A standard 32-bit BGP community, written ``asn:value``."""

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.asn <= 0xFFFF or not 0 <= self.value <= 0xFFFF:
            raise ValueError(f"community parts out of range: {self.asn}:{self.value}")

    @classmethod
    def parse(cls, text: str) -> "Community":
        asn_text, sep, value_text = text.partition(":")
        if not sep:
            raise ValueError(f"invalid community {text!r} (expected asn:value)")
        return cls(int(asn_text), int(value_text))

    def as_int(self) -> int:
        return (self.asn << 16) | self.value

    @classmethod
    def from_int(cls, value: int) -> "Community":
        return cls((value >> 16) & 0xFFFF, value & 0xFFFF)

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


class Route(Value):
    """An immutable BGP route announcement."""

    prefix: Prefix
    as_path: tuple[int, ...] = ()
    next_hop: int = 0
    local_pref: int = DEFAULT_LOCAL_PREF
    med: int = 0
    communities: frozenset[Community] = frozenset()
    origin: int = ORIGIN_IGP
    ghost: Mapping[str, bool] = {}

    def __post_init__(self) -> None:
        # Normalise collection types so equality and hashing behave.
        if not isinstance(self.communities, frozenset):
            object.__setattr__(self, "communities", frozenset(self.communities))
        if not isinstance(self.as_path, tuple):
            object.__setattr__(self, "as_path", tuple(self.as_path))
        if not isinstance(self.ghost, _FrozenGhost):
            object.__setattr__(self, "ghost", _FrozenGhost(self.ghost))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------

    def with_local_pref(self, value: int) -> "Route":
        return replace(self, local_pref=value)

    def with_med(self, value: int) -> "Route":
        return replace(self, med=value)

    def with_next_hop(self, value: int) -> "Route":
        return replace(self, next_hop=value)

    def add_community(self, comm: Community) -> "Route":
        return replace(self, communities=self.communities | {comm})

    def delete_community(self, comm: Community) -> "Route":
        return replace(self, communities=self.communities - {comm})

    def clear_communities(self) -> "Route":
        return replace(self, communities=frozenset())

    def prepend_as(self, asn: int, count: int = 1) -> "Route":
        return replace(self, as_path=(asn,) * count + self.as_path)

    def with_ghost(self, name: str, value: bool) -> "Route":
        updated = dict(self.ghost)
        updated[name] = value
        return replace(self, ghost=_FrozenGhost(updated))

    def ghost_value(self, name: str) -> bool:
        return bool(self.ghost.get(name, False))

    def __str__(self) -> str:
        comms = ",".join(str(c) for c in sorted(self.communities)) or "-"
        path = " ".join(str(a) for a in self.as_path) or "-"
        return (
            f"{self.prefix} lp={self.local_pref} med={self.med} "
            f"path=[{path}] comm={{{comms}}}"
        )


class _FrozenGhost(dict):
    """An immutable, hashable ghost-attribute mapping."""

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))

    def __reduce__(self):
        # The default dict-subclass reduction repopulates via __setitem__,
        # which is blocked below — without this, any counterexample route
        # carrying a ghost value is unpicklable and silently knocks the
        # process backend back to the serial path.  The constructor fills
        # the dict at the C level, so round-tripping through it is safe.
        return (self.__class__, (dict(self),))

    def _blocked(self, *args: object, **kwargs: object) -> None:
        raise TypeError("ghost mapping is immutable; use Route.with_ghost")

    __setitem__ = _blocked  # type: ignore[assignment]
    __delitem__ = _blocked  # type: ignore[assignment]
    update = _blocked  # type: ignore[assignment]
    pop = _blocked  # type: ignore[assignment]
    popitem = _blocked  # type: ignore[assignment]
    clear = _blocked  # type: ignore[assignment]
    setdefault = _blocked  # type: ignore[assignment]

