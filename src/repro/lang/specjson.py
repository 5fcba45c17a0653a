"""JSON serialisation of verification specs: predicates, properties, ghosts.

This is the on-disk format the CLI consumes, so verification problems can
live next to the configurations they check::

    {
      "ghosts": [
        {"name": "FromISP1", "kind": "source", "sources": ["ISP1->R1"]}
      ],
      "safety": [
        {
          "name": "no-transit",
          "location": "R2->ISP2",
          "predicate": {"kind": "not",
                        "inner": {"kind": "ghost", "name": "FromISP1"}},
          "invariants": {
            "default": {"kind": "implies",
                        "antecedent": {"kind": "ghost", "name": "FromISP1"},
                        "consequent": {"kind": "community", "community": "100:1"}},
            "overrides": {
              "R2->ISP2": {"kind": "not",
                           "inner": {"kind": "ghost", "name": "FromISP1"}}
            }
          }
        }
      ],
      "liveness": [
        {
          "name": "customer-reaches-isp2",
          "location": "R2->ISP2",
          "predicate": {...},
          "path": ["Customer->R3", "R3", "R3->R2", "R2", "R2->ISP2"],
          "constraints": [{...}, {...}, {...}, {...}, {...}]
        }
      ]
    }
"""

from __future__ import annotations

import json
from typing import Any

from repro.bgp.configjson import KindTable, from_doc, to_doc
from repro.bgp.topology import Edge, Topology
from repro.core.properties import InvariantMap, LivenessProperty, Location, SafetyProperty
from repro.lang.ghost import GhostAttribute, unique_ghosts
from repro.lang.predicates import (
    AllOf,
    AnyOf,
    AsPathHas,
    AsPathLenIn,
    FalsePred,
    GhostIs,
    HasCommunity,
    Implies,
    LocalPrefIn,
    MedIn,
    NextHopIn,
    Not,
    OriginIs,
    Predicate,
    PrefixIn,
    TruePred,
    predicate_atoms,
)
from repro.record import Record


# ---------------------------------------------------------------------------
# Predicate codec: the configuration's (repro.bgp.configjson), with the
# spec's kind names
# ---------------------------------------------------------------------------

#: How a spec spells each predicate kind.
SPEC_KINDS = KindTable(
    "predicate",
    {
        "true": TruePred,
        "false": FalsePred,
        "community": HasCommunity,
        "prefix-in": PrefixIn,
        "ghost": GhostIs,
        "as-path-has": AsPathHas,
        "as-path-len-in": AsPathLenIn,
        "origin-is": OriginIs,
        "next-hop-in": NextHopIn,
        "local-pref-in": LocalPrefIn,
        "med-in": MedIn,
        "not": Not,
        "all": AllOf,
        "any": AnyOf,
        "implies": Implies,
    },
)


def predicate_to_json(pred: Predicate) -> dict[str, Any]:
    return to_doc(pred, SPEC_KINDS)


def predicate_from_json(doc: dict[str, Any]) -> Predicate:
    return from_doc(doc, SPEC_KINDS)


# ---------------------------------------------------------------------------
# Locations
# ---------------------------------------------------------------------------


def location_from_str(text: str) -> Location:
    """Parse ``"R2"`` (router) or ``"R2->ISP2"`` (edge)."""
    if "->" in text:
        src, __, dst = text.partition("->")
        return Edge(src.strip(), dst.strip())
    return text.strip()


def location_to_str(location: Location) -> str:
    return str(location)


# ---------------------------------------------------------------------------
# Spec documents
# ---------------------------------------------------------------------------


class SafetySpec(Record):
    property: SafetyProperty
    invariants_default: Predicate
    invariants_overrides: dict[Location, Predicate]

    def build_invariants(self, topology: Topology) -> InvariantMap:
        inv = InvariantMap(topology, default=self.invariants_default)
        for location, pred in self.invariants_overrides.items():
            try:
                inv.set(location, pred)
            except KeyError as exc:
                raise ValueError(f"invariant override: {exc.args[0]}") from None
        return inv


class VerificationSpec(Record):
    """A parsed spec file: ghosts plus safety and liveness problems."""

    ghost_docs: list[dict[str, Any]] = []
    safety: list[SafetySpec] = []
    liveness: list[LivenessProperty] = []

    def build_ghosts(self, topology: Topology) -> tuple[GhostAttribute, ...]:
        ghosts = []
        for doc in self.ghost_docs:
            if doc.get("kind", "source") == "source":
                edges = [location_from_str(e) for e in doc["sources"]]
                for edge in edges:
                    if not isinstance(edge, Edge):
                        raise ValueError(f"ghost source {edge!r} must be an edge")
                ghosts.append(
                    GhostAttribute.source_tracker(doc["name"], topology, edges)
                )
            else:  # "waypoint": spec_from_json admits no other kind
                ghosts.append(
                    GhostAttribute.waypoint(doc["name"], topology, doc["router"])
                )
        return unique_ghosts(ghosts)


def spec_from_json(text: str) -> VerificationSpec:
    """Parse a spec document; malformed input raises a readable ValueError.

    Every malformation a user can plausibly write — invalid JSON, a
    non-object document, a missing required key, a wrong-typed field —
    surfaces as :class:`ValueError` with the offending detail, never a
    raw ``KeyError``/``TypeError`` traceback (the CLI turns ValueError
    into ``error: ...`` and a non-zero exit).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(
            f"spec must be a JSON object with 'ghosts'/'safety'/'liveness' "
            f"keys, got {type(doc).__name__}"
        )
    try:
        return _spec_from_doc(doc)
    except KeyError as exc:
        raise ValueError(
            f"malformed spec: missing required key {exc.args[0]!r}"
        ) from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed spec: {exc}") from exc


#: The key each ghost kind needs besides ``name``.
_GHOST_KEYS = {"source": "sources", "waypoint": "router"}


def _known_keys(doc: dict[str, Any], allowed: tuple[str, ...], where: str) -> dict[str, Any]:
    """``doc`` itself, if it has no key outside ``allowed``: a misspelt
    key would otherwise be ignored and its property never checked."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(
            f"malformed spec: unknown key {unknown[0]!r} in {where} "
            f"(expected one of {', '.join(allowed)})"
        )
    return doc


def _ghost_doc(doc: dict[str, Any]) -> dict[str, Any]:
    """A ghost entry whose keys are all there; checks that need the
    topology wait for :meth:`VerificationSpec.build_ghosts`."""
    kind = doc.get("kind", "source")
    if kind not in _GHOST_KEYS:
        raise ValueError(f"unknown ghost kind {kind!r}")
    _known_keys(doc, ("name", "kind", _GHOST_KEYS[kind]), f"a {kind} ghost")
    for key in ("name", _GHOST_KEYS[kind]):
        if key not in doc:
            raise ValueError(f"malformed spec: {kind} ghost is missing required key {key!r}")
    if kind == "source" and not doc["sources"]:
        # No source edge: the ghost is false on every route, and any
        # property that negates it passes vacuously.
        raise ValueError(f"malformed spec: source ghost {doc['name']!r} has no sources")
    return doc


def _check_ghost_names(spec: VerificationSpec) -> None:
    """Every ghost a predicate names is declared: an undeclared one would
    enter the universe as a free attribute and fail (or pass) for nothing."""
    declared = {doc["name"] for doc in spec.ghost_docs}
    predicates = [
        pred
        for s in spec.safety
        for pred in (s.property.predicate, s.invariants_default, *s.invariants_overrides.values())
    ] + [pred for l in spec.liveness for pred in (l.predicate, *l.constraints)]
    for pred in predicates:
        undeclared = sorted(predicate_atoms(pred)[2] - declared)
        if undeclared:
            raise ValueError(
                f"malformed spec: predicate names undeclared ghost {undeclared[0]!r} "
                f"(declared: {', '.join(sorted(declared)) or 'none'})"
            )


def _spec_from_doc(doc: dict[str, Any]) -> VerificationSpec:
    _known_keys(doc, ("ghosts", "safety", "liveness"), "the spec")
    if not doc.get("safety") and not doc.get("liveness"):
        raise ValueError("malformed spec: no safety or liveness property to verify")
    spec = VerificationSpec(ghost_docs=[_ghost_doc(g) for g in doc.get("ghosts", ())])

    for sdoc in doc.get("safety", ()):
        _known_keys(sdoc, ("name", "location", "predicate", "invariants"), "a safety property")
        prop = SafetyProperty(
            location=location_from_str(sdoc["location"]),
            predicate=predicate_from_json(sdoc["predicate"]),
            name=sdoc.get("name", ""),
        )
        inv_doc = _known_keys(sdoc.get("invariants", {}), ("default", "overrides"), "invariants")
        default = (
            predicate_from_json(inv_doc["default"])
            if "default" in inv_doc
            else TruePred()
        )
        overrides = {
            location_from_str(loc): predicate_from_json(p)
            for loc, p in inv_doc.get("overrides", {}).items()
        }
        spec.safety.append(
            SafetySpec(
                property=prop,
                invariants_default=default,
                invariants_overrides=overrides,
            )
        )

    for ldoc in doc.get("liveness", ()):
        _known_keys(
            ldoc, ("name", "location", "predicate", "path", "constraints"), "a liveness property"
        )
        spec.liveness.append(
            LivenessProperty(
                location=location_from_str(ldoc["location"]),
                predicate=predicate_from_json(ldoc["predicate"]),
                path=tuple(location_from_str(l) for l in ldoc["path"]),
                constraints=tuple(
                    predicate_from_json(c) for c in ldoc["constraints"]
                ),
                name=ldoc.get("name", ""),
            )
        )
    _check_ghost_names(spec)
    return spec


def spec_to_json(spec: VerificationSpec) -> str:
    doc: dict[str, Any] = {"ghosts": spec.ghost_docs, "safety": [], "liveness": []}
    for s in spec.safety:
        doc["safety"].append(
            {
                "name": s.property.name,
                "location": location_to_str(s.property.location),
                "predicate": predicate_to_json(s.property.predicate),
                "invariants": {
                    "default": predicate_to_json(s.invariants_default),
                    "overrides": {
                        location_to_str(loc): predicate_to_json(p)
                        for loc, p in s.invariants_overrides.items()
                    },
                },
            }
        )
    for l in spec.liveness:
        doc["liveness"].append(
            {
                "name": l.name,
                "location": location_to_str(l.location),
                "predicate": predicate_to_json(l.predicate),
                "path": [location_to_str(x) for x in l.path],
                "constraints": [predicate_to_json(c) for c in l.constraints],
            }
        )
    return json.dumps(doc, indent=2)
