"""Symbolic layer: routes, route-map transfer functions, and the predicate
DSL used to state properties and invariants.

This package bridges the concrete BGP substrate (:mod:`repro.bgp`) and the
SMT substrate (:mod:`repro.smt`).  A :class:`SymbolicRoute` represents an
arbitrary route announcement as bit-vector/boolean terms over a finite
:class:`AttributeUniverse`; :func:`transfer_route_map` symbolically executes
a route map, producing the ``(accepted, output)`` pair the local checks
constrain; and :mod:`repro.lang.predicates` is the one language of route
sets: the paper's invariants ``I_l``, path constraints ``C_i`` and
properties ``P``, and the match conditions of every route-map clause
(:mod:`repro.bgp` holds them in its configurations and evaluates them
concretely).
"""

from repro.lang.universe import AttributeUniverse
from repro.lang.symroute import SymbolicRoute
from repro.lang.ghost import GhostAttribute
from repro.lang.transfer import (
    transfer_export,
    transfer_import,
    transfer_route_map,
    symbolic_originated,
)
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
    prefix_projection,
)

__all__ = [
    "AttributeUniverse",
    "SymbolicRoute",
    "GhostAttribute",
    "transfer_export",
    "transfer_import",
    "transfer_route_map",
    "symbolic_originated",
    "AllOf",
    "AnyOf",
    "AsPathHas",
    "AsPathLenIn",
    "FalsePred",
    "GhostIs",
    "HasCommunity",
    "Implies",
    "LocalPrefIn",
    "MedIn",
    "NextHopIn",
    "Not",
    "OriginIs",
    "Predicate",
    "PrefixIn",
    "TruePred",
    "prefix_projection",
]
