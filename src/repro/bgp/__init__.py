"""Concrete BGP substrate: routes, prefixes, topologies, policies, and a
message-passing simulator implementing the trace semantics of §3 of the
paper.

It provides the *concrete* semantics that the symbolic layer
(:mod:`repro.lang`) mirrors and that the test suite uses as ground truth.
Route-map conditions are :mod:`repro.lang.predicates` values, so a
configuration holds objects of the symbolic layer (which imports the SMT
layer); this package only calls their ``holds``.

The package namespace re-exports the data model (routes, prefixes,
topology, policies, configurations) and the JSON codec.  The simulator
(:mod:`repro.bgp.simulator`), the decision process
(:mod:`repro.bgp.selection`) and the dialect parser
(:mod:`repro.bgp.configparse`) are imported from their own modules, so
verifying a JSON configuration loads none of them.
"""

from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Community, Route, ORIGIN_IGP, ORIGIN_EGP, ORIGIN_INCOMPLETE
from repro.bgp.topology import Edge, Topology
from repro.bgp.policy import (
    Action,
    AddCommunity,
    ClearCommunities,
    DeleteCommunity,
    PrependAsPath,
    RouteMap,
    RouteMapClause,
    SetLocalPref,
    SetMed,
    SetNextHop,
    SetOrigin,
)
from repro.bgp.config import NeighborConfig, NetworkConfig, RouterConfig
from repro.bgp.configjson import config_from_json, config_to_json

__all__ = [
    "Prefix",
    "PrefixRange",
    "Community",
    "Route",
    "ORIGIN_IGP",
    "ORIGIN_EGP",
    "ORIGIN_INCOMPLETE",
    "Edge",
    "Topology",
    "Action",
    "AddCommunity",
    "ClearCommunities",
    "DeleteCommunity",
    "PrependAsPath",
    "RouteMap",
    "RouteMapClause",
    "SetLocalPref",
    "SetMed",
    "SetNextHop",
    "SetOrigin",
    "NeighborConfig",
    "NetworkConfig",
    "RouterConfig",
    "config_from_json",
    "config_to_json",
]
