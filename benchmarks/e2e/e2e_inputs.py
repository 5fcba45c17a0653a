"""Seeded input generators owned by the benchmark.

Everything here writes the *on-disk formats the CLI consumes* (the config
JSON of ``repro.bgp.configjson`` and the spec JSON of
``repro.lang.specjson``) without importing ``repro``: the program under
test receives only the generated files, and set-up time measures the
harness, not the library.  Each generator returns the document plus a
*manifest* — the facts about how the input was constructed (check counts,
the seeded bug's edge) that the expected verdicts are derived from.

The same seed always gives byte-identical documents: all randomness comes
from one ``random.Random(f"{workload}:{seed}")`` per generator and
documents are dumped with sorted keys.
"""

from __future__ import annotations

import json
import random
from typing import Any

INTERNAL_AS = 65000
TRANSIT = "100:1"
NON_CUSTOMER_TAG = "65000:200"
SHORT_PREFIXES = {"kind": "prefix", "ranges": ["0.0.0.0/0 le 24"]}

Doc = dict[str, Any]


def dump(doc: Doc) -> str:
    """The canonical text of a document (what ``config_to_json`` emits)."""
    return json.dumps(doc, indent=2, sort_keys=True)


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _clause(seq: int, disposition: str = "permit", matches=(), actions=()) -> Doc:
    return {
        "seq": seq,
        "disposition": disposition,
        "matches": list(matches),
        "actions": list(actions),
    }


def _neighbor(remote_asn: int, import_map: Doc | None = None, export_map: Doc | None = None) -> Doc:
    return {
        "remote_asn": remote_asn,
        "import_map": import_map,
        "export_map": export_map,
        "originated": [],
    }


def _ghost_is(name: str) -> Doc:
    return {"kind": "ghost", "name": name}


def _not(inner: Doc) -> Doc:
    return {"kind": "not", "inner": inner}


def _tagged_spec(
    ghost: str, sources: list[str], tag: str, location: str, clean_edges: list[str], name: str
) -> Doc:
    """"ghost ⇒ tag" everywhere, "¬ghost" on ``clean_edges``, "¬ghost" at ``location``."""
    return {
        "ghosts": [{"name": ghost, "kind": "source", "sources": sources}],
        "safety": [
            {
                "name": name,
                "location": location,
                "predicate": _not(_ghost_is(ghost)),
                "invariants": {
                    "default": {
                        "kind": "implies",
                        "antecedent": _ghost_is(ghost),
                        "consequent": {"kind": "community", "community": tag},
                    },
                    "overrides": {edge: _not(_ghost_is(ghost)) for edge in clean_edges},
                },
            }
        ],
    }


def safety_check_count(internal_peerings: int, external_peerings: int) -> int:
    """Local checks of one safety problem (§4.2) on a network without
    originated routes: one import check per directed edge into a router,
    one export check per directed edge out of a router, one implication.
    An internal peering has two directed edges with a router at both ends;
    an external peering has one edge into and one out of its router."""
    into_routers = 2 * internal_peerings + external_peerings
    return 2 * into_routers + 1


# ---------------------------------------------------------------------------
# Full mesh (paper §6.2 / Fig. 3d)
# ---------------------------------------------------------------------------


def fullmesh(n: int, seed: int) -> tuple[Doc, Doc, Doc]:
    """(config, spec, manifest) for the N-router iBGP full mesh.

    The shape is ``repro.workloads.fullmesh.build_full_mesh``: every
    router ``Ri`` has one external ``Ei``; one router tags its external's
    routes with 100:1, one other router's export to its external denies
    100:1, every other external import only filters long prefixes.  The
    seed picks *which* two routers play those roles and the external AS
    base — the work is the same for every seed, the bytes are not.
    """
    rng = seeded_rng("fullmesh", seed)
    tagger, denier = rng.sample(range(1, n + 1), 2)
    as_base = rng.randrange(1000, 30000)
    routers: Doc = {}
    for i in range(1, n + 1):
        if i == tagger:
            import_map = {
                "name": f"E{i}-IN",
                "clauses": [
                    _clause(
                        10,
                        matches=[SHORT_PREFIXES],
                        actions=[{"kind": "add-community", "community": TRANSIT}],
                    )
                ],
            }
        else:
            import_map = {"name": "EXT-IN", "clauses": [_clause(10, matches=[SHORT_PREFIXES])]}
        export_map = None
        if i == denier:
            export_map = {
                "name": f"E{i}-OUT",
                "clauses": [
                    _clause(10, "deny", matches=[{"kind": "community", "community": TRANSIT}]),
                    _clause(20),
                ],
            }
        neighbors = {f"E{i}": _neighbor(as_base + i, import_map, export_map)}
        for j in range(1, n + 1):
            if j != i:
                neighbors[f"R{j}"] = _neighbor(INTERNAL_AS)
        routers[f"R{i}"] = {"asn": INTERNAL_AS, "neighbors": neighbors}
    config = {
        "externals": {f"E{i}": as_base + i for i in range(1, n + 1)},
        "routers": routers,
    }
    location = f"R{denier}->E{denier}"
    spec = _tagged_spec(
        f"FromE{tagger}", [f"E{tagger}->R{tagger}"], TRANSIT, location, [location], "no-transit"
    )
    manifest = {
        "checks": safety_check_count(n * (n - 1) // 2, n),
        # One router owns the import and export check of each of its
        # sessions: n - 1 internal plus one external.
        "checks_per_owner": 2 * n,
    }
    return config, spec, manifest


def fullmesh_edit(config: Doc, seed: int) -> tuple[Doc, Doc]:
    """(edited config, manifest): one benign single-router edit (§2/§7).

    A bogon deny is prepended to one router's external import filter — the
    edit of ``full_mesh_single_router_edit``; the seed picks the router
    (never the tagger: its map has another name) and the bogon range.
    """
    rng = seeded_rng("fullmesh-edit", seed)
    candidates = sorted(
        name
        for name, router in config["routers"].items()
        if router["neighbors"]["E" + name[1:]]["import_map"]["name"] == "EXT-IN"
    )
    router = rng.choice(candidates)
    bogon = rng.choice(["192.168.0.0/16 le 32", "10.0.0.0/8 le 32", "172.16.0.0/12 le 32"])
    edited = json.loads(json.dumps(config))
    session = edited["routers"][router]["neighbors"]["E" + router[1:]]
    old = session["import_map"]
    session["import_map"] = {
        "name": old["name"] + "-EDIT",
        "clauses": [
            _clause(1, "deny", matches=[{"kind": "prefix", "ranges": [bogon]}]),
            *old["clauses"],
        ],
    }
    return edited, {"edited_router": router}


# ---------------------------------------------------------------------------
# Policy-diverse network (the anti-fullmesh)
# ---------------------------------------------------------------------------

ROLES = ("customer", "peer", "provider")


def _random_prefix_range(rng: random.Random) -> str:
    length = rng.randrange(8, 25)
    address = rng.getrandbits(32) & ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
    dotted = ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return f"{dotted}/{length} le {rng.randrange(length, 33)}"


def _random_route_map(
    rng: random.Random, name: str, tag: str, first: Doc | None = None, extra_action: Doc | None = None
) -> Doc:
    """A unique filter: optional leading clause, 1–4 random prefix denies,
    then one permit setting a random local-pref and adding ``tag`` (plus
    ``extra_action``)."""
    clauses = [] if first is None else [first]
    for k in range(rng.randrange(1, 5)):
        clauses.append(
            _clause(
                10 * (len(clauses) + 1),
                "deny",
                matches=[{"kind": "prefix", "ranges": [_random_prefix_range(rng)]}],
            )
        )
    actions = [
        {"kind": "set-local-pref", "value": rng.randrange(50, 400)},
        {"kind": "add-community", "community": tag},
    ]
    if extra_action is not None:
        actions.append(extra_action)
    clauses.append(_clause(10 * (len(clauses) + 1), actions=actions))
    return {"name": name, "clauses": clauses}


def policy_diverse(n: int, seed: int) -> tuple[Doc, Doc, Doc]:
    """(config, spec, manifest): ring + random chords, a unique filter per session.

    ``n`` routers ``R1..Rn`` form a ring plus ``2n`` random chords (``3n``
    internal peerings); every router has one external ``Ei`` with a seeded
    role.  Every session's import map, and every external session's export
    map, is unique (random prefix denies, random local-pref, a
    router-unique community tag).  Imports from peers/providers add
    65000:200; exports to peers/providers deny it first — the no-valley
    discipline.  No filter removes 65000:200, so "FromNonCustomer ⇒
    65000:200" is inductive and no non-customer route is exported to a
    non-customer.  ``E2`` is always a provider, so the property location
    ``R2->E2`` is a non-customer export.
    """
    if n < 8:
        raise ValueError("policy-diverse network needs at least 8 routers")
    rng = seeded_rng("policy-diverse", seed)
    peerings = {(i, i % n + 1) if i < i % n + 1 else (i % n + 1, i) for i in range(1, n + 1)}
    while len(peerings) < 3 * n:
        i, j = rng.sample(range(1, n + 1), 2)
        peerings.add((min(i, j), max(i, j)))
    internal: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for i, j in sorted(peerings):
        internal[i].append(j)
        internal[j].append(i)

    roles = {i: rng.choice(ROLES) for i in range(1, n + 1)}
    roles[2] = "provider"
    as_base = rng.randrange(1000, 30000)
    routers: Doc = {}
    for i in range(1, n + 1):
        tag = f"64512:{i}"
        non_customer = roles[i] != "customer"
        neighbors = {
            f"E{i}": _neighbor(
                as_base + i,
                _random_route_map(
                    rng,
                    f"R{i}-E{i}-IN",
                    tag,
                    extra_action={"kind": "add-community", "community": NON_CUSTOMER_TAG}
                    if non_customer
                    else None,
                ),
                _random_route_map(
                    rng,
                    f"R{i}-E{i}-OUT",
                    tag,
                    first=_clause(
                        10, "deny", matches=[{"kind": "community", "community": NON_CUSTOMER_TAG}]
                    )
                    if non_customer
                    else None,
                ),
            )
        }
        for j in sorted(internal[i]):
            neighbors[f"R{j}"] = _neighbor(
                INTERNAL_AS, _random_route_map(rng, f"R{i}-R{j}-IN", tag)
            )
        routers[f"R{i}"] = {"asn": INTERNAL_AS, "neighbors": neighbors}
    config = {
        "externals": {f"E{i}": as_base + i for i in range(1, n + 1)},
        "routers": routers,
    }
    non_customers = [i for i in range(1, n + 1) if roles[i] != "customer"]
    spec = _tagged_spec(
        "FromNonCustomer",
        [f"E{i}->R{i}" for i in non_customers],
        NON_CUSTOMER_TAG,
        "R2->E2",
        [f"R{i}->E{i}" for i in non_customers],
        "no-valley",
    )
    manifest = {"checks": safety_check_count(len(peerings), n)}
    return config, spec, manifest


def policy_diverse_bug(config: Doc, seed: int) -> tuple[Doc, Doc]:
    """(buggy config, manifest): ``ClearCommunities`` on one iBGP import.

    The seeded session's permit clause clears all communities before
    adding its tag, so a route that was FromNonCustomer loses 65000:200
    there.  Exactly one local check can see it: the import check at the
    receiving router on that edge.
    """
    rng = seeded_rng("policy-diverse-bug", seed)
    router = rng.choice(sorted(config["routers"]))
    peer = rng.choice(sorted(p for p in config["routers"][router]["neighbors"] if p.startswith("R")))
    buggy = json.loads(json.dumps(config))
    permit = buggy["routers"][router]["neighbors"][peer]["import_map"]["clauses"][-1]
    permit["actions"].insert(0, {"kind": "clear-communities"})
    return buggy, {"failing_edge": f"{peer}->{router}", "blamed_router": router}
