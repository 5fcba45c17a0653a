"""A Minesweeper-style monolithic control-plane encoder.

Minesweeper [Beckett et al., SIGCOMM 2017] verifies a property by encoding
the *entire* network's converged state as one SMT problem: a symbolic route
record per edge, best-route selection constraints per router, and the
negated property; a SAT answer is a counterexample, UNSAT verifies.

This module reproduces that joint encoding over the same route-map model
and the same symbolic route representation Lightyear uses, so the Figure 3
comparison isolates the *architecture* (monolithic vs. modular), not the
encoding details:

* one symbolic route + "sent" flag per directed edge;
* per-router selection: the chosen route is one of the accepted imports
  and is weakly preferred over every accepted import (the BGP decision
  process, encoded symbolically);
* exports of the chosen route feed the out-edges;
* ghost attributes propagate exactly as in Lightyear, so both tools can
  check the same property.

On an N-router full mesh this creates Θ(N²) route records — the
super-linear growth of Figures 3a/3c — while Lightyear's largest single
check stays constant size (Figures 3b/3d).

Limitations: route origination (``Originate``) is not encoded; the Figure 3
workloads inject all routes from external neighbors, matching the paper's
synthetic setup.
"""

from __future__ import annotations

import time

from repro import smt
from repro.bgp.config import NetworkConfig
from repro.bgp.route import Route
from repro.bgp.topology import Edge
from repro.core.properties import SafetyProperty
from repro.core.safety import build_universe
from repro.lang.ghost import GhostAttribute
from repro.lang.symroute import SymbolicRoute
from repro.lang.transfer import transfer_export, transfer_import
from repro.record import Record
from repro.smt.solver import SolverStats
from repro.smt.terms import Term


class MinesweeperResult(Record):
    """Outcome of one monolithic verification."""

    verified: bool
    counterexample: Route | None
    counterexample_location: Edge | str | None
    stats: SolverStats
    wall_time_s: float
    timed_out: bool = False


def symbolic_prefer_or_eq(a: SymbolicRoute, b: SymbolicRoute) -> Term:
    """``a`` is weakly preferred over ``b`` by the BGP decision process.

    Lexicographic over (higher local-pref, shorter AS path, lower MED) —
    the attribute steps that matter in this model.
    """
    lp_gt = smt.bv_ult(b.local_pref, a.local_pref)
    lp_eq = smt.bv_eq(a.local_pref, b.local_pref)
    plen_lt = smt.bv_ult(a.as_path_len, b.as_path_len)
    plen_eq = smt.bv_eq(a.as_path_len, b.as_path_len)
    med_le = smt.bv_ule(a.med, b.med)
    return smt.or_(
        lp_gt,
        smt.and_(lp_eq, plen_lt),
        smt.and_(lp_eq, plen_eq, med_le),
    )


class MinesweeperVerifier:
    """Monolithic (whole-network) verification of safety properties."""

    def __init__(
        self,
        config: NetworkConfig,
        ghosts: tuple[GhostAttribute, ...] = (),
    ) -> None:
        self.config = config
        self.ghosts = tuple(ghosts)

    # ------------------------------------------------------------------

    def _encode(self, prop: SafetyProperty) -> tuple[smt.Solver, dict[Edge, SymbolicRoute], dict[str, SymbolicRoute]]:
        config = self.config
        topo = config.topology
        universe = build_universe(config, [prop.predicate], self.ghosts)
        solver = smt.Solver()

        # One route record and sent-flag per directed edge.  Routes model a
        # single symbolic destination, so all records share one prefix.
        global_addr = smt.bv_var("dst.addr", 32)
        global_len = smt.bv_var("dst.plen", 6)
        solver.add(smt.bv_ule(global_len, smt.bv_const(32, 6)))

        adv: dict[Edge, SymbolicRoute] = {}
        sent: dict[Edge, Term] = {}
        for edge in topo.sorted_edges():
            record = SymbolicRoute.fresh(f"adv.{edge.src}.{edge.dst}", universe)
            record = record.with_field(prefix_addr=global_addr, prefix_len=global_len)
            adv[edge] = record
            sent[edge] = smt.bool_var(f"sent.{edge.src}.{edge.dst}")

        # External neighbors may announce anything, except that ghost
        # attributes on *their* announcements are meaningless until an
        # import filter assigns them; no constraints needed.

        best: dict[str, SymbolicRoute] = {}
        has_best: dict[str, Term] = {}
        # Well-foundedness ranks: a chosen route must be supported by a
        # strictly shorter chain back to an external announcement.  Without
        # this, the stable-state constraints admit routes that circulate in
        # an iBGP cycle with no origin — Minesweeper breaks such loops with
        # history constraints; a hop-count rank is the standard equivalent.
        rank: dict[str, Term] = {
            router: smt.bv_var(f"rank.{router}", 16) for router in sorted(topo.routers)
        }
        for router in sorted(topo.routers):
            chosen = SymbolicRoute.fresh(f"best.{router}", universe)
            chosen = chosen.with_field(prefix_addr=global_addr, prefix_len=global_len)
            best[router] = chosen
            in_edges = list(topo.edges_to(router))

            imported: dict[Edge, tuple[Term, SymbolicRoute]] = {}
            for edge in in_edges:
                accepted, out = transfer_import(config, edge, adv[edge], self.ghosts)
                imported[edge] = (smt.and_(sent[edge], accepted), out)

            flags = {
                edge: smt.bool_var(f"choice.{router}.{edge.src}") for edge in in_edges
            }
            has = smt.or_(flags.values()) if in_edges else smt.false()
            has_best[router] = has

            for edge in in_edges:
                usable, out = imported[edge]
                # A choice flag implies the candidate is usable and equal to
                # the chosen record, and the chosen record beats everyone.
                solver.add(smt.implies(flags[edge], usable))
                solver.add(
                    smt.implies(flags[edge], _routes_equal(best[router], out))
                )
                if topo.is_external(edge.src):
                    solver.add(
                        smt.implies(
                            flags[edge], smt.bv_eq(rank[router], smt.bv_const(0, 16))
                        )
                    )
                else:
                    solver.add(
                        smt.implies(
                            flags[edge],
                            smt.bv_eq(
                                rank[router],
                                smt.bv_add(rank[edge.src], smt.bv_const(1, 16)),
                            ),
                        )
                    )
                    # Ranks stay below the router count, so the +1 chain
                    # cannot wrap around and fabricate a cycle.
                    solver.add(
                        smt.implies(
                            flags[edge],
                            smt.bv_ult(
                                rank[edge.src],
                                smt.bv_const(len(topo.routers), 16),
                            ),
                        )
                    )
            for edge in in_edges:
                usable, out = imported[edge]
                solver.add(
                    smt.implies(
                        smt.and_(has, usable),
                        symbolic_prefer_or_eq(best[router], out),
                    )
                )
            # If any candidate is usable, something must be chosen.
            solver.add(
                smt.implies(
                    smt.or_(imported[e][0] for e in in_edges) if in_edges else smt.false(),
                    has,
                )
            )

        # Out-edges carry the export of the chosen route.
        for router in sorted(topo.routers):
            for edge in topo.edges_from(router):
                accepted, out = transfer_export(config, edge, best[router], self.ghosts)
                may_send = smt.and_(has_best[router], accepted)
                solver.add(smt.iff(sent[edge], may_send))
                solver.add(
                    smt.implies(sent[edge], _routes_equal(adv[edge], out))
                )

        return solver, adv, best, sent, has_best  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def verify(
        self,
        prop: SafetyProperty,
        conflict_budget: int | None = None,
    ) -> MinesweeperResult:
        """Check a safety property monolithically.

        ``conflict_budget`` bounds SAT search effort (the stand-in for the
        paper's two-hour timeout).
        """
        start = time.perf_counter()
        solver, adv, best, sent, has_best = self._encode(prop)  # type: ignore[misc]

        location = prop.location
        if isinstance(location, Edge):
            solver.add(sent[location])
            target = adv[location]
        else:
            solver.add(has_best[location])
            target = best[location]
        solver.add(smt.not_(prop.predicate.to_term(target)))

        result = solver.check(conflict_budget=conflict_budget)
        wall = time.perf_counter() - start
        if result is smt.Result.UNKNOWN:
            return MinesweeperResult(
                verified=False,
                counterexample=None,
                counterexample_location=None,
                stats=solver.stats,
                wall_time_s=wall,
                timed_out=True,
            )
        if result is smt.Result.UNSAT:
            return MinesweeperResult(
                verified=True,
                counterexample=None,
                counterexample_location=None,
                stats=solver.stats,
                wall_time_s=wall,
            )
        model = solver.model()
        return MinesweeperResult(
            verified=False,
            counterexample=target.evaluate(model),
            counterexample_location=location,
            stats=solver.stats,
            wall_time_s=wall,
        )

    def encoding_size(self, prop: SafetyProperty) -> tuple[int, int]:
        """(variables, constraints) of the monolithic encoding (Fig. 3a).

        Builds the encoding and CNF without running SAT search.
        """
        solver, adv, best, sent, has_best = self._encode(prop)  # type: ignore[misc]
        location = prop.location
        if isinstance(location, Edge):
            solver.add(sent[location])
            target = adv[location]
        else:
            solver.add(has_best[location])
            target = best[location]
        solver.add(smt.not_(prop.predicate.to_term(target)))
        stats = solver.encode_only()
        return stats.num_vars, stats.num_clauses


def _routes_equal(a: SymbolicRoute, b: SymbolicRoute) -> Term:
    """Field-wise equality of two symbolic routes (same universe)."""
    parts = [
        smt.bv_eq(a.prefix_addr, b.prefix_addr),
        smt.bv_eq(a.prefix_len, b.prefix_len),
        smt.bv_eq(a.local_pref, b.local_pref),
        smt.bv_eq(a.med, b.med),
        smt.bv_eq(a.as_path_len, b.as_path_len),
    ]
    parts.extend(smt.iff(a.communities[c], b.communities[c]) for c in a.communities)
    parts.extend(
        smt.iff(a.as_path_members[n], b.as_path_members[n]) for n in a.as_path_members
    )
    parts.extend(smt.iff(a.ghosts[g], b.ghosts[g]) for g in a.ghosts)
    return smt.and_(parts)
