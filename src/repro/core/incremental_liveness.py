"""Incremental liveness re-verification: the §5 analogue of §4's reuse.

The §5 pipeline is the most expensive per-property path — each
no-interference sub-proof is a full-network §4 problem — yet a config edit
to one router invalidates only a sliver of it.  What each check reads
determines the invalidation contract:

* **propagation checks** read one filter on the witness path: an edit to
  router ``R`` invalidates only ``R``'s propagation group;
* each **no-interference sub-proof** is a full-network check set, so an
  edit to ``R`` invalidates ``R``'s owner group inside *every* sub-proof
  — and nothing else of them (including each sub-proof's owner-less
  implication check, which reads only the invariants);
* the final **implication** ``C_n ⊆ P`` reads only the property and
  constraints, which are fixed for a tracker's lifetime: it is *never*
  re-run for a config edit;
* a **network-level** edit (external ASNs, :data:`repro.core.incremental.
  NETWORK_DIGEST_KEY`) changes the attribute universe under every
  encoding and invalidates everything.

Like :class:`repro.core.incremental.SafetyTracker`, the cache is an owner
index per pipeline stage; :class:`LivenessTracker` is the per-property
unit a :class:`repro.core.workspace.Workspace` keeps (and persists to
disk), and the public :class:`IncrementalLivenessVerifier` remains as a
deprecated shim over a single-property workspace.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from repro.bgp.config import NetworkConfig
from repro.core.checks import (
    CheckOutcome,
    LocalCheck,
    generate_safety_checks,
    group_checks_by_owner,
)
from repro.core.exec import (
    CheckGroup,
    CheckPlan,
    Scheduler,
)
from repro.core.incremental import (
    DeprecatedVerifierShim,
    IncrementalSubstrate,
    diff_config_snapshot,
    topology_changed,
)
from repro.core.liveness import (
    LivenessReport,
    generate_liveness_checks,
    generate_propagation_checks,
    liveness_universe,
)
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import DegradationReport
from repro.core.safety import SafetyReport
from repro.lang.ghost import GhostAttribute
from repro.lang.universe import AttributeUniverse
from repro.smt.solver import SessionPool


@dataclass
class IncrementalLivenessResult:
    """A liveness re-verification outcome plus cache accounting."""

    report: LivenessReport
    rerun_checks: int
    cached_checks: int
    # Checks this run individually examined or wrote; cached groups are
    # reused wholesale, so this equals ``rerun_checks`` by design — the
    # O(changed-owner) witness, exactly like the safety-side counter.
    checks_consulted: int = 0

    @property
    def reuse_fraction(self) -> float:
        total = self.rerun_checks + self.cached_checks
        return self.cached_checks / total if total else 0.0


# Slot tags mapping a fresh outcome back to its cache cell.
_PROP = "prop"
_IMPL = "impl"
_SUB = "sub"


class LivenessTracker:
    """The owner-indexed §5 cache for one liveness property.

    The tracker caches the generated §5 check set and every outcome in an
    owner index per stage (propagation groups, the implication, each
    sub-proof's owner groups), keyed by per-router policy digests plus the
    network-level digest.  ``run`` with an updated :class:`NetworkConfig`
    (same topology) re-runs only what the edit invalidated; cost is
    O(changed owner), not a walk over the cache.  Changing the property or
    the caller-supplied interference invariants requires a new tracker —
    those inputs touch every check.

    Between runs the tracker keeps the expensive state alive: the
    substrate's persistent owner-keyed :class:`SessionPool` (shared by
    propagation, implication, and all sub-proof checks), the covering
    universe (swapped only on content change; ``universe_builds`` counts
    adoptions), and the generated check groups.  The outcome index is
    plain picklable dicts — what ``Workspace.save`` persists.
    """

    kind = "liveness"

    def __init__(
        self,
        substrate: IncrementalSubstrate,
        config: NetworkConfig,
        prop: LivenessProperty,
        interference_invariants: dict[str, InvariantMap] | None = None,
        ghosts: tuple[GhostAttribute, ...] = (),
        conflict_budget: int | None = None,
    ) -> None:
        self.substrate = substrate
        self.prop = prop
        self.interference_invariants = interference_invariants
        self.ghosts = tuple(ghosts)
        self.conflict_budget = conflict_budget
        self._config = config
        self._digests: dict = {}
        self._universe: AttributeUniverse | None = None
        # The owner indexes, one per pipeline stage.
        self._prop_groups: dict[str | None, list[LocalCheck]] | None = None
        self._implication: LocalCheck | None = None
        self._sub_properties: dict[str, SafetyProperty] = {}
        self._sub_invariants: dict[str, InvariantMap] = {}
        self._sub_groups: dict[str, dict[str | None, list[LocalCheck]]] = {}
        # Outcome caches, mirroring the index shapes above.
        self._prop_outcomes: dict[str | None, list[CheckOutcome]] = {}
        self._impl_outcome: CheckOutcome | None = None
        self._sub_outcomes: dict[str, dict[str | None, list[CheckOutcome]]] = {}
        self.universe_builds = 0
        self._ran = False

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict:
        """The picklable cache state ``Workspace.save`` persists."""
        return {
            "prop": self.prop,
            "interference_invariants": self.interference_invariants,
            "conflict_budget": self.conflict_budget,
            "config": self._config,
            "digests": self._digests,
            "prop_groups": self._prop_groups,
            "implication": self._implication,
            "sub_properties": self._sub_properties,
            "sub_invariants": self._sub_invariants,
            "sub_groups": self._sub_groups,
            "prop_outcomes": self._prop_outcomes,
            "impl_outcome": self._impl_outcome,
            "sub_outcomes": self._sub_outcomes,
        }

    @classmethod
    def from_state(
        cls,
        substrate: IncrementalSubstrate,
        state: dict,
        ghosts: tuple[GhostAttribute, ...],
    ) -> "LivenessTracker":
        tracker = cls(
            substrate,
            state["config"],
            state["prop"],
            state["interference_invariants"],
            ghosts,
            state["conflict_budget"],
        )
        tracker._digests = state["digests"]
        tracker._prop_groups = state["prop_groups"]
        tracker._implication = state["implication"]
        tracker._sub_properties = state["sub_properties"]
        tracker._sub_invariants = state["sub_invariants"]
        tracker._sub_groups = state["sub_groups"]
        tracker._prop_outcomes = state["prop_outcomes"]
        tracker._impl_outcome = state["impl_outcome"]
        tracker._sub_outcomes = state["sub_outcomes"]
        tracker._ran = True
        return tracker

    # -- the incremental run -------------------------------------------

    def run(self, config: NetworkConfig, full: bool = False) -> IncrementalLivenessResult:
        """(Re-)verify against ``config``, reusing everything still valid."""
        if topology_changed(self._config, config):
            # Topology changes regenerate the check set; start over.
            self._universe = None
            self._prop_groups = None
            self._implication = None
            self._sub_groups = {}
            self._prop_outcomes = {}
            self._impl_outcome = None
            self._sub_outcomes = {}
            self._digests = {}
            self.substrate._reset_substrate()
        self._config = config
        return self._run(config, full=full or not self._ran)

    def _refresh_problem(
        self, config: NetworkConfig, changed: set[str], network_changed: bool
    ) -> None:
        """Rebuild universe/check groups only where a digest changed."""
        if self._universe is None or changed or network_changed:
            universe = liveness_universe(
                config, self.prop, self.interference_invariants, self.ghosts
            )
            if universe != self._universe:
                # Adopt only on content change; an equal universe keeps the
                # object so downstream value-keyed caches stay warm.
                self._universe = universe
                self.universe_builds += 1
        if self._prop_groups is None:
            checks = generate_liveness_checks(
                config, self.prop, self.interference_invariants
            )
            self._prop_groups = group_checks_by_owner(checks.propagation)
            self._implication = checks.implication
            self._sub_properties = checks.subproof_properties
            self._sub_invariants = checks.subproof_invariants
            self._sub_groups = {
                router: group_checks_by_owner(sub_checks)
                for router, sub_checks in checks.subproof_checks.items()
            }
        elif changed:
            # Refresh only the edited owners' groups (their route-map
            # metadata may have changed): the edited owners' propagation
            # checks, and their group inside every sub-proof.  The
            # implication and every other group carry over untouched.
            fresh_prop = group_checks_by_owner(
                generate_propagation_checks(config, self.prop)
            )
            for owner in changed:
                if owner in self._prop_groups:
                    self._prop_groups[owner] = fresh_prop.get(owner, [])
            for router, groups in self._sub_groups.items():
                safety_prop = self._sub_properties[router]
                fresh_sub = group_checks_by_owner(
                    generate_safety_checks(
                        config,
                        self._sub_invariants[router],
                        safety_prop.location,
                        safety_prop.predicate,
                        owners=changed,
                    )
                )
                for owner in changed:
                    if owner in groups:
                        groups[owner] = fresh_sub.get(owner, [])

    def _run(self, config: NetworkConfig, full: bool) -> IncrementalLivenessResult:
        start = time.perf_counter()
        self.prop.validate_against(config.topology)
        new_digests, changed, network_changed = diff_config_snapshot(
            self._digests, config
        )
        self._refresh_problem(config, changed, network_changed)
        universe = self._universe
        prop_groups = self._prop_groups
        implication = self._implication
        assert universe is not None and prop_groups is not None
        assert implication is not None

        if full or network_changed:
            rerun_prop = set(prop_groups)
            rerun_impl = True
            rerun_sub = {
                router: set(groups) for router, groups in self._sub_groups.items()
            }
        else:
            # O(changed owner): edited routers' groups in every stage, plus
            # any group with no cached outcome yet (post-topology-reset);
            # the implication is never invalidated by a config edit.
            rerun_prop = {o for o in changed if o in prop_groups}
            rerun_prop |= {o for o in prop_groups if o not in self._prop_outcomes}
            rerun_impl = self._impl_outcome is None
            rerun_sub = {}
            for router, groups in self._sub_groups.items():
                cached = self._sub_outcomes.get(router, {})
                rerun_sub[router] = {o for o in changed if o in groups}
                rerun_sub[router] |= {o for o in groups if o not in cached}

        # One single-stage plan for everything invalidated: group keys map
        # each outcome block back to its cache cell, and a one-round batch
        # lets a process map overlap chunks across pipeline stages.
        plan_groups: list[CheckGroup] = []
        for owner, group in prop_groups.items():
            if owner in rerun_prop:
                plan_groups.append(
                    CheckGroup((_PROP, owner), tuple(group), "reverify")
                )
        if rerun_impl:
            plan_groups.append(
                CheckGroup((_IMPL, None), (implication,), "reverify")
            )
        for router, groups in self._sub_groups.items():
            for owner, group in groups.items():
                if owner in rerun_sub[router]:
                    plan_groups.append(
                        CheckGroup((_SUB, router, owner), tuple(group), "reverify")
                    )
        plan = CheckPlan(groups=tuple(plan_groups))

        substrate = self.substrate
        degradation = DegradationReport()
        result = Scheduler(substrate).run(
            plan,
            config,
            universe,
            self.ghosts,
            conflict_budget=self.conflict_budget,
            run_deadline=substrate._begin_run_deadline(),
            degradation=degradation,
        )
        fresh = result.outcomes

        # Scatter fresh outcomes back into the owner indexes by group key.
        for owner in rerun_prop:
            key = (_PROP, owner)
            self._prop_outcomes[owner] = (
                result.group(key) if key in result.results else []
            )
        if rerun_impl:
            self._impl_outcome = result.group((_IMPL, None))[0]
        for router, owners in rerun_sub.items():
            cache = self._sub_outcomes.setdefault(router, {})
            for owner in owners:
                key = (_SUB, router, owner)
                cache[owner] = (
                    result.group(key) if key in result.results else []
                )
        self._digests = new_digests
        self._ran = True

        assert self._impl_outcome is not None
        report = LivenessReport(
            property=self.prop,
            propagation_outcomes=[
                o for owner in prop_groups for o in self._prop_outcomes[owner]
            ],
            implication_outcome=self._impl_outcome,
            interference_reports={
                router: SafetyReport(
                    property=self._sub_properties[router],
                    outcomes=[
                        o
                        for owner in groups
                        for o in self._sub_outcomes[router][owner]
                    ],
                    wall_time_s=0.0,
                )
                for router, groups in self._sub_groups.items()
            },
            wall_time_s=time.perf_counter() - start,
            degradation=degradation,
        )
        total = len(report.propagation_outcomes) + 1 + sum(
            r.num_checks for r in report.interference_reports.values()
        )
        return IncrementalLivenessResult(
            report=report,
            rerun_checks=len(fresh),
            cached_checks=total - len(fresh),
            checks_consulted=plan.num_checks,
        )


class IncrementalLivenessVerifier(DeprecatedVerifierShim):
    """Deprecated: verify a liveness property once, then re-verify cheaply.

    .. deprecated::
        Use :class:`repro.core.workspace.Workspace` — ``verify(prop)``
        then ``apply(edited)`` / ``reverify()`` — which handles safety and
        liveness uniformly and adds an on-disk outcome cache
        (``save``/``load``).

    This shim builds a single-property workspace and delegates everything
    to it; results, counters, and pool behavior are identical to the
    pre-workspace implementation, and internal attributes
    (``sessions``, ``_prop_groups``, ``_impl_outcome``, ...) resolve
    against the underlying tracker and workspace.
    """

    def __init__(
        self,
        config: NetworkConfig,
        prop: LivenessProperty,
        interference_invariants: dict[str, InvariantMap] | None = None,
        ghosts: tuple[GhostAttribute, ...] = (),
        parallel: int | str | None = None,
        conflict_budget: int | None = None,
        sessions: SessionPool | None = None,
    ) -> None:
        warnings.warn(
            "IncrementalLivenessVerifier is deprecated; use repro.core."
            "workspace.Workspace (verify/apply/reverify) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.core.workspace import Workspace

        self._workspace = Workspace(
            config,
            ghosts=ghosts,
            parallel=parallel,
            conflict_budget=conflict_budget,
            sessions=sessions,
        )
        self.prop = prop
        self.interference_invariants = interference_invariants
        self.ghosts = tuple(ghosts)
        self._entry = self._workspace._ensure_entry(
            prop, interference_invariants=interference_invariants
        )
