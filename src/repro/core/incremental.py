"""Incremental re-verification: only re-check what a config change touches.

Every local check reads a single router's policy (§4.2), and a §5
liveness proof is nothing but propagation checks plus §4 safety
sub-proofs — so "which cached outcomes does an edit to router ``R``
invalidate?" has one answer for every property kind: the checks *owned*
by ``R`` (:func:`repro.core.checks.check_owner`).  Import checks on edges
into ``R``, export and originate checks on edges out of it, in every
section of the proof; nothing else.  Owner-less checks (the ``I_l ⊆ P``
and ``C_n ⊆ P`` implications, owner ``None``) read only the property and
invariants, and ``None`` is never an edited router, so they are never
re-run for a config edit.  This is the incremental benefit §2 and §7
claim; the ablation benchmark measures the saving.

:class:`PropertyTracker` is that rule, written once.  Its cache is an
**owner index** — ``section → owner → [checks]`` and ``section → owner →
[outcomes]`` — where a safety property has the single section
``("safety",)`` and a liveness property has ``("prop",)``, ``("impl",)``
and one ``("sub", router)`` per path router.  What differs between the
kinds lives in a small *problem builder* beside the pipeline it describes
(:class:`repro.core.safety.SafetyProblem`,
:class:`repro.core.liveness.LivenessProblem`; the :class:`Problem`
protocol below): the predicates its universe must cover, check
generation per section — in full, or restricted to some owners — and
report assembly.  A run compares per-router digests (O(routers)) and then
touches only the invalidated owners' groups:
``IncrementalResult.checks_consulted`` counts the checks a run actually
examined, and a single-router edit consults exactly that router's groups.

Change detection covers more than router policies: the digest map carries
one extra **network-level** entry (:data:`NETWORK_DIGEST_KEY`) derived
from ``NetworkConfig.external_asns``.  External ASNs never belong to any
router's policy digest, yet they feed ``AttributeUniverse.from_config``
and AS-path reasoning, so a ``set_external_asn`` edit on an unchanged
topology invalidates every cached outcome.

A :class:`repro.core.workspace.Workspace` keeps one tracker per verified
property and persists its :meth:`~PropertyTracker.state_dict`.  The
stateless :func:`repro.core.safety.run_problem` (behind ``verify_safety``
/ ``verify_liveness``) runs the same problem builders from scratch and is
the reference the tracker is differentially tested against: after any
edit sequence its report must equal that one's on the edited
configuration.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Protocol, TypeVar

from repro.bgp.config import NetworkConfig
from repro.core.checks import CheckOutcome, LocalCheck, group_checks_by_owner
from repro.core.exec import ExecutionContext, GroupKey, Scheduler
from repro.core.report import DegradationReport, VerificationReport
from repro.core.safety import build_universe
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate
from repro.lang.universe import AttributeUniverse


# The reserved key carrying network-level identity (external ASNs) in a
# digest map.  A non-string sentinel: router names are strings (JSON
# configs accept arbitrary ones), so only a different type truly cannot
# collide — a router literally named "__network__" must not shadow it.
NETWORK_DIGEST_KEY = ("network",)

# UNKNOWN reasons that say "ran out of time", not "this problem is hard":
# ``deadline_s``/``wall_budget_s`` are deliberately outside the entry
# fingerprint, so an outcome they produced answers for that run only.
# ``conflicts`` is not here — the conflict budget *is* fingerprinted.
TIME_BOUND_REASONS = frozenset({"timeout", "wall-budget"})


def network_digest(config: NetworkConfig) -> str:
    """Digest of network-level verification inputs owned by no router.

    Today that is exactly ``external_asns``: external neighbors' AS numbers
    enter the attribute universe (``AttributeUniverse.from_config``) and
    AS-path reasoning, but appear in no :meth:`RouterConfig.digest`.
    """
    canon = tuple(sorted(config.external_asns.items()))
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def config_digests(config: NetworkConfig) -> dict:
    """Per-router policy digests plus the :data:`NETWORK_DIGEST_KEY` entry.

    This is the change-detection snapshot the tracker diffs: every input
    that can alter a cached outcome without altering the topology object
    graph is covered by some key.
    """
    digests: dict = config.policy_digests()
    digests[NETWORK_DIGEST_KEY] = network_digest(config)
    return digests


def diff_digests(old: dict, new: dict) -> set:
    """Keys whose digest differs between two snapshots (edits, adds, drops)."""
    changed = {key for key, digest in new.items() if old.get(key) != digest}
    changed.update(key for key in old if key not in new)
    return changed


def topology_changed(old: NetworkConfig, new: NetworkConfig) -> bool:
    """Whether two configs differ in routers or edges (check-set identity)."""
    return (
        new.topology.routers != old.topology.routers
        or new.topology.edges != old.topology.edges
    )


#: One part of a proof: ``("safety",)``, ``("prop",)``, ``("impl",)`` or
#: ``("sub", router)``.  A scheduler group key is ``(*section, owner)``.
Section = tuple


R_co = TypeVar("R_co", bound=VerificationReport, covariant=True)


class Problem(Protocol[R_co]):
    """What a driver needs to know about one property kind.

    ``prop`` and ``invariants`` are the two constructor arguments (the
    user's invariant map for safety, the optional interference-invariant
    dict for liveness); the tracker persists them verbatim and
    ``Workspace.load`` rebuilds the builder from them.
    """

    kind: str
    prop: Any
    invariants: Any

    def predicates(self) -> list[Predicate]:
        """Every predicate a check of this problem can mention — what the
        attribute universe it runs under must cover."""
        ...

    def checks(
        self, config: NetworkConfig, owners: set[str] | None = None
    ) -> dict[Section, list[LocalCheck]]:
        """Every section's checks — or, with ``owners``, only the checks
        those routers own (sections owning none may be omitted)."""
        ...

    def report(
        self,
        outcomes: dict[Section, list[CheckOutcome]],
        wall_time_s: float,
        degradation: DegradationReport,
    ) -> R_co:
        """Assemble the pipeline's report from per-section outcomes."""
        ...


@dataclass
class IncrementalResult:
    """A (re-)verification outcome plus cache accounting."""

    report: VerificationReport
    rerun_checks: int
    cached_checks: int
    # Checks whose cache entries this run individually examined or wrote.
    # This equals ``rerun_checks`` *by design* — cached groups are reused
    # wholesale, never inspected per-check — and that equality is the
    # O(changed-owner) claim: the pre-index digest walk examined every
    # cached check on every run.
    checks_consulted: int = 0

    @property
    def reuse_fraction(self) -> float:
        total = self.rerun_checks + self.cached_checks
        return self.cached_checks / total if total else 0.0


class PropertyTracker:
    """The owner-indexed outcome cache for one property, of either kind.

    This is the unit a :class:`repro.core.workspace.Workspace` keeps per
    verified property: the generated checks and every outcome stored per
    section, grouped by owner router, keyed by that router's configuration
    digest.  ``run`` with an updated :class:`NetworkConfig` re-runs

        {owner ∈ changed routers} ∪ {owners with no reusable outcome}

    in every section — all owners on ``full`` or a network-level
    (external-ASN) edit, and everything after a topology change, which
    resets the cache.  Cost is O(changed owner), not a walk over the
    outcome cache.  Changing the property or invariants requires a new
    tracker, a different conflict budget a new context — those inputs
    touch every check.

    A group whose last run ended in a time-bound UNKNOWN
    (:data:`TIME_BOUND_REASONS`) is reported but never reusable: the next
    run of this tracker, in-process or after ``save``/``load``, re-runs
    it.  Otherwise one degraded ``--wall-budget`` run would answer UNKNOWN
    for every later run of the same cache.

    Between runs the tracker also keeps the expensive state alive:

    * the context's ``sessions`` — one persistent :class:`SessionPool`
      keyed by owner router, shared by every section.  A rerun check is
      discharged against its owner's existing clause database, so only
      the *changed* transfer terms are encoded; owners whose digest is
      unchanged see no solver activity at all.
    * the attribute universe and generated checks, which are rebuilt only
      when a digest actually changed (and the universe object is swapped
      only when its *content* changed, keeping the symbolic-route and
      transfer caches hot).  ``universe_builds`` counts adoptions.

    The outcome index (but not the solver state) is what
    ``Workspace.save`` persists, which is why the tracker's whole cache is
    a few plain picklable dicts.
    """

    def __init__(
        self,
        context: ExecutionContext,
        config: NetworkConfig,
        problem: Problem,
        ghosts: tuple[GhostAttribute, ...] = (),
    ) -> None:
        self.context = context
        self.problem = problem
        self.ghosts = tuple(ghosts)
        self._config = config
        self._digests: dict = {}
        self._universe: AttributeUniverse | None = None
        self._checks: dict[Section, dict[str | None, list[LocalCheck]]] | None = None
        self._outcomes: dict[Section, dict[str | None, list[CheckOutcome]]] = {}
        # Group keys whose cached outcomes hold a time-bound UNKNOWN.
        self._time_bound: set[GroupKey] = set()
        self.universe_builds = 0
        self._ran = False

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict:
        """The picklable cache state ``Workspace.save`` persists."""
        return {
            "prop": self.problem.prop,
            "invariants": self.problem.invariants,
            "conflict_budget": self.context.conflict_budget,
            "config": self._config,
            "digests": self._digests,
            "checks": self._checks,
            "outcomes": self._outcomes,
            "time_bound": self._time_bound,
        }

    @classmethod
    def from_state(
        cls,
        context: ExecutionContext,
        problem: Problem,
        state: dict,
        ghosts: tuple[GhostAttribute, ...],
    ) -> "PropertyTracker":
        """Restore a tracker; ``problem`` was rebuilt from the state's
        ``prop``/``invariants`` by the caller, who knows the kind."""
        tracker = cls(context, state["config"], problem, ghosts)
        tracker._digests = state["digests"]
        tracker._checks = state["checks"]
        tracker._outcomes = state["outcomes"]
        tracker._time_bound = set(state["time_bound"])
        # The universe is deliberately not persisted (it is cheap to rescan
        # and references the live term graph); the first run after a load
        # rebuilds it, which does not touch any cached outcome.
        tracker._ran = True
        return tracker

    # -- the incremental run -------------------------------------------

    def _refresh_problem(
        self, config: NetworkConfig, changed: set[str], network_changed: bool
    ) -> dict[Section, dict[str | None, list[LocalCheck]]]:
        """Rebuild checks/universe only where a verification input changed.

        ``changed`` holds edited router names; ``network_changed`` flags a
        network-level edit (external ASNs), which rescans the universe but
        leaves the checks alone — checks carry predicates and route-map
        names, never ASNs.
        """
        if self._checks is None:
            self._checks = {
                section: group_checks_by_owner(checks)
                for section, checks in self.problem.checks(config).items()
            }
        elif changed:
            # Refresh only the edited owners' groups (their route-map
            # metadata or originations may have changed); everything else —
            # including every owner-less implication — carries over.
            fresh = self.problem.checks(config, owners=changed)
            for section, groups in self._checks.items():
                regrouped = group_checks_by_owner(fresh.get(section, []))
                for owner in changed:
                    if owner in groups:
                        groups[owner] = regrouped.get(owner, [])
        if self._universe is None or changed or network_changed:
            universe = build_universe(
                config, None, self.problem.predicates(), self.ghosts
            )
            if universe != self._universe:
                # Adopt only on content change; an equal universe keeps the
                # existing object so downstream value-keyed caches stay warm.
                self._universe = universe
                self.universe_builds += 1
        return self._checks

    def run(self, config: NetworkConfig, full: bool = False) -> IncrementalResult:
        """(Re-)verify against ``config``, reusing everything still valid."""
        start = time.perf_counter()
        if topology_changed(self._config, config):
            # Topology changes regenerate the check set; start over.
            self._universe = None
            self._checks = None
            self._outcomes = {}
            self._time_bound = set()
            self._digests = {}
            # Session reuse is always sound; this only bounds memory.
            self.context.sessions.clear()
        self._config = config

        new_digests = config_digests(config)
        changed = diff_digests(self._digests, new_digests)
        network_changed = NETWORK_DIGEST_KEY in changed
        changed.discard(NETWORK_DIGEST_KEY)
        sections = self._refresh_problem(config, changed, network_changed)
        universe = self._universe
        assert universe is not None

        # A network-level edit (external ASNs) changes the universe and
        # AS-path semantics under every cached outcome: rerun everything.
        everything = full or network_changed or not self._ran
        # The reverify mapping: one group per invalidated (section, owner),
        # in section/group order — "reverify after an edit" is just a
        # smaller mapping than "full verify", and the scheduler does not
        # care which it got.  One batch, so a process map overlaps chunks
        # across sections.
        stale: dict[GroupKey, list[LocalCheck]] = {
            (*section, owner): group
            for section, groups in sections.items()
            for owner, group in groups.items()
            if everything
            or owner in changed
            or owner not in self._outcomes.get(section, ())
            or (*section, owner) in self._time_bound
        }

        degradation = DegradationReport()
        result = Scheduler(self.context).run(
            stale, config, universe, self.ghosts, degradation
        )
        # Scatter fresh outcomes back into the owner index by group key.
        for key, fresh in result.items():
            self._outcomes.setdefault(key[:-1], {})[key[-1]] = fresh
            if any(o.unknown_reason in TIME_BOUND_REASONS for o in fresh):
                self._time_bound.add(key)
            else:
                self._time_bound.discard(key)
        self._digests = new_digests
        self._ran = True

        # Reports list outcomes in section/group order on every run, so a
        # reverify's report is laid out exactly like a first run's.
        by_section = {
            section: [o for owner in groups for o in self._outcomes[section][owner]]
            for section, groups in sections.items()
        }
        total = sum(len(outcomes) for outcomes in by_section.values())
        rerun = sum(len(group) for group in stale.values())
        return IncrementalResult(
            report=self.problem.report(
                by_section, time.perf_counter() - start, degradation
            ),
            rerun_checks=rerun,
            cached_checks=total - rerun,
            checks_consulted=rerun,
        )
