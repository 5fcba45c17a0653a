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
**owner index** — ``(*section, owner) →``
:class:`~repro.core.report.GroupOutcomes`, results only: checks are a pure
function of ``(problem, config, owner)`` — where a safety property has the
single section ``("safety",)`` and a liveness property has ``("prop",)``,
``("impl",)`` and one ``("sub", router)`` per path router.  What differs
between the kinds lives in a small *problem builder* beside the pipeline it describes
(:class:`repro.core.safety.SafetyProblem`,
:class:`repro.core.liveness.LivenessProblem`; the :class:`Problem`
protocol below): the predicates its universe must cover, check
generation per section — in full, or restricted to some owners — and
report assembly.  A run compares per-router digests (O(routers)) and then
touches only the invalidated owners' groups:
``IncrementalResult.checks_consulted`` counts the checks a run actually
examined, and a single-router edit consults exactly that router's groups.

Change detection covers more than router policies: the digest map carries
a **network-level** entry (:data:`NETWORK_DIGEST_KEY`) derived from
``NetworkConfig.external_asns`` — external ASNs never belong to any
router's policy digest, yet they feed ``AttributeUniverse.from_config``
and AS-path reasoning, so a ``set_external_asn`` edit on an unchanged
topology invalidates every cached outcome — and a **topology** entry
(:data:`TOPOLOGY_DIGEST_KEY`), whose change resets the cache.  The map is
persisted with the outcomes, so a restored tracker notices either too.

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
from functools import partial
from typing import Any, Protocol, Sequence, TypeVar

from repro.bgp.config import NetworkConfig
from repro.core.checks import LocalCheck, group_checks_by_owner
from repro.core.exec import ExecutionContext, GroupKey, Scheduler
from repro.core.report import DegradationReport, GroupOutcomes, VerificationReport
from repro.core.safety import build_universe
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate
from repro.lang.universe import AttributeUniverse


# The reserved key carrying network-level identity (external ASNs) in a
# digest map.  A non-string sentinel: router names are strings (JSON
# configs accept arbitrary ones), so only a different type truly cannot
# collide — a router literally named "__network__" must not shadow it.
NETWORK_DIGEST_KEY = ("network",)
# Likewise for what fixes the check set: which routers and edges exist.
TOPOLOGY_DIGEST_KEY = ("topology",)

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


def topology_digest(config: NetworkConfig) -> str:
    """Digest of the routers and directed edges."""
    return hashlib.sha256(repr(config.topology.canonical()).encode()).hexdigest()


def config_digests(config: NetworkConfig) -> dict:
    """Per-router policy digests plus the :data:`NETWORK_DIGEST_KEY` and
    :data:`TOPOLOGY_DIGEST_KEY` entries.

    This is the change-detection snapshot the tracker diffs (and the cache
    identity ``Workspace.load`` compares): every input that can alter a
    cached outcome is covered by some key.
    """
    digests: dict = config.policy_digests()
    digests[NETWORK_DIGEST_KEY] = network_digest(config)
    digests[TOPOLOGY_DIGEST_KEY] = topology_digest(config)
    return digests


def diff_digests(old: dict, new: dict) -> set:
    """Keys whose digest differs between two snapshots (edits, adds, drops)."""
    changed = {key for key, digest in new.items() if old.get(key) != digest}
    changed.update(key for key in old if key not in new)
    return changed


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
        groups: dict[Section, list[GroupOutcomes]],
        wall_time_s: float,
        degradation: DegradationReport,
    ) -> R_co:
        """Assemble the pipeline's report from per-section outcome groups."""
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


def _by_group_key(
    sections: dict[Section, list[LocalCheck]],
) -> dict[GroupKey, Sequence[LocalCheck]]:
    """Per-section check lists as one scheduler mapping, by owner group."""
    return {
        (*section, owner): group
        for section, checks in sections.items()
        for owner, group in group_checks_by_owner(checks).items()
    }


class PropertyTracker:
    """The owner-indexed outcome cache for one property, of either kind.

    This is the unit a :class:`repro.core.workspace.Workspace` keeps per
    verified property: every outcome stored per section, grouped by owner
    router, keyed by that router's configuration digest.  ``run`` with an
    updated :class:`NetworkConfig` re-runs

        {owner ∈ changed routers} ∪ {owners with no reusable outcome}

    in every section — all owners on a network-level (external-ASN) edit,
    and everything after a topology change, which resets the cache.  Cost
    is O(changed owner), not a walk over the outcome cache.  Changing the
    property or invariants requires a new tracker, a different conflict
    budget a new context — those inputs touch every check.

    Checks are not part of the cache: a run generates those of the groups
    it re-runs and nothing else; a report's per-check listing regenerates
    those of groups restored without them, if someone asks for it.

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
    * the attribute universe, which is rescanned only when a digest
      actually changed (and the universe object is swapped only when its
      *content* changed, keeping the symbolic-route and transfer caches
      hot).  ``universe_builds`` counts adoptions.

    The outcome index and its digests (but not the solver state) are what
    ``Workspace.save`` persists.
    """

    def __init__(
        self,
        context: ExecutionContext,
        problem: Problem,
        ghosts: tuple[GhostAttribute, ...] = (),
    ) -> None:
        self.context = context
        self.problem = problem
        self.ghosts = tuple(ghosts)
        # The snapshot the stored groups were decided under (none yet).
        self._digests: dict = {}
        self._universe: AttributeUniverse | None = None
        self._groups: dict[GroupKey, GroupOutcomes] = {}
        # Group keys whose stored outcomes hold a time-bound UNKNOWN.
        self._time_bound: set[GroupKey] = set()
        self.universe_builds = 0

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict:
        """The picklable cache state ``Workspace.save`` persists."""
        return {
            "prop": self.problem.prop,
            "invariants": self.problem.invariants,
            "conflict_budget": self.context.conflict_budget,
            "digests": self._digests,
            "groups": self._groups,
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
        ``prop``/``invariants`` by the caller, who knows the kind.  The
        groups answer for the configuration ``digests`` describes: the
        first ``run`` diffs it against the one it is given."""
        tracker = cls(context, problem, ghosts)
        tracker._digests = state["digests"]
        tracker._groups = state["groups"]
        tracker._time_bound = set(state["time_bound"])
        # The universe is deliberately not persisted (it is cheap to rescan
        # and references the live term graph); the first run after a load
        # rebuilds it, which does not touch any cached outcome.
        return tracker

    # -- the incremental run -------------------------------------------

    def _stale_checks(
        self, config: NetworkConfig, changed: set, everything: bool
    ) -> dict[GroupKey, Sequence[LocalCheck]]:
        """The checks this run must execute, by group key, in index order:
        the whole check set, or the regenerated groups of the owners that
        were edited or hold a time-bound UNKNOWN."""
        if everything:
            return _by_group_key(self.problem.checks(config))
        keys = [
            key for key in self._groups if key[-1] in changed or key in self._time_bound
        ]
        owners = {key[-1] for key in keys} - {None}
        fresh = (
            _by_group_key(self.problem.checks(config, owners=owners)) if owners else {}
        )
        for key in keys:
            if key[-1] is None:  # no generator call yields these: the group keeps them
                fresh[key] = self._groups[key].checks or ()
        return {key: fresh.get(key, ()) for key in keys}

    def _regenerate(
        self, config: NetworkConfig, missing: dict[GroupKey, GroupOutcomes]
    ) -> None:
        """The ``regenerate`` of groups restored without checks: one
        generator call for all of them, on a config they are valid for."""
        owners = {key[-1] for key in missing}
        regenerated = _by_group_key(self.problem.checks(config, owners=owners))
        for key, group in missing.items():
            group.checks = regenerated.get(key, [])

    def run(
        self, config: NetworkConfig, digests: dict | None = None
    ) -> IncrementalResult:
        """(Re-)verify against ``config``, reusing everything still valid;
        ``digests`` is its ``config_digests`` if the caller holds them."""
        start = time.perf_counter()
        new_digests = config_digests(config) if digests is None else digests
        changed = diff_digests(self._digests, new_digests)
        # A changed topology changes the check set, a network-level edit
        # (external ASNs) the universe and AS-path semantics under every
        # stored outcome: rerun everything.  A first run changes both.
        topology_changed = TOPOLOGY_DIGEST_KEY in changed
        network_changed = NETWORK_DIGEST_KEY in changed
        changed -= {TOPOLOGY_DIGEST_KEY, NETWORK_DIGEST_KEY}
        everything = topology_changed or network_changed
        if topology_changed and self._digests:
            self._universe = None
            # Session reuse is always sound; this only bounds memory.
            self.context.sessions.clear()

        # The reverify mapping: one group per invalidated (section, owner),
        # in section/group order — "reverify after an edit" is just a
        # smaller mapping than "full verify", and the scheduler does not
        # care which it got.  One batch, so a process map overlaps chunks
        # across sections.
        stale = self._stale_checks(config, changed, everything)
        if self._universe is None or changed or network_changed:
            universe = build_universe(
                config, None, self.problem.predicates(), self.ghosts
            )
            if universe != self._universe:
                # Adopt only on content change; an equal universe keeps the
                # existing object so downstream value-keyed caches stay warm.
                self._universe = universe
                self.universe_builds += 1
        assert self._universe is not None

        degradation = DegradationReport()
        result = Scheduler(self.context).run(
            stale, config, self._universe, self.ghosts, degradation
        )
        # Fold fresh outcomes into the owner index (a full run's *is* it).
        if everything:
            self._groups = {}
            self._time_bound = set()
        for key, outcomes in result.items():
            group = self._groups[key] = GroupOutcomes.of(stale[key], outcomes)
            if any(o.unknown_reason in TIME_BOUND_REASONS for o in group.kept.values()):
                self._time_bound.add(key)
            else:
                self._time_bound.discard(key)
        self._digests = new_digests

        # Reports list groups in section/group order on every run, so a
        # reverify's report is laid out exactly like a first run's.
        by_section: dict[Section, list[GroupOutcomes]] = {}
        missing: dict[GroupKey, GroupOutcomes] = {}
        regenerate = partial(self._regenerate, config, missing)
        for key, group in self._groups.items():
            by_section.setdefault(key[:-1], []).append(group)
            if group.checks is None:  # restored from a cache, not listed yet
                missing[key] = group
                group.regenerate = regenerate
        elapsed = time.perf_counter() - start
        report = self.problem.report(by_section, elapsed, degradation)
        rerun = sum(len(checks) for checks in stale.values())
        return IncrementalResult(
            report=report,
            rerun_checks=rerun,
            cached_checks=report.num_checks - rerun,
            checks_consulted=rerun,
        )
