"""The session-oriented verification workspace — the stateful layer.

The library has two layers, and neither is a shim over the other.  The
*one-shot driver* (:func:`repro.core.safety.run_problem`, behind
``verify_safety`` and :func:`repro.core.liveness.verify_liveness`) is
stateless: build the problem, run every check, return a
:class:`~repro.core.report.VerificationReport`.  :class:`Workspace` is
the *stateful* layer over the same problem builders, the same scheduler
and the same report: it owns an owner-keyed :class:`SessionPool`, a
by-reference snapshot of the configuration's policy inputs (digested on
first need) and one :class:`~repro.core.incremental.PropertyTracker`
(owner-indexed outcomes and a covering universe) per verified property.
It *is* an :class:`ExecutionContext`: ``parallel``, the conflict budget
and the deadlines are fixed when it is opened and nowhere else (one
workspace, one budget), and it can be handed to a one-shot function as
``context=`` to share its sessions and limits.

    ws = Workspace(config, ghosts=(ghost,))
    report = ws.verify(prop, invariants)        # safety or liveness
    ws.apply(edited_config)
    for entry in ws.reverify():                 # O(changed owner) each
        report = entry.report
        print(report.summary(), report.rerun_checks, report.reused_checks)

``verify`` dispatches on the property type: a :class:`SafetyProperty`
runs the §4 pipeline under one invariant map, a :class:`LivenessProperty`
the §5 pipeline under an optional dict of interference invariant maps.
Re-verifying after ``apply`` — or simply calling ``verify`` again — re-runs
only the checks a config edit invalidated, and the report says how many
it re-ran and reused.  The one-shot driver is the tracker's reference in
the equivalence oracle (``tests/oracle.py``: incremental ≡ full ≡
cache-loaded).

**On-disk outcome cache.**  ``save(path)`` persists the digests and
outcome groups (:class:`~repro.core.report.GroupOutcomes`: stats rows,
non-passed and owner-less outcomes, folds) of every tracker — never the
checks, which are regenerated, nor solver state, nor the configuration.
The file is a header naming the format, the SHA-256 of the payload, and
the payload: one pickle of the configuration's digests, the ghost set's
fingerprint, the workspace's conflict budget and each tracker's state.
``Workspace.load(path, config, ghosts, conflict_budget=...)`` restores them
in a fresh process, for exactly the configuration, ghosts and budget it is
handed.  A second ``lightyear reverify --cache DIR`` invocation thus skips
the base run entirely and generates, runs and reads only the edited
owners' checks, on freshly built sessions.  A file of another format, or
whose payload digest does not match, is rejected before anything in it
is unpickled (one flipped bit could otherwise turn a cached FAILED into
PASSED); a cache saved for another configuration, ghost set or budget is
rejected with :class:`WorkspaceCacheMismatch`.  Outcomes that are UNKNOWN
only because a run ran out of *time* (``deadline_s``, ``wall_budget_s`` —
neither is part of the cache identity) are saved for the record but never
reused: the next run re-runs their groups.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

from repro.bgp.config import NetworkConfig
from repro.core.exec import ExecutionContext
from repro.core.incremental import (
    ConfigSnapshot,
    Problem,
    PropertyTracker,
    config_digests,
    diff_digests,
)
from repro.core.liveness import LivenessProblem
from repro.core.properties import InvariantMap, LivenessProperty, SafetyProperty
from repro.core.report import VerificationReport
from repro.core.safety import SafetyProblem
from repro.lang.ghost import GhostAttribute
from repro.lang.predicates import Predicate
from repro.record import Record


# Bump whenever the pickled cache layout changes; a loader never guesses.
# ``cache-shape.json`` records the layout of the current format, and a
# tier-1 test fails (printing the new record) when the two disagree.
# Format 2: CheckOutcome records ``unknown_reason`` (deadline/budget
# attribution), so format-1 outcomes would deserialize incompletely.
# Format 3: adds the integrity-checked per-owner solver-state section
# (kept learnt clauses keyed by preamble digest) for solver warm-start.
# Format 4: one tracker state shape for both property kinds (sectioned
# ``checks``/``outcomes`` owner indexes, ``time_bound`` group keys).
# Format 5: the solver-state section is gone (nothing solver-side is
# persisted) and a SHA-256 of the whole pickle follows it in the file.
# Format 6: a tracker persists ``groups`` (one GroupOutcomes per (section,
# owner)) instead of ``checks``/``outcomes`` objects, and no ``config``; the
# topology is a digest-map key; ``config`` is a nested, deflated pickle.
# Format 7: ``Edge`` is a NamedTuple (pickled as a tuple, not a dataclass
# state dict) and the pickled ``Topology`` holds adjacency only (no
# ``_edges`` set); every persisted property or outcome with an edge changes.
# Format 8: a ``LocalCheck`` stores an optional custom ``text`` instead of
# its ``description`` (rendered on demand from kind and edge).
# Format 9: sets pickle as sorted tuples (``Topology`` adjacency,
# ``RouterConfig.rr_clients``, a tracker's ``time_bound``), so a saved
# cache is byte-identical under every PYTHONHASHSEED.
# Format 10: the format is an ASCII header ahead of the seal, so nothing is
# unpickled before the digest holds; the payload holds no configuration, no
# ghosts and one conflict budget for the workspace, not one per tracker.
# Format 11: route-map match conditions are predicates, so every route-map
# digest names predicate classes; a format 10 cache is refused by its
# header, not reported as another configuration.
# Format 12: a group holds one stats row per generated check, which stands
# for all of its owner's edges in one class, and counts the edge checks in
# ``num_checks``; a check that did not pass keeps each member's outcome.
CACHE_FORMAT = 12
_PREFIX = b"lightyear-cache "
_HEADER = _PREFIX + b"%d\n" % CACHE_FORMAT
_DIGEST_LEN = hashlib.sha256().digest_size

# Entry kind -> the problem builder ``load`` rebuilds a tracker's problem
# with, from the persisted ``(prop, invariants)``.
_PROBLEM_KINDS: dict[str, Callable[[Any, Any], Problem]] = {
    SafetyProblem.kind: SafetyProblem,
    LivenessProblem.kind: LivenessProblem,
}


class WorkspaceCacheError(ValueError):
    """An on-disk workspace cache could not be used (unreadable, wrong
    format version, corrupt payload)."""


class WorkspaceCacheMismatch(WorkspaceCacheError):
    """The cache exists and parses, but was saved for a different
    configuration, ghost set, or spec (fingerprint mismatch)."""


class WorkspaceEntry(Record):
    """One property registered with a workspace: its tracker plus the most
    recent run's report (which counts the checks it re-ran and reused)."""

    kind: str  # "safety" | "liveness"
    property: SafetyProperty | LivenessProperty
    fingerprint: str
    tracker: PropertyTracker
    report: VerificationReport | None = None


# ---------------------------------------------------------------------------
# Content fingerprints (cache identity)
# ---------------------------------------------------------------------------


def _invariant_map_fp(
    invariants: InvariantMap | None,
) -> tuple[str, tuple[tuple[str, str], ...]] | None:
    """Canonical content of an invariant map (order-insensitive).

    Predicate ``repr``\\ s are content-determined record renderings, so
    this is stable across processes — the property pickled cache
    fingerprints need.
    """
    if invariants is None:
        return None
    return (
        repr(invariants.default),
        tuple(
            sorted(
                (str(loc), repr(invariants.get(loc)))
                for loc in invariants.overridden_locations()
            )
        ),
    )


def _ghosts_fp(ghosts: tuple[GhostAttribute, ...]) -> tuple[object, ...]:
    """Canonical, order-insensitive content of a ghost-attribute set."""
    return tuple(
        sorted(
            (
                g.name,
                g.originated_value,
                tuple(sorted(g.import_updates.items())),
                tuple(sorted(g.export_updates.items())),
            )
            for g in ghosts
        )
    )


def _entry_fingerprint(problem: Problem) -> str:
    """Content identity of one registered problem (never persisted:
    ``load`` recomputes it; the budget is the workspace's, one for all)."""
    invariants = problem.invariants
    invariants_fp: object
    if isinstance(invariants, dict):  # liveness: per-router interference maps
        invariants_fp = tuple(
            sorted(
                (router, _invariant_map_fp(inv)) for router, inv in invariants.items()
            )
        )
    else:
        invariants_fp = _invariant_map_fp(invariants)
    payload = (problem.kind, repr(problem.prop), invariants_fp)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# ---------------------------------------------------------------------------
# The workspace
# ---------------------------------------------------------------------------


class Workspace(ExecutionContext):
    """One verification session over one network configuration.

    Parameters
    ----------
    config:
        The parsed network (topology + per-router policies).  Validated on
        construction.
    ghosts:
        Ghost-attribute definitions available to properties and invariants.
    parallel:
        Worker-process count for independent local checks: an integer or
        ``"auto"`` (one per available CPU) maps each batch, chunked by
        owner router, over a per-batch process pool (the paper's
        per-device model, with a serial fallback); ``None``/``0``/``1``
        is the serial session path.
    conflict_budget:
        Per-check SAT conflict budget for everything this workspace runs;
        part of every entry's fingerprint and of the saved cache.
    deadline_s:
        Wall-clock cap, in seconds, for each individual check's solve;
        a check that exceeds it comes back UNKNOWN with reason
        ``timeout`` instead of hanging the run.
    wall_budget_s:
        Wall-clock cap for everything the workspace runs, counted from
        when it is opened (``run_deadline``); once spent, the remaining
        checks come back UNKNOWN with reason ``wall-budget`` and the
        report carries the partial results.  Neither deadline is part of
        a cache fingerprint — they bound execution, not the problem.

    The workspace is a context manager for its callers' convenience;
    ``close()`` has nothing to release (worker processes live for one
    batch, sessions need no teardown).
    """

    def __init__(
        self,
        config: NetworkConfig,
        ghosts: tuple[GhostAttribute, ...] = (),
        parallel: int | str | None = None,
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> None:
        self._setup(config, ghosts, parallel, conflict_budget, deadline_s, wall_budget_s)
        # Taken once per configuration; digested only when a save, an
        # apply or a second run needs the digests (``load`` and ``apply``
        # hold the digest map they compute at once instead).
        self._snapshot = ConfigSnapshot(config)

    def _setup(
        self,
        config: NetworkConfig,
        ghosts: tuple[GhostAttribute, ...],
        parallel: int | str | None,
        conflict_budget: int | None,
        deadline_s: float | None,
        wall_budget_s: float | None,
    ) -> None:
        """Everything a new workspace holds except its configuration's
        snapshot, which ``__init__`` takes and ``load`` already has."""
        config.require_valid()
        super().__init__(
            parallel,
            conflict_budget,
            deadline_s=deadline_s,
            wall_budget_s=wall_budget_s,
        )
        self.config = config
        self.ghosts = tuple(ghosts)
        self._entries: list[WorkspaceEntry] = []

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Nothing to release; kept so ``with``/``close()`` callers stay valid."""

    # -- registration --------------------------------------------------

    @property
    def entries(self) -> tuple[WorkspaceEntry, ...]:
        """Every property registered so far, in registration order."""
        return tuple(self._entries)

    def invariants(self, default: Predicate | None = None) -> InvariantMap:
        """A fresh invariant map over this network's topology."""
        return InvariantMap(self.config.topology, default=default)

    def _normalize(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None,
    ) -> tuple[Problem, str]:
        """(problem builder, fingerprint) for a request."""
        problem: Problem
        if isinstance(prop, SafetyProperty):
            if isinstance(invariants, dict):
                raise TypeError("safety properties take one invariant map")
            problem = SafetyProblem(
                prop,
                invariants
                if invariants is not None
                else InvariantMap(self.config.topology),
            )
        elif isinstance(prop, LivenessProperty):
            if invariants is not None and not isinstance(invariants, dict):
                raise TypeError(
                    "liveness properties take a dict of interference invariant "
                    "maps, not an invariant map"
                )
            problem = LivenessProblem(prop, invariants)
        else:
            raise TypeError(
                f"expected a SafetyProperty or LivenessProperty, got {prop!r}"
            )
        return problem, _entry_fingerprint(problem)

    def entry(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
    ) -> WorkspaceEntry | None:
        """The registered entry matching this exact problem, if any.

        Matching is by content fingerprint (property, invariants, and the
        workspace's budget), so it finds cache-loaded entries for freshly
        parsed, equal problems — object identity plays no part.
        """
        __, fingerprint = self._normalize(prop, invariants)
        return self._registered(fingerprint)

    def _registered(self, fingerprint: str) -> WorkspaceEntry | None:
        return next((e for e in self._entries if e.fingerprint == fingerprint), None)

    # -- verification --------------------------------------------------

    def _run_entry(self, entry: WorkspaceEntry) -> VerificationReport:
        """Run one entry's tracker against the current config."""
        entry.report = entry.tracker.run(self.config, self._snapshot)
        return entry.report

    def verify(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
    ) -> VerificationReport:
        """Verify a property against the current configuration.

        Dispatches on the property type: a :class:`SafetyProperty` runs
        the §4 pipeline (``invariants`` supplies the user's network
        invariants, defaulting to ``True`` everywhere), a
        :class:`LivenessProperty` the §5 pipeline (``invariants`` then
        optionally maps path routers to the invariant maps proving their
        no-interference sub-proofs).

        The first ``verify`` of a property runs every generated check and
        caches the outcomes in an owner index; any later ``verify`` of the
        same property — including after :meth:`apply` — re-runs only what
        changed, exactly like :meth:`reverify`.  Changing the invariants
        registers a separate entry (they touch every check).  Returns the
        run's report, which the matching :attr:`entries` element keeps.
        """
        problem, fingerprint = self._normalize(prop, invariants)
        entry = self._registered(fingerprint)
        if entry is None:
            entry = WorkspaceEntry(
                kind=problem.kind,
                property=prop,
                fingerprint=fingerprint,
                tracker=PropertyTracker(self, problem, self.ghosts),
            )
            self._entries.append(entry)
        return self._run_entry(entry)

    def apply(self, edit: NetworkConfig) -> set[str]:
        """Stage an edited configuration for subsequent runs.

        Returns the set of changed digest keys (router names, plus the
        network-level / topology key if external ASNs / routers or edges
        changed).  The edit is digested here, once — a configuration
        mutated in place later goes unnoticed — and *not*
        re-validated — real incident configs are routinely inconsistent in
        ways the symbolic pipeline tolerates (e.g. a stale ``remote-as``
        after :meth:`NetworkConfig.set_external_asn`).  A configuration
        read from a file was checked by the one builder that made it
        (:func:`repro.bgp.configjson.config_from_doc`); for one built in
        code, call :meth:`NetworkConfig.require_valid` first.  Topology
        changes are allowed and reset the affected trackers' caches on
        their next run.
        """
        snapshot = ConfigSnapshot.of_digests(config_digests(edit))
        changed = diff_digests(self._snapshot.digests(), snapshot.digests())
        self.config, self._snapshot = edit, snapshot
        return changed

    def reverify(
        self, entries: "list[WorkspaceEntry] | None" = None
    ) -> list[WorkspaceEntry]:
        """Re-verify registered properties against the current config.

        Each entry re-runs only the owner groups its tracker's digest diff
        invalidated (O(changed owner)); the returned entries carry the new
        reports.  By default
        every registered property runs; pass ``entries`` (from
        :meth:`entry`/:attr:`entries`) to re-verify a subset — the CLI
        uses this so a cache holding more properties than the requested
        spec answers only for the spec.
        """
        selected = list(self._entries) if entries is None else list(entries)
        for entry in selected:
            self._run_entry(entry)
        return selected

    # -- persistence ---------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> None:
        """Persist digests and outcome groups to ``path``.

        The file is the format header, the SHA-256 of the payload, and the
        payload: the configuration's digests, the ghost set's fingerprint,
        the conflict budget and every tracker's state.  :meth:`load`
        refuses any other configuration, ghost set or budget.  Nothing
        solver-side is persisted (session encodings are process-local).
        """
        import pickle

        state = {
            "config_digests": self._snapshot.digests(),
            "ghosts_fp": _ghosts_fp(self.ghosts),
            "conflict_budget": self.conflict_budget,
            "entries": [
                {"kind": entry.kind, "state": entry.tracker.state_dict()}
                for entry in self._entries
            ],
        }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so a crashed save never leaves a truncated
        # cache for the next invocation to trip over.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(target.parent), prefix=target.name, suffix=".tmp"
        )
        try:
            payload = pickle.dumps(state, protocol=5)
            with os.fdopen(fd, "wb") as handle:
                handle.write(_HEADER + hashlib.sha256(payload).digest() + payload)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load(
        cls,
        path: str | os.PathLike[str],
        config: NetworkConfig,
        ghosts: tuple[GhostAttribute, ...] = (),
        *,
        parallel: int | str | None = None,
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> "Workspace":
        """Restore a workspace (outcome caches included) from :meth:`save`.

        The cache answers only for the ``config``, ``ghosts`` and
        ``conflict_budget`` it is handed, which must be the saved ones —
        :class:`WorkspaceCacheMismatch` otherwise, so a cache can never
        silently answer for a different network, ghost set or budget.
        Outcomes saved between an ``apply`` and its ``reverify`` answer
        for the digests their tracker kept, and are diffed, not trusted.
        The header is read first, then the payload digest is checked, and
        only then is anything unpickled.  Execution parameters
        (``parallel``, deadlines) are not part of the cache identity; pass
        whatever this process should use.  A ``wall_budget_s`` is spent
        from before the file is read.
        """
        import pickle

        workspace = cls.__new__(cls)
        workspace._setup(
            config, tuple(ghosts), parallel, conflict_budget, deadline_s, wall_budget_s
        )
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise WorkspaceCacheError(f"cannot read workspace cache: {exc}") from exc
        if not raw.startswith(_HEADER):
            named, newline, __ = raw.partition(b"\n")
            found = (
                f"has format {named[len(_PREFIX):].decode(errors='replace')}"
                if newline and named.startswith(_PREFIX)
                else "has no format header"
            )
            raise WorkspaceCacheError(
                f"workspace cache at {path} {found}, this build reads format "
                f"{CACHE_FORMAT}; delete it and rerun"
            )
        seal = raw[len(_HEADER):len(_HEADER) + _DIGEST_LEN]
        payload = raw[len(_HEADER) + _DIGEST_LEN:]
        # A flipped bit can leave a *valid* pickle with a different verdict
        # inside, so nothing is unpickled unless the payload digest holds.
        if hashlib.sha256(payload).digest() != seal:
            raise WorkspaceCacheError(
                f"workspace cache at {path} is corrupt: payload digest mismatch"
            )
        # An intact file of this format can still have the wrong shape
        # (written by a diverged build); the caller must see
        # WorkspaceCacheError, never a raw KeyError/TypeError.
        try:
            state = pickle.loads(payload)
            if _ghosts_fp(workspace.ghosts) != state["ghosts_fp"]:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} was saved with different ghost "
                    f"definitions; delete it or rerun without the cache"
                )
            if conflict_budget != state["conflict_budget"]:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} holds outcomes decided under "
                    f"conflict budget {state['conflict_budget']}, not "
                    f"{conflict_budget}; delete it or rerun without the cache"
                )
            digests = config_digests(config)
            if digests != state["config_digests"]:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} was saved for a different "
                    f"configuration (policy digests differ); delete it or rerun "
                    f"without the cache"
                )
            workspace._snapshot = ConfigSnapshot.of_digests(digests)
            for doc in state["entries"]:
                kind = doc["kind"]
                tracker_state = doc["state"]
                if kind not in _PROBLEM_KINDS:
                    raise WorkspaceCacheError(
                        f"workspace cache at {path} holds an unknown entry kind "
                        f"{kind!r}"
                    )
                problem = _PROBLEM_KINDS[kind](
                    tracker_state["prop"], tracker_state["invariants"]
                )
                workspace._entries.append(
                    WorkspaceEntry(
                        kind=kind,
                        property=problem.prop,
                        fingerprint=_entry_fingerprint(problem),
                        tracker=PropertyTracker.from_state(
                            workspace, problem, tracker_state, workspace.ghosts
                        ),
                    )
                )
        except WorkspaceCacheError:
            raise
        except (KeyError, TypeError, AttributeError, IndexError, ValueError, EOFError,
                pickle.PickleError) as exc:  # fmt: skip
            raise WorkspaceCacheError(
                f"workspace cache at {path} is corrupt: {exc!r}"
            ) from exc
        return workspace
