"""The session-oriented verification workspace — the stateful layer.

The library has two layers, and neither is a shim over the other.  The
*one-shot driver* (:func:`repro.core.safety.run_problem`, behind
``verify_safety`` and :func:`repro.core.liveness.verify_liveness`) is
stateless: build the problem, run every check, return a report.
:class:`Workspace` is the *stateful* layer over the same problem builders
and the same scheduler: it owns the persistent substrate — an owner-keyed
:class:`SessionPool`, a by-reference snapshot of the configuration's
policy inputs (digested on first need), one covering attribute universe,
and an owner-indexed outcome store — once, the way an
incremental SAT solver exposes one long-lived solver object instead of
per-call functions.  It *is* an :class:`ExecutionContext`: ``parallel``,
the conflict budget and the deadlines are set when it is opened and
nowhere else (one workspace, one budget), and it can be handed to a
one-shot function as ``context=`` to share its sessions and limits.

    ws = Workspace(config, ghosts=(ghost,))
    report = ws.verify(prop, invariants)        # safety or liveness
    ws.apply(edited_config)
    for entry in ws.reverify():                 # O(changed owner) each
        print(entry.last_result.report.summary())

``verify`` is property-polymorphic: a :class:`SafetyProperty` runs the §4
pipeline, a :class:`LivenessProperty` the §5 pipeline, both against the
workspace's shared session pool.  Each verified property gets a persistent
:class:`repro.core.incremental.PropertyTracker` holding its owner-indexed
outcome cache, so re-verifying after ``apply`` — or simply calling
``verify`` again — consults only the checks a config edit invalidated.
The one-shot driver is the tracker's reference in the equivalence oracle
(``tests/oracle.py``: incremental ≡ full ≡ cache-loaded).

**On-disk outcome cache.**  ``save(path)`` persists the digests and
outcome groups (:class:`~repro.core.report.GroupOutcomes`: stats rows,
non-passed and owner-less outcomes, folds) of every tracker — never the
checks, which are regenerated, nor solver state — in a versioned file
keyed by a config+spec fingerprint and sealed by a SHA-256 of the whole
payload; ``Workspace.load(path, config=...)`` restores them in a fresh
process (the saved configuration is a nested pickle only ``load(path)``
without ``config=`` opens).  A second ``lightyear reverify --cache DIR``
invocation thus skips the base run entirely and generates, runs and reads
only the edited owners' checks, on freshly built sessions.  A file whose
payload digest does not match is rejected as corrupt before anything in it is
used (one flipped bit could otherwise turn a cached FAILED into PASSED);
a cache whose fingerprint does not match the offered configuration or
spec is rejected with :class:`WorkspaceCacheMismatch`.  Outcomes that
are UNKNOWN only because a run ran out of *time* (``deadline_s``,
``wall_budget_s`` — neither is part of the fingerprint) are saved for the
record but never reused: the next run re-runs their groups.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.bgp.config import NetworkConfig
from repro.core.exec import ExecutionContext
from repro.core.incremental import (
    ConfigSnapshot,
    IncrementalResult,
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
CACHE_FORMAT = 9
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


@dataclass
class WorkspaceStats:
    """Aggregated measurements across one or more verification runs."""

    num_checks: int = 0
    max_vars: int = 0
    max_clauses: int = 0
    wall_time_s: float = 0.0
    solve_time_s: float = 0.0

    def absorb(self, report: VerificationReport) -> None:
        self.num_checks += report.num_checks
        self.max_vars = max(self.max_vars, report.max_vars)
        self.max_clauses = max(self.max_clauses, report.max_clauses)
        self.wall_time_s += report.wall_time_s
        self.solve_time_s += report.solve_time_s


@dataclass
class WorkspaceEntry:
    """One property registered with a workspace: its tracker plus the most
    recent run's result (report + consultation counters)."""

    kind: str  # "safety" | "liveness"
    property: SafetyProperty | LivenessProperty
    fingerprint: str
    tracker: PropertyTracker
    last_result: IncrementalResult | None = None

    @property
    def report(self) -> VerificationReport | None:
        """The most recent run's report, if any."""
        return None if self.last_result is None else self.last_result.report


# ---------------------------------------------------------------------------
# Content fingerprints (cache identity)
# ---------------------------------------------------------------------------


def _invariant_map_fp(
    invariants: InvariantMap | None,
) -> tuple[str, tuple[tuple[str, str], ...]] | None:
    """Canonical content of an invariant map (order-insensitive).

    Predicate ``repr``\\ s are content-determined dataclass renderings, so
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


def _entry_fingerprint(problem: Problem, conflict_budget: int | None) -> str:
    """Content identity of one registered problem under the workspace's
    budget (never persisted: ``load`` recomputes it)."""
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
    payload = (problem.kind, repr(problem.prop), invariants_fp, conflict_budget)
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _declared_format(raw: bytes) -> object:
    """The ``format`` a cache file's pickle opens with, read from its first
    opcodes without building any object — an older format may hold objects
    this build's classes cannot rebuild (a format-6 ``Edge``).  ``None`` if
    the file does not open like a cache."""
    import pickletools

    try:
        opcodes = [arg for _, arg, _ in itertools.islice(pickletools.genops(raw), 8)]
    except Exception:
        return None
    if "format" not in opcodes:
        return None
    following = opcodes[opcodes.index("format") + 1:]
    # The key is followed by its memo slot (MEMOIZE, no argument), then the value.
    return next((arg for arg in following if arg is not None), None)


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
        Wall-clock cap for each ``verify``/``reverify`` run; once spent,
        the remaining checks come back UNKNOWN with reason
        ``wall-budget`` and the report carries the partial results.
        :meth:`ExecutionContext.set_run_deadline` instead pins one
        absolute deadline across several runs.  Neither deadline is part
        of a cache fingerprint — they bound execution, not the problem.

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
        problems = config.validate()
        if problems:
            raise ValueError("invalid network configuration: " + "; ".join(problems))
        super().__init__(
            parallel,
            conflict_budget,
            deadline_s=deadline_s,
            wall_budget_s=wall_budget_s,
        )
        self.config = config
        self.ghosts = tuple(ghosts)
        self.stats = WorkspaceStats()
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
        interference_invariants: dict[str, InvariantMap] | None,
    ) -> tuple[Problem, str]:
        """(problem builder, fingerprint) for a request."""
        problem: Problem
        if isinstance(prop, SafetyProperty):
            if interference_invariants is not None:
                raise TypeError(
                    "interference_invariants only applies to liveness properties"
                )
            if isinstance(invariants, dict):
                raise TypeError("safety properties take one invariant map")
            problem = SafetyProblem(
                prop,
                invariants
                if invariants is not None
                else InvariantMap(self.config.topology),
            )
        elif isinstance(prop, LivenessProperty):
            if interference_invariants is None and isinstance(invariants, dict):
                # Positional convenience: ws.verify(liveness_prop, {...}).
                interference_invariants = invariants
            elif invariants is not None:
                raise TypeError(
                    "liveness properties take interference_invariants, not an "
                    "invariant map"
                )
            problem = LivenessProblem(prop, interference_invariants)
        else:
            raise TypeError(
                f"expected a SafetyProperty or LivenessProperty, got {prop!r}"
            )
        return problem, _entry_fingerprint(problem, self.conflict_budget)

    def entry(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
        *,
        interference_invariants: dict[str, InvariantMap] | None = None,
    ) -> WorkspaceEntry | None:
        """The registered entry matching this exact problem, if any.

        Matching is by content fingerprint (property, invariants, and the
        workspace's budget), so it finds cache-loaded entries for freshly
        parsed, equal problems — object identity plays no part.
        """
        __, fingerprint = self._normalize(prop, invariants, interference_invariants)
        return self._registered(fingerprint)

    def _registered(self, fingerprint: str) -> WorkspaceEntry | None:
        return next((e for e in self._entries if e.fingerprint == fingerprint), None)

    # -- verification --------------------------------------------------

    def _run_entry(self, entry: WorkspaceEntry) -> IncrementalResult:
        """Run one entry's tracker against the current config."""
        result = entry.tracker.run(self.config, self._snapshot)
        entry.last_result = result
        self.stats.absorb(result.report)
        return result

    def verify(
        self,
        prop: SafetyProperty | LivenessProperty,
        invariants: InvariantMap | dict[str, InvariantMap] | None = None,
        *,
        interference_invariants: dict[str, InvariantMap] | None = None,
    ) -> VerificationReport:
        """Verify a property against the current configuration.

        Dispatches on the property type: a :class:`SafetyProperty` runs
        the §4 pipeline (``invariants`` supplies the user's network
        invariants, defaulting to ``True`` everywhere), a
        :class:`LivenessProperty` the §5 pipeline
        (``interference_invariants`` optionally maps path routers to the
        invariant maps proving their no-interference sub-proofs).

        The first ``verify`` of a property runs every generated check and
        caches the outcomes in an owner index; any later ``verify`` of the
        same property — including after :meth:`apply` — re-runs only what
        changed, exactly like :meth:`reverify`.  Changing the invariants
        registers a separate entry (they touch every check).  Returns the
        pipeline's report; the consultation counters live on the matching
        :attr:`entries` element's ``last_result``.
        """
        problem, fingerprint = self._normalize(prop, invariants, interference_invariants)
        entry = self._registered(fingerprint)
        if entry is None:
            entry = WorkspaceEntry(
                kind=problem.kind,
                property=prop,
                fingerprint=fingerprint,
                tracker=PropertyTracker(self, problem, self.ghosts),
            )
            self._entries.append(entry)
        return self._run_entry(entry).report

    def apply(self, edit: NetworkConfig) -> set[str]:
        """Stage an edited configuration for subsequent runs.

        Returns the set of changed digest keys (router names, plus the
        network-level / topology key if external ASNs / routers or edges
        changed).  The edit is digested here, once — a configuration
        mutated in place later goes unnoticed — and *not*
        re-validated — real incident configs are routinely inconsistent in
        ways the symbolic pipeline tolerates (e.g. a stale ``remote-as``
        after :meth:`NetworkConfig.set_external_asn`); callers that want
        strict checking run ``edit.validate()`` themselves, as the CLI
        does.  Topology changes are allowed and reset the affected
        trackers' caches on their next run.
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
        reports and consultation counters in ``last_result``.  By default
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

        The file is versioned and fingerprinted by configuration digests,
        ghost definitions, and the registered spec; :meth:`load` refuses a
        mismatch.  Nothing solver-side is persisted (session encodings are
        process-local).  The pickle is followed by its SHA-256, which
        :meth:`load` checks before using anything in the file.
        """
        state = {
            "format": CACHE_FORMAT,
            "config_digests": self._snapshot.digests(),
            "ghosts_fp": _ghosts_fp(self.ghosts),
            # A blob: only ``load(path)`` without ``config=`` rebuilds it.
            "config": zlib.compress(pickle.dumps(self.config, protocol=5), 1),
            "ghosts": self.ghosts,
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
                handle.write(payload + hashlib.sha256(payload).digest())
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
        config: NetworkConfig | None = None,
        ghosts: tuple[GhostAttribute, ...] | None = None,
        parallel: int | str | None = None,
        conflict_budget: int | None = None,
        deadline_s: float | None = None,
        wall_budget_s: float | None = None,
    ) -> "Workspace":
        """Restore a workspace (outcome caches included) from :meth:`save`.

        ``config``/``ghosts``/``conflict_budget`` default to the saved
        values; when supplied (the CLI passes the freshly parsed base
        configuration), they must match the saved ones —
        :class:`WorkspaceCacheMismatch` otherwise, so a cache can never
        silently answer for a different network, ghost set or budget.
        Outcomes saved between an ``apply`` and its ``reverify`` answer
        for the digests their tracker kept, and are diffed, not trusted.
        Execution parameters (``parallel``, deadlines) are not part of the
        fingerprint; pass whatever this process should use.
        """
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise WorkspaceCacheError(f"cannot read workspace cache: {exc}") from exc
        seal = hashlib.sha256(raw[:-_DIGEST_LEN]).digest()
        intact = seal == raw[-_DIGEST_LEN:]
        try:
            state = pickle.loads(raw)  # reads up to the pickle's end, not the seal
        except Exception as exc:  # unpickling garbage, or an older build's objects
            declared = _declared_format(raw)
            if declared is None or declared == CACHE_FORMAT:
                raise WorkspaceCacheError(
                    f"workspace cache at {path} is corrupt or not a cache: {exc}"
                ) from exc
            state = {"format": declared}
        if not isinstance(state, dict) or "format" not in state:
            raise WorkspaceCacheError(
                f"workspace cache at {path} is not a workspace cache"
            )
        if state["format"] != CACHE_FORMAT:
            raise WorkspaceCacheError(
                f"workspace cache at {path} has format {state['format']}, "
                f"this build reads format {CACHE_FORMAT}; delete it and rerun"
            )
        # Up to here only ``format`` was read, to tell an older build's
        # digest-less file from a damaged one.  A flipped bit can leave a
        # *valid* pickle with a different verdict inside, so nothing else
        # is used unless the payload digest holds.
        if not intact:
            raise WorkspaceCacheError(
                f"workspace cache at {path} is corrupt: payload digest mismatch"
            )
        # An intact file of this format can still have the wrong shape
        # (written by a diverged build); the caller must see
        # WorkspaceCacheError, never a raw KeyError/TypeError.
        try:
            if config is None:
                config = pickle.loads(zlib.decompress(state["config"]))
            if ghosts is None:
                ghosts = state["ghosts"]
            elif _ghosts_fp(tuple(ghosts)) != state["ghosts_fp"]:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} was saved with different ghost "
                    f"definitions; delete it or rerun without the cache"
                )
            # One workspace, one budget: the entries' common saved budget.
            saved = {doc["state"]["conflict_budget"] for doc in state["entries"]}
            if conflict_budget is None and len(saved) == 1:
                (conflict_budget,) = saved
            elif saved - {conflict_budget}:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {path} holds outcomes decided under "
                    f"conflict budget(s) {sorted(saved, key=repr)}, not "
                    f"{conflict_budget}; delete it or rerun without the cache"
                )
            workspace = cls.__new__(cls)
            workspace._setup(
                config, tuple(ghosts), parallel, conflict_budget, deadline_s, wall_budget_s
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
                        fingerprint=_entry_fingerprint(problem, conflict_budget),
                        tracker=PropertyTracker.from_state(
                            workspace, problem, tracker_state, workspace.ghosts
                        ),
                    )
                )
        except WorkspaceCacheError:
            raise
        except (KeyError, TypeError, AttributeError, IndexError, ValueError, EOFError,
                pickle.PickleError, zlib.error) as exc:  # fmt: skip
            raise WorkspaceCacheError(
                f"workspace cache at {path} is corrupt: {exc!r}"
            ) from exc
        return workspace
