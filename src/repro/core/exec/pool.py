"""How a batch of local checks runs: the session loop and the process map.

:func:`run_in_sessions` is the one per-check loop — wall-budget expiry,
effective deadline, the owner's :class:`repro.smt.CheckSession`, the
check and its members — and the whole of the serial path.

The paper's deployment discharges local checks as separate processes, one
per device; :func:`run_checks_in_processes` is the reproduction of that
execution model, and the only parallel path the runtime has.  It chunks a
check list by owner router (:func:`repro.core.checks.check_owner`), ships
the immutable problem context — configuration, attribute universe,
ghosts, budgets, the run deadline — to each worker exactly once through
the pool initializer, and runs every chunk through the same loop on the
worker's own :class:`repro.smt.SessionPool`, so the shared encoding stays
hot within a chunk and the pool's query memo spans every chunk the worker
runs.  Outcomes (including counterexamples) are plain picklable
records and come back per chunk in the chunk's order, so callers
see results in input order regardless of scheduling.

Workers live for one call: nothing persists between batches on the
process side (sessions, learnt clauses, the query memo and term caches
are rebuilt per worker), and a query the serial path solves once is
solved once *per worker* — which is why ``--jobs`` pays off only when
per-check work is large; see the README's "When ``--jobs`` helps".

Process pools are not universally available (sandboxes without
semaphores, restricted spawn semantics) and a worker can die mid-run; any
failure of the *pool machinery* makes the call return ``None`` and the
scheduler re-runs the whole batch on the serial session path, which
computes identical outcomes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.core import checks as _checks
from repro.core.checks import check_owner, group_checks_by_owner, skipped_outcome, unit_outcome
from repro.smt.solver import SessionPool

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.bgp.config import NetworkConfig
    from repro.core.checks import CheckOutcome, LocalCheck
    from repro.lang.ghost import GhostAttribute
    from repro.lang.universe import AttributeUniverse


# Per-worker problem context, installed once by the pool initializer so the
# (comparatively large) config/universe payload is not re-pickled per task.
# Its last element is the worker's session pool: one per worker lifetime
# (= one batch), so the query memo spans the owner chunks the worker runs.
_WORKER_CONTEXT: tuple | None = None


def _init_worker(
    config: "NetworkConfig",
    universe: "AttributeUniverse",
    ghosts: tuple["GhostAttribute", ...],
    conflict_budget: int | None,
    deadline_s: float | None,
    run_deadline: float | None,
    check_start_hook: "Callable[[LocalCheck, float | None], None] | None",
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (
        config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
        SessionPool(),
    )
    # The parent's check-start hook (an injected fault), shipped rather than
    # inherited so it does not depend on the start method (fork copies it,
    # spawn would not).
    _checks.check_start_hook = check_start_hook


def run_in_sessions(
    checks: Sequence["LocalCheck"],
    config: "NetworkConfig",
    universe: "AttributeUniverse",
    ghosts: tuple["GhostAttribute", ...],
    conflict_budget: int | None,
    deadline_s: float | None,
    run_deadline: float | None,
    sessions: SessionPool,
) -> list["CheckOutcome"]:
    """Discharge ``checks`` in order, each on its owner's session.

    The one per-check loop: the serial path runs a whole batch through it
    on the context's persistent pool, a worker runs each of its chunks
    through it on the worker's pool.  A check whose query the pool's memo
    already holds never reaches its session (see
    :meth:`repro.core.checks.LocalCheck._discharge`).

    A check runs for its first member; once its class ``key`` has passed
    (:class:`repro.core.checks.LocalCheck`), each later member, of this
    check or another owner's, is answered as a memo hit without building
    its terms (:meth:`repro.core.checks.LocalCheck.passed_key_outcome`).
    Config, universe and ghosts are fixed for the call, so the set of
    passed keys needs no invalidation.  Only a pass fans out: each member
    of a failed or UNKNOWN check runs itself, for its own blame and
    witness.  Every member meets the wall budget, the fault hook and its
    own deadline; with none of them set, they are counted in one step.
    """
    outcomes: list["CheckOutcome"] = []
    append = outcomes.append
    get_session = sessions.get
    plain = _checks.check_start_hook is None and deadline_s is None and run_deadline is None
    passed: set[tuple] = set()
    for unit in checks:
        key = unit.key
        rows: list["CheckOutcome"] = []
        members = unit.expand()
        for check in members:
            # Effective per-check deadline: the tighter of the check budget and
            # what is left of the run's wall budget, from one clock sample.
            # ``run_deadline`` is absolute CLOCK_MONOTONIC, which is system-wide
            # on Linux, so a parent's timestamp is directly comparable in a
            # worker.  An expired budget short-circuits before any encoding.
            effective = deadline_s
            if run_deadline is not None:
                remaining = run_deadline - time.monotonic()
                if remaining <= 0:
                    rows += [skipped_outcome(c, "wall-budget") for c in (check, *members)]
                    break
                effective = remaining if effective is None else min(effective, remaining)
            session = get_session(check_owner(unit))
            if plain and key in passed and all(row.passed for row in rows):
                session.memo_hits += unit.size - len(rows)
                break
            if key in passed:
                outcome = check.passed_key_outcome(
                    config, universe, ghosts, conflict_budget, session, effective
                )
            else:
                outcome = check.run(
                    config, universe, ghosts, conflict_budget,
                    session=session, deadline_s=effective,
                )
                if key is not None and outcome.passed:
                    passed.add(key)
            rows.append(outcome)
        append(unit_outcome(unit, rows))
    return outcomes


def _run_chunk(payload: bytes) -> list["CheckOutcome"]:
    """Discharge one owner's pickled checks in this worker, sharing one
    session; outcomes come back in the chunk's order."""
    import pickle

    assert _WORKER_CONTEXT is not None, "worker initializer did not run"
    (
        config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
        sessions,
    ) = _WORKER_CONTEXT
    return run_in_sessions(
        pickle.loads(payload),
        config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
        sessions,
    )


def run_checks_in_processes(
    checks: Sequence["LocalCheck"],
    config: "NetworkConfig",
    universe: "AttributeUniverse",
    ghosts: tuple["GhostAttribute", ...],
    conflict_budget: int | None,
    jobs: int,
    deadline_s: float | None,
    run_deadline: float | None,
) -> "list[CheckOutcome] | None":
    """Run checks on a process pool; None if no pool could be used.

    Results come back in input order.  Failures of the *pool machinery*
    (no semaphore support, a worker dying, a chunk that does not pickle)
    degrade to ``None`` so the caller can rerun serially; genuine
    exceptions raised by a check itself still propagate.  ``deadline_s``
    is a per-check wall-clock budget and ``run_deadline`` the absolute ``time.monotonic()``
    end of the whole run; both are applied inside the workers, where checks
    that start after the run deadline resolve to UNKNOWN/``wall-budget``
    without touching a solver — as do, here in the parent, the chunks no
    worker had picked up by then.
    """
    # Imported here, not at module level: the serial path (every run
    # without --jobs) never pays for the process machinery at start-up.
    import pickle
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    chunks = list(group_checks_by_owner(checks).values())
    if not chunks:
        return []
    # Pickled here, before any worker exists, not in the pool's feeder
    # thread: an unpicklable payload then degrades to serial instead of
    # being confused with an exception a check raises in a worker.  It
    # fails as AttributeError (a function-local class) or TypeError (a
    # lock or other OS handle) as often as PicklingError.
    try:
        payloads = [pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL) for chunk in chunks]
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)),
            initializer=_init_worker,
            initargs=(
                config, universe, ghosts, conflict_budget, deadline_s,
                run_deadline, _checks.check_start_hook,
            ),
        )
        try:
            futures = [pool.submit(_run_chunk, payload) for payload in payloads]
            if run_deadline is not None:
                # Once the budget is spent, withdraw every chunk still
                # queued: it resolves here instead of being shipped to a
                # worker and back only to have each check skipped there.
                # Chunks already with a worker finish promptly through
                # run_in_sessions' own expiry check.
                remaining = max(0.0, run_deadline - time.monotonic())
                wait(futures, timeout=remaining, return_when=FIRST_EXCEPTION)
                for future in futures:
                    future.cancel()
            # A chunk keeps its checks in input order, so the input is
            # reassembled by taking each check's owner's next outcome.
            streams: dict[str | None, Iterator["CheckOutcome"]] = {}
            for chunk, future in zip(chunks, futures):
                if future.cancelled():
                    chunk_outcomes = [skipped_outcome(c, "wall-budget") for c in chunk]
                else:
                    chunk_outcomes = future.result()
                streams[check_owner(chunk[0])] = iter(chunk_outcomes)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return [next(streams[check_owner(check)]) for check in checks]
    except (OSError, BrokenProcessPool, pickle.PicklingError, EOFError, ImportError):
        return None
