"""How a batch of local checks runs: the session loop and the process map.

:func:`run_in_sessions` is the one per-check loop — wall-budget expiry,
effective deadline, the owner's :class:`repro.smt.CheckSession`, the
check — and the whole of the serial path.

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
dataclasses and come back tagged with their original index, so callers
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
from typing import TYPE_CHECKING, Sequence

from repro.core.checks import check_owner, skipped_outcome
from repro.lang.transfer import set_transfer_cache_enabled, transfer_cache_enabled
from repro.smt.solver import SessionPool
from repro.testing import faults

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
    cache_enabled: bool,
    deadline_s: float | None,
    run_deadline: float | None,
    fault_plan: "faults.FaultPlan | None",
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = (
        config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
        SessionPool(),
    )
    # Mirror the parent's transfer-memoisation switch: workers rebuild
    # their own caches from the shipped config/universe (term graphs don't
    # pickle usefully), but a cache-off differential run must stay cache-off
    # end to end.
    set_transfer_cache_enabled(cache_enabled)
    # The parent's fault plan, shipped rather than inherited so injection
    # does not depend on the start method (fork copies it, spawn would not).
    faults.install(fault_plan)


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
    """
    outcomes: list["CheckOutcome"] = []
    for check in checks:
        # Effective per-check deadline: the tighter of the check budget and
        # what is left of the run's wall budget, from one clock sample.
        # ``run_deadline`` is absolute CLOCK_MONOTONIC, which is system-wide
        # on Linux, so a parent's timestamp is directly comparable in a
        # worker.  An expired budget short-circuits before any encoding.
        effective = deadline_s
        if run_deadline is not None:
            remaining = run_deadline - time.monotonic()
            if remaining <= 0:
                outcomes.append(skipped_outcome(check, "wall-budget"))
                continue
            effective = remaining if effective is None else min(effective, remaining)
        outcomes.append(
            check.run(
                config, universe, ghosts, conflict_budget,
                session=sessions.get(check_owner(check)), deadline_s=effective,
            )
        )
    return outcomes


def _run_chunk(
    indexed_checks: list[tuple[int, "LocalCheck"]],
) -> list[tuple[int, "CheckOutcome"]]:
    """Discharge one owner's checks in this worker, sharing one session."""
    assert _WORKER_CONTEXT is not None, "worker initializer did not run"
    (
        config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
        sessions,
    ) = _WORKER_CONTEXT
    outcomes = run_in_sessions(
        [check for __, check in indexed_checks],
        config, universe, ghosts, conflict_budget, deadline_s, run_deadline,
        sessions,
    )
    return [(index, outcome) for (index, __), outcome in zip(indexed_checks, outcomes)]


def chunk_by_owner(
    checks: Sequence["LocalCheck"],
) -> list[list[tuple[int, "LocalCheck"]]]:
    """Group (index, check) pairs by owner router, preserving first-seen order."""
    groups: dict[str | None, list[tuple[int, "LocalCheck"]]] = {}
    for index, check in enumerate(checks):
        groups.setdefault(check_owner(check), []).append((index, check))
    return list(groups.values())


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
    (no semaphore support, a worker dying, unpicklable payloads) degrade to
    ``None`` so the caller can rerun serially; genuine exceptions raised by
    a check itself still propagate.  ``deadline_s`` is a per-check
    wall-clock budget and ``run_deadline`` the absolute ``time.monotonic()``
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

    chunks = chunk_by_owner(checks)
    if not chunks:
        return []
    outcomes: list["CheckOutcome | None"] = [None] * len(checks)
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)),
            initializer=_init_worker,
            initargs=(
                config, universe, ghosts, conflict_budget,
                transfer_cache_enabled(), deadline_s, run_deadline,
                faults.active_plan(),
            ),
        )
        try:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            if run_deadline is not None:
                # Once the budget is spent, withdraw every chunk still
                # queued: it resolves here instead of being pickled to a
                # worker and back only to have each check skipped there.
                # Chunks already with a worker finish promptly through
                # run_in_sessions' own expiry check.
                remaining = max(0.0, run_deadline - time.monotonic())
                wait(futures, timeout=remaining, return_when=FIRST_EXCEPTION)
                for future in futures:
                    future.cancel()
            for chunk, future in zip(chunks, futures):
                if future.cancelled():
                    pairs = [(i, skipped_outcome(c, "wall-budget")) for i, c in chunk]
                else:
                    pairs = future.result()
                for index, outcome in pairs:
                    outcomes[index] = outcome
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return outcomes  # type: ignore[return-value]
    except (OSError, BrokenProcessPool, pickle.PicklingError, EOFError, ImportError):
        return None
