"""The unified execution runtime: mapping → scheduler → serial loop | process map.

Every verification path — the one-shot ``run_problem`` behind
``verify_safety``/``verify_liveness``, the workspace's incremental
tracker — hands an ordered ``{key: checks}`` mapping to a
:class:`Scheduler` bound to an :class:`ExecutionContext`.  Local checks are independent (the paper's
§4.3/§5.3 theorems), so a run is one batch:

* :mod:`repro.core.exec.scheduler` — flatten the mapping, pick how the
  batch runs, record degradation, route outcomes back per key;
* :mod:`repro.core.exec.pool` — exactly two ways to run a batch:
  ``run_in_sessions`` (in-process, one session per owner router, the
  default) and :func:`run_checks_in_processes` (an owner-chunked per-batch
  process map, reached by ``--jobs N`` / a context's ``parallel=N`` when
  the batch spans more than one owner, falling back to serial if the pool
  machinery fails);
* :mod:`repro.core.exec.context` — the session pool, job count, budgets
  and run deadline: the only place any of them is set.
"""

from repro.core.exec.context import ExecutionContext, resolve_jobs
from repro.core.exec.pool import run_checks_in_processes
from repro.core.exec.scheduler import GroupKey, Scheduler

__all__ = [
    "ExecutionContext",
    "GroupKey",
    "Scheduler",
    "resolve_jobs",
    "run_checks_in_processes",
]
