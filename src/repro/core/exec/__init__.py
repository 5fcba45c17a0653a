"""The unified execution runtime: plan → scheduler → backend.

Every verification path — ``verify_safety``/``run_checks``, the §5
liveness pipeline, the workspace's incremental tracker — builds
a :class:`CheckPlan` and hands it to a :class:`Scheduler` bound to an
:class:`ExecutionContext`.  The three layers:

* :mod:`repro.core.exec.plan` — *what* to run: keyed, stage-aware check
  groups (property-agnostic; "full verify", "reverify after edit", and
  "one sub-proof" are all just plans);
* :mod:`repro.core.exec.scheduler` — *when*: one dispatch loop owning
  deadlines, budgets, degradation recording, outcome ordering, and
  cross-stage pipelining;
* *how* — exactly two ways to run a batch: :class:`SerialBackend`
  (:mod:`repro.core.exec.backends`; in-process, one session per owner
  router, the default) and :func:`run_checks_in_processes`
  (:mod:`repro.core.exec.pool`; an owner-chunked per-batch process map,
  reached by ``--jobs N`` / ``parallel=N``, falling back to serial if the
  pool machinery fails).
"""

from repro.core.exec.backends import Backend, BatchRequest, SerialBackend
from repro.core.exec.context import ExecutionContext, resolve_jobs
from repro.core.exec.plan import CheckGroup, CheckPlan, GroupKey, Stage
from repro.core.exec.pool import run_checks_in_processes
from repro.core.exec.scheduler import GroupResult, PlanResult, Scheduler

__all__ = [
    "Backend",
    "BatchRequest",
    "CheckGroup",
    "CheckPlan",
    "ExecutionContext",
    "GroupKey",
    "GroupResult",
    "PlanResult",
    "Scheduler",
    "SerialBackend",
    "Stage",
    "resolve_jobs",
    "run_checks_in_processes",
]
