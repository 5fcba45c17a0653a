"""Static analysis for the verifier's own soundness invariants.

Three of the repo's worst bugs were invariant violations no test caught
until the symptom surfaced: an unpicklable payload type silently
degrading the process backend to serial (PR 3), a config field missing
from digest-based change detection so ``reverify`` reused stale
outcomes (PR 4), and persisted cache shapes changing without a
``CACHE_FORMAT`` bump (PRs 5-7).  This package checks those invariants
statically, on every commit:

* :mod:`repro.analysis.checkers.digest_coverage` — every field of a
  digest-bearing class is consumed by some digest computation;
* :mod:`repro.analysis.checkers.pickle_safety` — the object graph
  shipped to workers / persisted by ``Workspace.save`` stays picklable;
* :mod:`repro.analysis.checkers.deadline_discipline` — hot-path loops
  sample deadlines; remaining-budget arithmetic is expiry-guarded;
* :mod:`repro.analysis.checkers.cache_format` — persisted shapes change
  only together with a ``CACHE_FORMAT`` bump (shape manifest).

The fifth invariant — a ``--budget`` parsed and then dropped on the way
to the solver (PR 4) — is no longer a lint: budgets and deadlines live
only on :class:`repro.core.exec.ExecutionContext`, which the scheduler
reads, so there is no chain of parameters left to drop one from; the
forwarding that remains under the scheduler is pinned by behaviour tests
(``tests/core/test_deadlines.py``).

Run via ``lightyear lint`` or ``python -m repro.analysis``.  Findings
are suppressible in place (``# repro: ignore[checker-id] -- reason``)
and ratcheted through a committed baseline (``lint-baseline.json``).
"""

from repro.analysis.engine import LintOptions, discover_files, render_result, run_lint
from repro.analysis.findings import Finding, LintResult, Severity
from repro.analysis.registry import Checker, Project, all_checkers, register

__all__ = [
    "Checker",
    "Finding",
    "LintOptions",
    "LintResult",
    "Project",
    "Severity",
    "all_checkers",
    "discover_files",
    "register",
    "render_result",
    "run_lint",
]
