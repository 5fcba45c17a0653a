"""Static analysis for the verifier's own soundness invariants.

Two of the repo's worst bugs were invariant violations no test caught
until the symptom surfaced: a config field missing from digest-based
change detection so ``reverify`` reused stale outcomes, and persisted
cache shapes changing without a ``CACHE_FORMAT`` bump.  This package
checks those invariants, and the deadline discipline of the hot paths,
statically on every commit:

* :mod:`repro.analysis.checkers.digest_coverage` — every field of a
  digest-bearing class is consumed by some digest computation;
* :mod:`repro.analysis.checkers.deadline_discipline` — hot-path loops
  sample deadlines; remaining-budget arithmetic is expiry-guarded;
* :mod:`repro.analysis.checkers.cache_format` — persisted shapes change
  only together with a ``CACHE_FORMAT`` bump (shape manifest).

Two other invariants are owned by the runtime.  An unpicklable payload
type degrades the process map to the recorded serial fallback
(:func:`repro.core.exec.pool.run_checks_in_processes`), and a test
round-trips a real instance of every payload type through pickle.  A
``--budget`` parsed and then dropped on the way to the solver cannot
happen: budgets and deadlines live only on
:class:`repro.core.exec.ExecutionContext`, which the scheduler reads, and
the forwarding under the scheduler is pinned by behaviour tests
(``tests/core/test_deadlines.py``).

Run via ``lightyear lint`` or ``python -m repro.analysis``: one pass that
parses every file once and hands the parsed files to each checker.
Findings are suppressible in place (``# repro: ignore[checker-id] --
reason``); any unsuppressed error fails the run.
"""

from repro.analysis.engine import discover_files, render_result, run_lint
from repro.analysis.findings import Checker, Finding, LintResult, Severity, SourceFile

__all__ = [
    "Checker",
    "Finding",
    "LintResult",
    "Severity",
    "SourceFile",
    "discover_files",
    "render_result",
    "run_lint",
]
