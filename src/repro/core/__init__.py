"""Lightyear's core: modular control-plane verification.

The public entry point is :class:`Workspace`
(from :mod:`repro.core.workspace`): one session object owning the solver
pools and outcome caches, with a property-polymorphic ``verify``,
incremental ``apply``/``reverify``, and an on-disk outcome cache
(``save``/``load``).

    from repro.core import Workspace, SafetyProperty, InvariantMap

    ws = Workspace(config, ghosts=(from_isp1,))
    report = ws.verify(prop, invariants)   # SafetyProperty or LivenessProperty
    assert report.passed

Every run of every property kind returns one
:class:`VerificationReport`: the proof's sections (the §4 checks; or the
§5 propagation checks, one safety sub-proof per path router and the
final implication), each a list of outcome groups, plus how many checks
were re-run and how many reused.  There are two layers, and neither
wraps the other.  The free functions ``verify_safety``/``verify_liveness``
build a problem and hand it to the one-shot driver
(:func:`repro.core.safety.run_problem`): stateless — generate every
check, run it, report.  ``Workspace`` is the stateful layer over the same
problem builders and scheduler, and its incremental tracker
(:mod:`repro.core.incremental`) is held to the one-shot driver by the
test suite's equivalence oracle (``tests/oracle.py``).  How a run
executes (worker processes, budgets, deadlines) is an
:class:`repro.core.exec.ExecutionContext`: the ``context=`` of a free
function, or the workspace itself.

Invariant inference (:mod:`repro.core.inference`) and impact assessment
(:mod:`repro.core.scenario`) are imported from their own modules; no
``verify`` needs them, so the package does not load them.
"""

from repro.core.properties import (
    InvariantMap,
    LivenessProperty,
    Location,
    SafetyProperty,
)
from repro.core.checks import CheckKind, CheckOutcome, LocalCheck
from repro.core.counterexample import CheckFailure
from repro.core.safety import verify_safety
from repro.core.liveness import verify_liveness
from repro.core.report import VerificationReport, format_report
from repro.core.workspace import (
    Workspace,
    WorkspaceCacheError,
    WorkspaceCacheMismatch,
    WorkspaceEntry,
)

__all__ = [
    "InvariantMap",
    "LivenessProperty",
    "Location",
    "SafetyProperty",
    "CheckKind",
    "CheckOutcome",
    "LocalCheck",
    "CheckFailure",
    "verify_safety",
    "verify_liveness",
    "VerificationReport",
    "format_report",
    "Workspace",
    "WorkspaceCacheError",
    "WorkspaceCacheMismatch",
    "WorkspaceEntry",
]
