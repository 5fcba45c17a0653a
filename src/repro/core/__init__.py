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

There are two layers, and neither wraps the other.  The free functions
``verify_safety``/``verify_liveness`` build a problem and hand it to the
one-shot driver (:func:`repro.core.safety.run_problem`): stateless —
generate every check, run it, report.  ``Workspace`` is the stateful
layer over the same problem builders and scheduler, and its incremental
tracker (:mod:`repro.core.incremental`) is differentially tested against
the one-shot driver.  How a run executes (worker processes, budgets,
deadlines, session pool) is an :class:`repro.core.exec.ExecutionContext`:
the ``context=`` of a free function, or the workspace itself.
"""

from repro.core.properties import (
    InvariantMap,
    LivenessProperty,
    Location,
    SafetyProperty,
)
from repro.core.checks import CheckKind, CheckOutcome, LocalCheck
from repro.core.counterexample import CheckFailure
from repro.core.safety import SafetyReport, verify_safety
from repro.core.liveness import LivenessReport, verify_liveness
from repro.core.report import VerificationReport, format_report
from repro.core.workspace import (
    Workspace,
    WorkspaceCacheError,
    WorkspaceCacheMismatch,
    WorkspaceEntry,
    WorkspaceStats,
)
from repro.core.incremental import IncrementalResult
from repro.core.inference import InferenceResult, infer_safety_invariants
from repro.core.scenario import ImpactAssessment, assess_impact
from repro.core.templates import (
    TemplateProblem,
    attribute_bound,
    bogon_filtering,
    isolation,
    no_transit,
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
    "SafetyReport",
    "verify_safety",
    "LivenessReport",
    "verify_liveness",
    "VerificationReport",
    "format_report",
    "Workspace",
    "WorkspaceCacheError",
    "WorkspaceCacheMismatch",
    "WorkspaceEntry",
    "WorkspaceStats",
    "IncrementalResult",
    "InferenceResult",
    "infer_safety_invariants",
    "ImpactAssessment",
    "assess_impact",
    "TemplateProblem",
    "attribute_bound",
    "bogon_filtering",
    "isolation",
    "no_transit",
]
