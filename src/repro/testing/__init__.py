"""Deterministic testing utilities shipped with the runtime.

:mod:`repro.testing.faults` is the fault-injection harness the chaos
tests drive: it plants failures (worker kills, check delays, check
exceptions, cache corruption) at fixed, named points so recovery
behaviour can be *asserted* — exact outcomes, exact fallback counts —
instead of hoped for.
"""

from repro.testing.faults import (
    FaultInjected,
    FaultPlan,
    active_plan,
    corrupt_file,
    install,
    reset,
    truncate_file,
)

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "active_plan",
    "corrupt_file",
    "install",
    "reset",
    "truncate_file",
]
