"""Deterministic fault injection for the verification runtime.

The fault-tolerant execution layer (serial fallback after a worker
death, deadlines) is only trustworthy if its recovery paths are exercised
on demand.  This module plants failures at fixed points:

* **kill in check** — a pool *worker process* about to run a matching
  check calls ``os._exit(1)``, simulating a hard crash mid-run.  It fires
  only inside a worker (``multiprocessing.parent_process() is not None``),
  so the serial re-run the parent falls back to does not re-fire it and
  the recovery path is deterministically testable.
* **delay check by T** — :meth:`repro.core.checks.LocalCheck.run` sleeps
  ``T`` seconds before solving, for checks whose description matches.
* **hang check** — the matching check sleeps until its wall-clock
  deadline has passed (capped, so a forgotten fault cannot stall CI),
  which makes the solver return UNKNOWN with reason ``timeout`` —
  exactly what a pathological SAT instance would do, minus the CPU burn.
* **raise in check** — the matching check raises :class:`FaultInjected`,
  exercising the genuine-exception path (which must propagate, not
  degrade).
* **corrupt cache byte at offset** — :func:`corrupt_file` /
  :func:`truncate_file` damage an on-disk workspace cache so loader
  hardening can be asserted against every byte position, not just "the
  file is missing".

Faults are installed process-wide with :func:`install`, which sets the
plan's hook as :data:`repro.core.checks.check_start_hook`; the verifier
itself never imports this module.  The process map ships the parent's hook
to each worker with the problem context.

Everything here is inert unless a plan is installed; the hook slot costs
one ``None`` check on the hot path.
"""

from __future__ import annotations

import os
import time

from repro.core import checks
from repro.record import Value


class FaultInjected(RuntimeError):
    """The exception the ``raise_in_check`` fault throws."""


# Sleep cap for the hang fault when no deadline bounds it: a hang is
# supposed to be "forever", but an unbounded sleep in a test process that
# forgot to set a deadline would stall the suite instead of failing it.
HANG_CAP_S = 10.0


class FaultPlan(Value):
    """A declarative set of faults to inject, picklable so the process
    map can ship it to worker processes."""

    # ``os._exit(1)`` a pool worker process about to run a matching check
    # (never the parent process, so the serial fallback completes).
    kill_in_check_match: str | None = None
    # Sleep before solving any check whose description contains the match
    # substring (empty string matches every check).
    delay_check_s: float = 0.0
    delay_check_match: str = ""
    # Sleep past the check's deadline (see HANG_CAP_S) for matching checks.
    hang_check_match: str | None = None
    # Raise FaultInjected from matching checks.
    raise_in_check_match: str | None = None

    # -- check-level hooks ---------------------------------------------

    def _matches(self, pattern: str | None, check) -> bool:
        return pattern is not None and pattern in str(check)

    def on_check_start(self, check, deadline_abs: float | None) -> None:
        """Apply check-level faults before a check starts solving."""
        if self._matches(self.kill_in_check_match, check):
            import multiprocessing  # only ever loaded when this fault fires

            if multiprocessing.parent_process() is not None:
                # Simulated hard crash: no reply, no cleanup, no exit handlers.
                os._exit(1)
        if self._matches(self.raise_in_check_match, check):
            raise FaultInjected(f"injected failure in check: {check}")
        if self.delay_check_s and (
            not self.delay_check_match or self.delay_check_match in str(check)
        ):
            time.sleep(self.delay_check_s)
        if self._matches(self.hang_check_match, check):
            # Sleep until the deadline has definitely passed: the solver
            # then observes the expiry on entry and returns UNKNOWN with
            # reason "timeout", just like a real runaway search.
            if deadline_abs is None:
                time.sleep(HANG_CAP_S)
            else:
                remaining = deadline_abs - time.monotonic()
                if remaining > 0:
                    time.sleep(min(remaining + 0.01, HANG_CAP_S))


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

def install(plan: FaultPlan | None) -> None:
    """Install a fault plan process-wide (``None`` clears it)."""
    checks.check_start_hook = None if plan is None else plan.on_check_start


def reset() -> None:
    """Remove any installed plan."""
    install(None)


# ---------------------------------------------------------------------------
# Cache corruption helpers
# ---------------------------------------------------------------------------


def corrupt_file(path, offset: int, flip: int = 0xFF) -> None:
    """XOR the byte at ``offset`` (negative = from the end) with ``flip``.

    Used by the cache-resilience tests to assert that a damaged workspace
    cache is rejected with a readable error at *every* byte position, not
    just when the header happens to be hit.
    """
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size == 0:
            raise ValueError(f"{path} is empty; nothing to corrupt")
        position = offset % size
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ (flip & 0xFF)]))


def truncate_file(path, keep_bytes: int) -> None:
    """Truncate a file to its first ``keep_bytes`` bytes."""
    with open(path, "r+b") as handle:
        handle.truncate(max(0, keep_bytes))
