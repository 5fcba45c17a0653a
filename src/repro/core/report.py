"""One report for every verification run, plus rendering.

A run proves one property as one proof in *sections*: a §4 safety proof
is the single section :data:`SAFETY_KEY`; a §5 liveness proof is its
propagation checks (:data:`PROPAGATION_KEY`), one §4 sub-proof per path
router (:func:`subproof_key`) and the final implication
(:data:`IMPLICATION_KEY`); a §7 re-verification re-runs some sections'
groups and reuses the rest.  :class:`VerificationReport` is that shape,
once: the property, its sections (each a list of :class:`GroupOutcomes`),
the wall time, any degradation and how many checks were reused from an
earlier run.  All accounting folds over the groups, so a summary never
walks 20 000 outcomes to learn that one failed.  :class:`GroupOutcomes`
is also what the incremental tracker stores and ``Workspace.save``
persists per ``(section, owner)`` group.

:func:`format_report` renders a report for the CLI and examples; the
summary and the rendering branch on the property's kind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.core.checks import CheckOutcome
from repro.core.properties import LivenessProperty
from repro.record import Record

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.checks import LocalCheck
    from repro.core.counterexample import CheckFailure
    from repro.core.properties import SafetyProperty
    from repro.smt.solver import SolverStats


#: The one section of a §4 proof.
SAFETY_KEY = ("safety",)
#: The sections of a §5 proof besides its sub-proofs (:func:`subproof_key`).
PROPAGATION_KEY = ("prop",)
IMPLICATION_KEY = ("impl",)


def subproof_key(router: str) -> tuple:
    """The section of the no-interference sub-proof at ``router``."""
    return ("sub", router)


# Human-readable text for CheckOutcome.unknown_reason values; an UNKNOWN
# carrying no reason gets the generic label.
_UNKNOWN_LABELS = {
    "conflicts": "conflict budget exhausted",
    "timeout": "deadline exceeded",
    "wall-budget": "wall budget exhausted",
}


def unknown_label(outcome) -> str:
    """Why an outcome is UNKNOWN, as display text."""
    reason = getattr(outcome, "unknown_reason", None)
    return _UNKNOWN_LABELS.get(reason, "budget exhausted")


class DegradationReport(Record):
    """How far a run strayed from clean parallel execution.

    Verification that silently degrades — a process pool quietly replaced
    by a serial rerun — is verification nobody can trust under load.  The
    execution layer's one recovery mechanism (re-running a batch serially
    when the pool machinery fails or a worker dies) reports here: the
    collector is handed to ``Scheduler.run`` and attached to the
    resulting report, and :func:`format_report` renders a "degraded
    execution" section whenever anything is non-zero.  Timeout/wall-budget
    unknowns are *not* duplicated here; they live on the outcomes
    themselves (``CheckOutcome.unknown_reason``) and are counted by
    :meth:`VerificationReport.unknown_reason_counts`.
    """

    reasons: list[str] = []

    @property
    def serial_fallbacks(self) -> int:
        """One serial re-run per recorded reason."""
        return len(self.reasons)

    def record_fallback(self, reason: str) -> None:
        self.reasons.append(reason)

    def degraded(self) -> bool:
        return bool(self.reasons)

    def describe(self) -> list[str]:
        """One line per degradation kind, for report rendering."""
        lines = []
        if self.serial_fallbacks:
            lines.append(
                f"{self.serial_fallbacks} serial fallback(s) — parallel "
                f"execution was unavailable or broke; results were computed "
                f"serially instead"
            )
        for reason in self.reasons:
            lines.append(f"reason: {reason}")
        return lines


class GroupOutcomes(Record):
    """The outcomes of one group of checks, as rows a report can fold.

    A group is one ``(section, owner)`` entry of the incremental tracker's
    owner index, or a whole section of a one-shot run.  ``stats`` holds one
    row per check in group order (repeats of a memoised query share one
    object, in memory and in a pickle), and ``num_checks`` counts the edge
    checks they stand for, members included; ``kept`` maps a check's index
    to its whole :class:`~repro.core.checks.CheckOutcome` for every check
    that did not pass (each member's outcome within it) and for every
    owner-less check (the implications), so failures, UNKNOWNs and blame
    render without the other checks; the folds are what every summary
    asks for, computed once.

    Checks are a pure function of ``(problem, config, ghosts, owner)`` and not
    persisted (unless every outcome is kept, and with it its check):
    ``checks`` is set by the run that produced the group, else
    ``regenerate`` (set by the tracker that restored it) fills it in when
    the per-check listing is first asked for.
    """

    stats: "list[SolverStats]"
    kept: dict[int, CheckOutcome]
    num_checks: int
    max_vars: int
    max_clauses: int
    solve_time_s: float
    build_time_s: float
    checks: "Sequence[LocalCheck] | None" = None
    regenerate: "Callable[[], None] | None" = None

    @classmethod
    def of(
        cls, checks: "Sequence[LocalCheck]", outcomes: Sequence[CheckOutcome]
    ) -> "GroupOutcomes":
        """Fold the outcomes of ``checks`` (same order) into one group."""
        stats = [o.stats for o in outcomes]
        return cls(
            stats=stats,
            kept={
                i: o
                for i, o in enumerate(outcomes)
                if not o.passed or o.check.edge is None
            },
            num_checks=sum(check.size for check in checks),
            max_vars=max((s.num_vars for s in stats), default=0),
            max_clauses=max((s.num_clauses for s in stats), default=0),
            solve_time_s=sum(s.solve_time_s for s in stats),
            build_time_s=sum(s.build_time_s for s in stats),
            checks=checks,
        )

    def __getstate__(self) -> dict:
        checks = self.checks if len(self.kept) == len(self.stats) else None
        return {**self.__dict__, "checks": checks, "regenerate": None}

    def outcomes(self) -> list[CheckOutcome]:
        """One outcome per edge check, check by check and member by member
        in group order: the per-check listing.  A passed check's first
        member carries its stats, the others were memo hits."""
        if self.checks is None and self.regenerate is not None:
            self.regenerate()
        if self.checks is None:
            raise ValueError("the group has no checks and no way to regenerate them")
        return [
            row
            for i, (check, stats) in enumerate(zip(self.checks, self.stats, strict=True))
            for row in (self.kept.get(i) or CheckOutcome(check, True, stats)).expanded()
        ]


def failure_status(failures: list, unknowns: list) -> str:
    """The failing half of a report summary, counting unknowns distinctly.

    UNKNOWN outcomes (conflict budget exhausted) fail a property but carry
    no counterexample, so a count of ``failures`` alone renders an
    unknown-only report as the nonsensical ``FAILED (0 checks)``.
    """
    parts = []
    if failures:
        parts.append(f"{len(failures)} failed")
    if unknowns:
        parts.append(f"{len(unknowns)} unknown")
    return f"FAILED ({', '.join(parts)})" if parts else "FAILED"


def kept_outcomes(groups: Iterable[GroupOutcomes]) -> Iterator[CheckOutcome]:
    """The whole outcomes the groups kept: every edge check that did not
    pass, and every owner-less one."""
    for group in groups:
        for outcome in group.kept.values():
            yield from outcome.expanded()


class VerificationReport(Record):
    """Everything one run of one property learned, section by section.

    ``sections`` maps each section key to its groups in presentation
    order; a one-shot run has one group per section, a tracker one per
    owner router.  ``reused_checks`` counts the checks answered from an
    earlier run (0 for a one-shot run); the rest were re-run.  Every
    count, verdict and size maximum is a fold over the groups.
    """

    property: "SafetyProperty | LivenessProperty"
    sections: dict[tuple, list[GroupOutcomes]]
    wall_time_s: float
    degradation: DegradationReport = DegradationReport()
    reused_checks: int = 0

    def _groups(self) -> Iterator[GroupOutcomes]:
        for groups in self.sections.values():
            yield from groups

    def iter_outcomes(self) -> Iterator[CheckOutcome]:
        """The per-check listing: every outcome, section by section, in
        group order."""
        for group in self._groups():
            yield from group.outcomes()

    def section_outcomes(self, key: tuple) -> list[CheckOutcome]:
        """The per-check listing of one section (empty if it has none)."""
        return [o for group in self.sections.get(key, ()) for o in group.outcomes()]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in kept_outcomes(self._groups()))

    @property
    def failures(self) -> "list[CheckFailure]":
        return [o.failure for o in kept_outcomes(self._groups()) if o.failure is not None]

    @property
    def unknowns(self) -> list[CheckOutcome]:
        """Outcomes the solver could not decide (budget exhausted).

        Unknowns fail the property (``passed`` is False) but carry no
        counterexample, so they are invisible to ``failures`` — summaries
        must count them separately or an unknown-only failure reads as
        ``FAILED (0 checks)``.
        """
        return [o for o in kept_outcomes(self._groups()) if o.unknown]

    @property
    def unknown_reason_counts(self) -> dict[str, int]:
        """UNKNOWN outcomes bucketed by why: conflicts/timeout/wall-budget.

        Outcomes without a recorded reason count under ``"unspecified"``.
        """
        counts: dict[str, int] = {}
        for o in self.unknowns:
            reason = o.unknown_reason or "unspecified"
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    @property
    def num_checks(self) -> int:
        return sum(group.num_checks for group in self._groups())

    @property
    def rerun_checks(self) -> int:
        """The checks this run executed: every one it did not reuse."""
        return self.num_checks - self.reused_checks

    @property
    def max_vars(self) -> int:
        """Largest SMT variable count in any single local check (Fig. 3b)."""
        return max((group.max_vars for group in self._groups()), default=0)

    @property
    def max_clauses(self) -> int:
        """Largest SMT constraint count in any single local check (Fig. 3b)."""
        return max((group.max_clauses for group in self._groups()), default=0)

    @property
    def solve_time_s(self) -> float:
        """Pure constraint-solving time across all checks (Fig. 3d)."""
        return sum(group.solve_time_s for group in self._groups())

    @property
    def build_time_s(self) -> float:
        return sum(group.build_time_s for group in self._groups())

    def status(self) -> str:
        """The PASSED/FAILED half of a summary line."""
        if self.passed:
            return "PASSED"
        return failure_status(self.failures, self.unknowns)

    def summary(self, verbose: bool = False) -> str:
        """One line: verdict and check count; durations only if ``verbose``."""
        text = f"{self.property}: {self.status()} — {self.num_checks} local checks"
        if isinstance(self.property, LivenessProperty):
            groups = self.sections.get(PROPAGATION_KEY, ())
            propagation = sum(group.num_checks for group in groups)
            subproofs = sum(1 for key in self.sections if key[0] == "sub")
            text += (
                f" ({propagation} propagation, {subproofs} no-interference sub-proofs)"
            )
            if verbose:
                text += f", {self.wall_time_s:.2f}s total"
            return text
        text += f", max {self.max_vars} vars / {self.max_clauses} constraints per check"
        if verbose:
            text += f", {self.wall_time_s:.2f}s total ({self.solve_time_s:.2f}s solving)"
        return text


def _safety_lines(report: VerificationReport, verbose: bool) -> list[str]:
    """Failures, then UNKNOWNs, then (verbose) every check."""
    lines = []
    for failure in report.failures:
        lines += ["", failure.explain()]
    for outcome in report.unknowns:
        lines.append(f"UNKNOWN ({unknown_label(outcome)}): {outcome.check.description}")
    if verbose:
        lines += ["", "check breakdown:"]
        for outcome in report.iter_outcomes():
            mark = "ok  " if outcome.passed else "FAIL"
            lines.append(
                f"  [{mark}] {outcome.check.description} "
                f"({outcome.stats.num_vars}v/{outcome.stats.num_clauses}c, "
                f"{outcome.stats.total_time_s * 1000:.1f}ms)"
            )
    return lines


def _liveness_lines(report: VerificationReport, verbose: bool) -> list[str]:
    """The proof's own failures, each sub-proof's verdict, then the
    proof's UNKNOWNs."""
    lines = []
    # The proof's own checks: propagation along the path, then C_n ⊆ P.
    proof = [
        outcome
        for key in (PROPAGATION_KEY, IMPLICATION_KEY)
        for outcome in kept_outcomes(report.sections.get(key, ()))
    ]
    for outcome in proof:
        if outcome.failure is not None:
            lines += ["", outcome.failure.explain()]
    for key in sorted(key for key in report.sections if key[0] == "sub"):
        groups = report.sections[key]
        kept = list(kept_outcomes(groups))
        if all(o.passed for o in kept):
            if verbose:
                checks = sum(group.num_checks for group in groups)
                lines.append(f"no-interference at {key[1]}: ok ({checks} checks)")
            continue
        lines += ["", f"no-interference sub-proof at {key[1]} FAILED:"]
        for outcome in kept:
            if outcome.failure is not None:
                lines.append("  " + outcome.failure.explain().replace("\n", "\n  "))
        for outcome in kept:
            if outcome.unknown:
                lines.append(
                    f"  UNKNOWN ({unknown_label(outcome)}): {outcome.check.description}"
                )
    # Undecided propagation/implication checks have no counterexample to
    # explain; list them so an unknown-only failure is never silent.
    for outcome in proof:
        if outcome.unknown:
            lines.append(f"UNKNOWN ({unknown_label(outcome)}): {outcome.check.description}")
    return lines


def format_report(report: VerificationReport, verbose: bool = False) -> str:
    """Render a report: its summary, what failed or is undecided, the
    per-check detail if ``verbose``, and any degraded execution."""
    lines = [report.summary(verbose)]
    if isinstance(report.property, LivenessProperty):
        lines += _liveness_lines(report, verbose)
    else:
        lines += _safety_lines(report, verbose)
    if report.degradation.degraded():
        lines += ["", "degraded execution:"]
        lines += ["  " + line for line in report.degradation.describe()]
    return "\n".join(lines)
