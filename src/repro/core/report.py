"""One report protocol for every verification pipeline, plus rendering.

Safety and liveness used to duplicate their outcome accounting — two
hand-rolled copies of ``passed``/``failures``/``unknowns``/size maxima
that had already drifted once (unknown-only reports rendered as
``FAILED (0 checks)``).  :class:`VerificationReport` is the single
protocol both now implement: a subclass provides :meth:`iter_groups`
(every :class:`GroupOutcomes` the run produced or reused, in presentation
order) and the base derives all counting from the groups' folds, so a new
outcome state or a new pipeline changes the accounting in exactly one
place — and a summary never walks 20 000 outcomes to learn that one
failed.  :class:`GroupOutcomes` is also what the incremental tracker
stores and ``Workspace.save`` persists per ``(section, owner)`` group.

:func:`format_report` renders any report for the CLI and examples,
dispatching to ``format_safety_report``/``format_liveness_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.core.checks import CheckOutcome

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.checks import LocalCheck
    from repro.core.counterexample import CheckFailure
    from repro.smt.solver import SolverStats


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


@dataclass
class DegradationReport:
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

    reasons: list[str] = field(default_factory=list)

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


@dataclass
class GroupOutcomes:
    """The outcomes of one group of checks, as rows a report can fold.

    A group is one ``(section, owner)`` entry of the incremental tracker's
    owner index, or a whole section of a one-shot run.  ``stats`` holds one
    row per check in group order (repeats of a memoised query share one
    object, in memory and in a pickle); ``kept`` maps a check's index to
    its whole :class:`~repro.core.checks.CheckOutcome` for every check that
    did not pass and for every owner-less check (the implications), so
    failures, UNKNOWNs and blame render without the other checks; the four
    folds are what every summary asks for, computed once.

    Checks are a pure function of ``(problem, config, owner)`` and not
    persisted (unless every outcome is kept, and with it its check):
    ``checks`` is set by the run that produced the group, else
    ``regenerate`` (set by the tracker that restored it) fills it in when
    the per-check listing is first asked for.
    """

    stats: "list[SolverStats]"
    kept: dict[int, CheckOutcome]
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
        """One outcome per check, in group order: the per-check listing."""
        if self.checks is None and self.regenerate is not None:
            self.regenerate()
        if self.checks is None:
            raise ValueError("the group has no checks and no way to regenerate them")
        rows = zip(self.checks, self.stats, strict=True)
        return [
            self.kept.get(i) or CheckOutcome(check, True, stats)
            for i, (check, stats) in enumerate(rows)
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


class VerificationReport:
    """Shared outcome-counting protocol for verification reports.

    Subclasses implement :meth:`iter_groups`; everything below is derived
    from the groups' folds and kept outcomes.  ``wall_time_s`` stays a
    subclass field (dataclasses own their fields), and ``summary()`` stays
    per-pipeline — only its PASSED/FAILED status half is shared via
    :meth:`status`.
    """

    def iter_groups(self) -> "Iterable[GroupOutcomes]":
        """Every group of outcomes in this report, in presentation order."""
        raise NotImplementedError

    def iter_outcomes(self) -> "Iterator[CheckOutcome]":
        """Every check outcome in this report, in presentation order."""
        for group in self.iter_groups():
            yield from group.outcomes()

    def _kept(self) -> "Iterator[CheckOutcome]":
        for group in self.iter_groups():
            yield from group.kept.values()

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self._kept())

    @property
    def failures(self) -> "list[CheckFailure]":
        return [o.failure for o in self._kept() if o.failure is not None]

    @property
    def unknowns(self) -> "list[CheckOutcome]":
        """Outcomes the solver could not decide (budget exhausted).

        Unknowns fail the property (``passed`` is False) but carry no
        counterexample, so they are invisible to ``failures`` — summaries
        must count them separately or an unknown-only failure reads as
        ``FAILED (0 checks)``.
        """
        return [o for o in self._kept() if o.unknown]

    @property
    def unknown_reason_counts(self) -> "dict[str, int]":
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
        return sum(len(group.stats) for group in self.iter_groups())

    @property
    def max_vars(self) -> int:
        """Largest SMT variable count in any single local check (Fig. 3b)."""
        return max((group.max_vars for group in self.iter_groups()), default=0)

    @property
    def max_clauses(self) -> int:
        """Largest SMT constraint count in any single local check (Fig. 3b)."""
        return max((group.max_clauses for group in self.iter_groups()), default=0)

    @property
    def solve_time_s(self) -> float:
        """Pure constraint-solving time across all checks (Fig. 3d)."""
        return sum(group.solve_time_s for group in self.iter_groups())

    @property
    def build_time_s(self) -> float:
        return sum(group.build_time_s for group in self.iter_groups())

    def status(self) -> str:
        """The shared PASSED/FAILED half of a summary line."""
        if self.passed:
            return "PASSED"
        return failure_status(self.failures, self.unknowns)

    def summary(self, verbose: bool = False) -> str:
        """One line: verdict and check count; durations only if ``verbose``."""
        raise NotImplementedError


def format_safety_report(report, verbose: bool = False) -> str:
    """Render a safety report: summary, then any failures, then detail."""
    lines = [report.summary(verbose)]
    for failure in report.failures:
        lines.append("")
        lines.append(failure.explain())
    for outcome in report.unknowns:
        lines.append(f"UNKNOWN ({unknown_label(outcome)}): {outcome.check.description}")
    if verbose:
        lines.append("")
        lines.append("check breakdown:")
        for outcome in report.outcomes:
            mark = "ok  " if outcome.passed else "FAIL"
            lines.append(
                f"  [{mark}] {outcome.check.description} "
                f"({outcome.stats.num_vars}v/{outcome.stats.num_clauses}c, "
                f"{outcome.stats.total_time_s * 1000:.1f}ms)"
            )
    return "\n".join(lines)


def format_liveness_report(report, verbose: bool = False) -> str:
    lines = [report.summary(verbose)]
    # The proof's own checks: propagation along the path, then C_n ⊆ P.
    proof = [
        outcome
        for group in (*report.propagation, report.implication)
        for outcome in group.kept.values()
    ]
    for outcome in proof:
        if outcome.failure is not None:
            lines.append("")
            lines.append(outcome.failure.explain())
    for router, sub in sorted(report.interference_reports.items()):
        if not sub.passed:
            lines.append("")
            lines.append(f"no-interference sub-proof at {router} FAILED:")
            for failure in sub.failures:
                lines.append("  " + failure.explain().replace("\n", "\n  "))
            for outcome in sub.unknowns:
                lines.append(
                    f"  UNKNOWN ({unknown_label(outcome)}): {outcome.check.description}"
                )
        elif verbose:
            lines.append(f"no-interference at {router}: ok ({sub.num_checks} checks)")
    # Undecided propagation/implication checks have no counterexample to
    # explain; list them so an unknown-only failure is never silent.
    for outcome in proof:
        if outcome.unknown:
            lines.append(f"UNKNOWN ({unknown_label(outcome)}): {outcome.check.description}")
    return "\n".join(lines)


def degradation_lines(report) -> list[str]:
    """The "degraded execution" section for a report, possibly empty."""
    degradation = getattr(report, "degradation", None)
    if degradation is None or not degradation.degraded():
        return []
    lines = ["", "degraded execution:"]
    lines.extend("  " + line for line in degradation.describe())
    return lines


def format_report(report, verbose: bool = False) -> str:
    """Render any :class:`VerificationReport` (safety or liveness)."""
    if hasattr(report, "interference_reports"):
        rendered = format_liveness_report(report, verbose=verbose)
    else:
        rendered = format_safety_report(report, verbose=verbose)
    extra = degradation_lines(report)
    if extra:
        rendered += "\n" + "\n".join(extra)
    return rendered
