"""The ``lightyear`` command-line interface.

Subcommands:

* ``lightyear parse CONFIG``
  Parse a configuration (text dialect or ``.json``) and print a topology
  summary; ``--dump-json`` re-emits the normalised JSON form.

* ``lightyear verify CONFIG SPEC``
  Run every safety and liveness problem in a JSON spec file (see
  :mod:`repro.lang.specjson`) against the configuration.  Exits non-zero
  if any property fails, printing localised counterexamples.
  ``--jobs N`` (or ``--jobs auto``) discharges independent local checks on
  ``N`` worker processes, one chunk per router — the paper's per-device
  deployment model; without it (or with ``--jobs 1``) checks run serially.
  ``--cache DIR`` persists the workspace's outcome cache: a second
  ``verify`` against the same configuration and spec loads it and re-runs
  nothing — except groups whose cached outcome is a time-bound UNKNOWN
  (``--deadline``/``--wall-budget``), which are re-run and re-saved.

* ``lightyear diff OLD NEW``
  Structurally compare two configurations and report which routers
  changed — the input to incremental re-verification.

* ``lightyear lint [PATHS]``
  Run the repo's own static-analysis pass (:mod:`repro.analysis`): four
  checkers enforcing the verifier's soundness invariants — digest
  coverage, pickle safety, deadline discipline, cache-format discipline
  — with per-file caching, inline suppressions, and a committed baseline
  ratchet.  Exits non-zero on any fresh finding.

* ``lightyear reverify BASE EDITED SPEC``
  The incremental pipeline end to end: verify every property in the spec
  against ``BASE``, then re-verify against ``EDITED`` reusing everything
  the edit did not invalidate — per-owner check groups, solver sessions,
  and the attribute universe.  Prints
  the structural diff and, per property, how many checks the re-run
  consulted versus reused.  Exits non-zero if the edited configuration
  fails a property.  With ``--cache DIR`` the base run's outcomes are
  persisted across *process* invocations: the first call verifies BASE
  and saves, later calls load the cache, skip the base run entirely, and
  consult only the edited owners' checks.  A cache saved for a different
  configuration, ghost set, or spec is rejected with a non-zero exit.

Exit codes (``verify``/``reverify``): 0 every property proved; 1 a
property has a counterexample; 2 usage, configuration, or cache errors,
or a SAT model that failed its self-check (an internal error, never
reported as a counterexample); 3 nothing failed outright but some checks
are UNKNOWN (``--budget``, ``--deadline``, ``--wall-budget``) or
execution degraded (a ``--jobs`` run that fell back to serial) — see the
README's "Failure modes & degradation" section.  ``lint`` exits 0 clean,
1 on fresh findings (or resolved baseline entries pending a ratchet), 2
on usage errors.

Every subcommand executes through the unified runtime in
:mod:`repro.core.exec`: the workspace's trackers hand each run's
``{key: checks}`` mapping to one ``Scheduler``, which runs it as one
batch — serially, or with ``--jobs N`` on a per-batch process map.

Example::

    lightyear verify network.cfg properties.json --jobs auto --verbose
    lightyear reverify network.cfg edited.cfg properties.json --deadline 5 --wall-budget 300
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import parse_config
from repro.core.checks import InternalError
from repro.core.exec import resolve_jobs
from repro.core.report import format_report
from repro.core.workspace import Workspace, WorkspaceCacheMismatch
from repro.lang.specjson import spec_from_json

CACHE_FILENAME = "workspace.lyc"

# Exit codes: 0 every property proved cleanly; 1 a property has a real
# counterexample; 2 usage/config/cache errors; EXIT_DEGRADED when nothing
# failed outright but the answer is weaker than asked — some checks came
# back UNKNOWN (budget, deadline, wall budget) or execution degraded
# (a --jobs run fell back to serial).  Scripts must not read a degraded
# run as a clean pass.
EXIT_DEGRADED = 3


def _load_config(path: str):
    """Load a configuration: JSON file, dialect file, or a directory.

    A directory is treated the way production repositories are laid out —
    one dialect file per device (plus shared route-map files); the pieces
    are concatenated (sorted by name) and parsed as one network.
    """
    target = Path(path)
    if target.is_dir():
        pieces = sorted(
            p for p in target.iterdir() if p.suffix in (".cfg", ".txt", ".conf")
        )
        if not pieces:
            raise ValueError(f"{path}: no .cfg/.txt/.conf files in directory")
        return parse_config("\n".join(p.read_text() for p in pieces))
    text = target.read_text()
    if target.suffix == ".json":
        return config_from_json(text)
    return parse_config(text)


def _cmd_parse(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    problems = config.validate()
    topo = config.topology
    print(
        f"{args.config}: {len(topo.routers)} routers, "
        f"{len(topo.externals)} external neighbors, {len(topo.edges)} directed edges"
    )
    for name in sorted(topo.routers):
        rc = config.routers[name]
        print(f"  router {name} (AS {rc.asn}): {len(rc.neighbors)} sessions")
    if problems:
        print("problems:")
        for p in problems:
            print(f"  ! {p}")
        return 1
    if args.dump_json:
        print(config_to_json(config))
    return 0


def _parse_jobs(value: str) -> int | str:
    """``--jobs`` argument: a positive integer or the word ``auto``."""
    if value == "auto":
        return "auto"
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _parse_seconds(value: str) -> float:
    """``--deadline``/``--wall-budget`` argument: a positive number of seconds."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {value!r}"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive duration, got {value}")
    return seconds


def _spec_problems(spec, topology) -> list[tuple]:
    """The spec's problems as (prop, invariants, interference) triples."""
    problems: list[tuple] = []
    for sspec in spec.safety:
        problems.append((sspec.property, sspec.build_invariants(topology), None))
    for prop in spec.liveness:
        problems.append((prop, None, None))
    return problems


def _cache_file(cache_dir: str | None) -> Path | None:
    return None if cache_dir is None else Path(cache_dir) / CACHE_FILENAME


def _open_workspace(
    cache_path: Path | None,
    config,
    ghosts,
    problems,
    args: argparse.Namespace,
) -> tuple[Workspace, bool]:
    """A workspace for ``config``: loaded from the cache when one exists.

    ``--jobs``, ``--budget``, ``--deadline`` and ``--wall-budget`` are
    handed over here, once; everything the workspace runs is bound by
    them.  A loadable cache must cover exactly this spec (same properties,
    invariants, and budget) — a stale or foreign cache raises
    :class:`WorkspaceCacheMismatch` rather than silently answering for the
    wrong problem.  The deadlines are execution parameters, not part of
    the cache identity.
    """
    limits = dict(
        parallel=args.jobs, conflict_budget=args.budget, deadline_s=args.deadline
    )
    loaded = cache_path is not None and cache_path.exists()
    if not loaded:
        workspace = Workspace(config, ghosts=ghosts, **limits)
    else:
        workspace = Workspace.load(cache_path, config=config, ghosts=ghosts, **limits)
        # A load without --budget adopts the saved one; that is not this spec.
        same_budget = workspace.conflict_budget == args.budget
        for prop, invariants, interference in problems:
            if not same_budget or not workspace.has_entry(
                prop, invariants, interference_invariants=interference
            ):
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {cache_path} does not cover this spec "
                    f"(no cached outcomes for {prop}); delete the cache or rerun "
                    f"without --cache"
                )
    if args.wall_budget is not None:
        # One budget for the whole invocation: pin a single absolute
        # deadline so it spans every property (and a reverify's base run),
        # not each run separately.
        workspace.set_run_deadline(time.monotonic() + args.wall_budget)
    return workspace, loaded


def _reports_exit_code(reports) -> int:
    """Map a run's reports to the exit-code contract in the module header.

    A real counterexample dominates (1); otherwise any UNKNOWN outcome or
    degraded execution demotes a "pass" to :data:`EXIT_DEGRADED`.
    """
    if any(report.failures for report in reports):
        return 1
    for report in reports:
        degradation = getattr(report, "degradation", None)
        if report.unknowns or (degradation is not None and degradation.degraded()):
            return EXIT_DEGRADED
    return 0


def _consulted_line(result, label: str = "reverify") -> str:
    total = result.rerun_checks + result.cached_checks
    return (
        f"  {label}: consulted {result.checks_consulted} of {total} checks "
        f"({result.rerun_checks} re-run, {result.cached_checks} reused)"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    spec = spec_from_json(Path(args.spec).read_text())
    ghosts = spec.build_ghosts(config.topology)
    problems = _spec_problems(spec, config.topology)
    cache_path = _cache_file(args.cache)
    # The workspace keeps one session pool alive across every property in
    # the spec, so encodings built for the first property are reused by all
    # later ones on the serial path; with --cache the outcome store
    # additionally persists across invocations.
    workspace, loaded = _open_workspace(cache_path, config, ghosts, problems, args)
    if loaded:
        print(f"cache: loaded outcomes from {cache_path}")
    reports = []
    reran = False
    with workspace:
        for prop, invariants, interference in problems:
            report = workspace.verify(
                prop, invariants, interference_invariants=interference
            )
            print(format_report(report, verbose=args.verbose))
            if loaded:
                entry = workspace.entry(
                    prop, invariants, interference_invariants=interference
                )
                print(_consulted_line(entry.last_result, "cache"))
                reran = reran or entry.last_result.rerun_checks > 0
            print()
            reports.append(report)
        # A loaded cache is rewritten only if this run repaired it: the
        # config matches by construction, so the only groups it can have
        # re-run are those cached as time-bound UNKNOWNs.
        if cache_path is not None and (reran or not loaded):
            workspace.save(cache_path)

    totals = (
        f"totals: {workspace.stats.num_checks} local checks, "
        f"largest {workspace.stats.max_vars} vars / {workspace.stats.max_clauses} "
        f"constraints, {workspace.stats.wall_time_s:.2f}s "
        f"({workspace.stats.solve_time_s:.2f}s solving)"
    )
    if resolve_jobs(args.jobs) == 1:
        # Under --jobs each worker keeps its own query memo and none comes
        # back, so there is no run-wide count to print.
        totals += f", {len(workspace.sessions.answers)} distinct queries solved"
    print(totals)
    return _reports_exit_code(reports)


def _cmd_reverify(args: argparse.Namespace) -> int:
    from repro.bgp.configdiff import diff_configs

    base = _load_config(args.base)
    edited = _load_config(args.edited)
    problems_found = edited.validate()
    if problems_found:
        print(
            f"error: edited configuration is invalid: {'; '.join(problems_found)}",
            file=sys.stderr,
        )
        return 2
    spec = spec_from_json(Path(args.spec).read_text())
    ghosts = spec.build_ghosts(base.topology)
    diff = diff_configs(base, edited)
    print(f"config diff: {diff.summary()}")

    problems = _spec_problems(spec, base.topology)
    cache_path = _cache_file(args.cache)
    # One workspace over the base config: the base run's per-owner sessions
    # (or, cache-loaded, its persisted outcomes) are what the reverify
    # re-solves against.
    workspace, loaded = _open_workspace(cache_path, base, ghosts, problems, args)
    reports = []
    with workspace:
        if loaded:
            print(f"cache: loaded base outcomes from {cache_path} (base run skipped)")
        else:
            for prop, invariants, interference in problems:
                report = workspace.verify(
                    prop, invariants, interference_invariants=interference
                )
                if args.verbose:
                    print(f"base: {report.summary()}")
            if cache_path is not None:
                # Persist the *base* outcomes: later invocations (each a
                # fresh process) load them and skip the base run — the
                # daemonless amortization the cache exists for.
                workspace.save(cache_path)

        # Only the spec's entries: a loaded cache may hold more properties
        # than this invocation asked about, and those must not leak into
        # the output or the exit code.
        selected = [
            workspace.entry(prop, invariants, interference_invariants=interference)
            for prop, invariants, interference in problems
        ]
        workspace.apply(edited)
        for entry in workspace.reverify(selected):
            result = entry.last_result
            print(format_report(result.report, verbose=args.verbose))
            print(_consulted_line(result))
            print()
            reports.append(result.report)
    return _reports_exit_code(reports)


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.bgp.configdiff import diff_configs

    old = _load_config(args.old)
    new = _load_config(args.new)
    diff = diff_configs(old, new)
    print(diff.summary())
    for router in diff.changed_routers:
        for change in diff.details[router]:
            print(f"  {router}: {change}")
    return 0 if diff.is_empty else 1


def _add_run_options(
    parser: argparse.ArgumentParser, wall_budget_help: str, cache_help: str
) -> None:
    """The execution options ``verify`` and ``reverify`` share; only the
    two help strings that genuinely differ are parameters."""
    parser.add_argument(
        "--jobs",
        type=_parse_jobs,
        default=None,
        metavar="N",
        help="worker processes for checks: a count or 'auto' (= available "
        "CPUs); omitted or 1 runs serially",
    )
    parser.add_argument(
        "--budget", type=int, default=None, help="per-check SAT conflict budget"
    )
    parser.add_argument(
        "--deadline",
        type=_parse_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock cap per check; a check that exceeds it is reported "
        "UNKNOWN (deadline exceeded) instead of hanging the run",
    )
    parser.add_argument(
        "--wall-budget",
        type=_parse_seconds,
        default=None,
        metavar="SECONDS",
        help=wall_budget_help,
    )
    parser.add_argument("--cache", metavar="DIR", default=None, help=cache_help)
    parser.add_argument("--verbose", action="store_true")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser — or, given the ``command`` about to run, one that
    skips importing :mod:`repro.analysis` unless that command is ``lint``."""
    parser = argparse.ArgumentParser(
        prog="lightyear",
        description="Modular BGP control-plane verification (SIGCOMM 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and validate a configuration")
    p_parse.add_argument("config", help="configuration file (.txt dialect or .json)")
    p_parse.add_argument(
        "--dump-json", action="store_true", help="print the normalised JSON form"
    )
    p_parse.set_defaults(func=_cmd_parse)

    p_verify = sub.add_parser("verify", help="verify properties from a spec file")
    p_verify.add_argument("config", help="configuration file (.txt dialect or .json)")
    p_verify.add_argument("spec", help="JSON verification spec")
    _add_run_options(
        p_verify,
        wall_budget_help="wall-clock cap for the whole invocation; once spent, "
        "remaining checks are reported UNKNOWN (wall budget exhausted) and the "
        "partial results are printed",
        cache_help="persist the outcome cache in DIR; a later verify/reverify "
        "of the same config+spec loads it instead of re-verifying",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_diff = sub.add_parser("diff", help="compare two configurations")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    p_diff.set_defaults(func=_cmd_diff)

    p_rev = sub.add_parser(
        "reverify",
        help="verify a base config, then incrementally re-verify an edit",
    )
    p_rev.add_argument("base", help="base configuration (.txt dialect or .json)")
    p_rev.add_argument("edited", help="edited configuration (same topology)")
    p_rev.add_argument("spec", help="JSON verification spec")
    _add_run_options(
        p_rev,
        wall_budget_help="wall-clock cap for the whole invocation (base run "
        "plus reverify); once spent, remaining checks are reported UNKNOWN",
        cache_help="persist the BASE outcome cache in DIR; later invocations "
        "load it, skip the base run, and consult only the edited owners' checks",
    )
    p_rev.set_defaults(func=_cmd_reverify)

    p_lint = sub.add_parser(
        "lint",
        help="run the static-analysis pass over the repo's own sources",
    )
    if command in (None, "lint"):
        from repro.analysis.cli import add_lint_arguments, run_from_args

        add_lint_arguments(p_lint)
        p_lint.set_defaults(func=run_from_args)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no options of its own, so the first
    # non-option word is the subcommand (none: usage/help, full parser).
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
