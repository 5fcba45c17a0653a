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
README's "Failure modes & degradation" section.

Every subcommand executes through the unified runtime in
:mod:`repro.core.exec`: the workspace's trackers hand each run's
``{key: checks}`` mapping to one ``Scheduler``, which runs it as one
batch — serially, or with ``--jobs N`` on a per-batch process map.

The process entry :func:`run` (what ``lightyear`` and ``python -m
repro.cli`` call) raises the cyclic collector's thresholds and freezes the
heap before exit, so neither the run nor interpreter teardown keeps
re-walking clauses and interned terms; :func:`main` and the library leave
CPython's GC defaults alone.

Example::

    lightyear verify network.cfg properties.json --jobs auto --verbose
    lightyear reverify network.cfg edited.cfg properties.json --deadline 5 --wall-budget 300
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from repro.bgp.configjson import config_from_json, config_to_json
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

# The process entry's collector thresholds (CPython's default is
# (700, 10, 10)): every stored clause, watch list and interned term is a
# tracked container, and each young collection walks the survivors again.
GC_THRESHOLD = (50_000, 20, 100)


def _load_config(path: str):
    """Load a configuration: JSON file, dialect file, or a directory.

    A directory is treated the way production repositories are laid out —
    one dialect file per device (plus shared route-map files); the pieces
    are concatenated (sorted by name) and parsed as one network.
    """
    target = Path(path)
    if target.suffix == ".json" and not target.is_dir():
        return config_from_json(target.read_text())
    # The dialect parser is imported only for dialect inputs.
    from repro.bgp.configparse import parse_config

    if target.is_dir():
        pieces = sorted(
            p for p in target.iterdir() if p.suffix in (".cfg", ".txt", ".conf")
        )
        if not pieces:
            raise ValueError(f"{path}: no .cfg/.txt/.conf files in directory")
        return parse_config("\n".join(p.read_text() for p in pieces))
    return parse_config(target.read_text())


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


def _parse_budget(value: str) -> int:
    """``--budget`` argument: a conflict count, zero or more."""
    try:
        budget = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of conflicts, got {value!r}"
        ) from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative budget, got {budget}")
    return budget


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
    """The spec's problems as (prop, invariants) pairs."""
    problems: list[tuple] = []
    for sspec in spec.safety:
        problems.append((sspec.property, sspec.build_invariants(topology)))
    for prop in spec.liveness:
        problems.append((prop, None))
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
    # One wall budget for the whole invocation: the workspace fixes one
    # absolute deadline when it is opened, so it spans every property (and
    # a reverify's base run), not each run separately.
    limits = dict(
        parallel=args.jobs,
        conflict_budget=args.budget,
        deadline_s=args.deadline,
        wall_budget_s=args.wall_budget,
    )
    loaded = cache_path is not None and cache_path.exists()
    if not loaded:
        workspace = Workspace(config, ghosts=ghosts, **limits)
    else:
        workspace = Workspace.load(cache_path, config, ghosts, **limits)
        for prop, invariants in problems:
            if workspace.entry(prop, invariants) is None:
                raise WorkspaceCacheMismatch(
                    f"workspace cache at {cache_path} does not cover this spec "
                    f"(no cached outcomes for {prop}); delete the cache or rerun "
                    f"without --cache"
                )
    return workspace, loaded


def _reports_exit_code(reports) -> int:
    """Map a run's reports to the exit-code contract in the module header.

    A real counterexample dominates (1); otherwise any UNKNOWN outcome or
    degraded execution demotes a "pass" to :data:`EXIT_DEGRADED`.
    """
    if any(report.failures for report in reports):
        return 1
    for report in reports:
        if report.unknowns or report.degradation.degraded():
            return EXIT_DEGRADED
    return 0


def _consulted_line(report, label: str = "reverify") -> str:
    # A run consults exactly the checks it re-runs: reused groups are
    # taken whole, never inspected check by check.
    return (
        f"  {label}: consulted {report.rerun_checks} of {report.num_checks} checks "
        f"({report.rerun_checks} re-run, {report.reused_checks} reused)"
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
        for prop, invariants in problems:
            report = workspace.verify(prop, invariants)
            print(format_report(report, verbose=args.verbose))
            if loaded:
                print(_consulted_line(report, "cache"))
                reran = reran or report.rerun_checks > 0
            print()
            reports.append(report)
        # A loaded cache is rewritten only if this run repaired it: the
        # config matches by construction, so the only groups it can have
        # re-run are those cached as time-bound UNKNOWNs.
        if cache_path is not None and (reran or not loaded):
            workspace.save(cache_path)

    totals = (
        f"totals: {sum(report.num_checks for report in reports)} local checks, "
        f"largest {max((report.max_vars for report in reports), default=0)} vars / "
        f"{max((report.max_clauses for report in reports), default=0)} constraints"
    )
    if args.verbose:
        # Durations differ from run to run; default output does not.
        totals += (
            f", {sum(report.wall_time_s for report in reports):.2f}s "
            f"({sum(report.solve_time_s for report in reports):.2f}s solving)"
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
            for prop, invariants in problems:
                report = workspace.verify(prop, invariants)
                if args.verbose:
                    print(f"base: {report.summary(verbose=True)}")
            if cache_path is not None:
                # Persist the *base* outcomes: later invocations (each a
                # fresh process) load them and skip the base run — the
                # daemonless amortization the cache exists for.
                workspace.save(cache_path)

        # Only the spec's entries: a loaded cache may hold more properties
        # than this invocation asked about, and those must not leak into
        # the output or the exit code.
        selected = [workspace.entry(prop, invariants) for prop, invariants in problems]
        workspace.apply(edited)
        for entry in workspace.reverify(selected):
            print(format_report(entry.report, verbose=args.verbose))
            print(_consulted_line(entry.report))
            print()
            reports.append(entry.report)
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
        "--budget", type=_parse_budget, default=None, help="per-check SAT conflict budget"
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


def build_parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def run(argv: list[str] | None = None) -> NoReturn:
    """The process entry: :func:`main` under a process-wide GC policy.

    Raises the collector's thresholds for the run, then freezes the heap
    once ``main`` has returned, so interpreter teardown does not walk
    every object still alive again; exit handlers, stdio flushing and the
    exit code are ``sys.exit``'s as usual.  Only the process entry makes
    this choice: ``main`` and library callers keep CPython's defaults.
    """
    # Imported here: ``gc`` is built in but not loaded at start-up, and an
    # in-process ``main`` has no use for it.
    import gc

    gc.set_threshold(*GC_THRESHOLD)
    code = main(argv)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
