"""The end-to-end benchmark harness: workloads, samples, metrics.

One harness process spawns **one child at a time**; every sample is a
fresh child process, because ``repro`` keeps module-global term caches and
an intern table that make repeat N of an in-process loop faster than
repeat 1.  Wall, CPU and peak RSS of a child come from ``os.wait4``.

Everything runs serial: no ``--jobs``, and ``REPRO_BACKEND`` is removed
from the child environment together with the fault-injection variables.
The harness reads and writes only under ``benchmarks/e2e/out/``.

See ``README.md`` for the metric and workload tables.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import e2e_calibrate
import e2e_inputs
import e2e_tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD = HERE / "e2e_child.py"
CALIBRATE = HERE / "e2e_calibrate.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

DROPPED_ENV = ("REPRO_BACKEND", "REPRO_FAULTS", "REPRO_CHAOS_SEED")
OP_TIMEOUT_S = 120.0
SETUP_REPEATS = 3
MIN_SAMPLES = 3
MAX_SAMPLES = 40
STARTUP_REPEATS = 5
CACHE_FILENAME = "workspace.lyc"

# Input sizes of the real benchmark; tests pass smaller ones.
SIZES: dict[str, dict[str, Any]] = {
    "fullmesh_cli": {"n": 100},
    "reverify_cache_cli": {"n": 100},
    "wan_table4": {"regions": 12, "routers_per_region": 5},
    "policy_diverse_cli": {"n": 100},
    "monolithic_baseline": {
        "cases": [
            {"n": 4, "drop_deny": False},
            {"n": 5, "drop_deny": False},
            {"n": 5, "drop_deny": True},
        ]
    },
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def child_env(workdir: Path, hash_seed: int = 0) -> dict[str, str]:
    """The environment every child runs in: fixed, serial, no fault hooks."""
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["TMPDIR"] = str(workdir)
    return env


def run_child(argv: list[str], env: dict[str, str], workdir: Path) -> ChildResult:
    """Run one child to completion; spawn-to-exit wall and ``wait4`` rusage."""
    out_path = workdir / "child.stdout"
    err_path = workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    timer.join()
    # wait4 reaped the child behind Popen's back; tell it so.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        timed_out=wall >= OP_TIMEOUT_S and proc.returncode < 0,
    )


class HostSpeed:
    """How much slower than the reference the host is right now.

    ``factor()`` runs the calibration child and returns the mean of this
    and the previous reading over the reference — so a measurement
    bracketed by two ``factor()`` calls is scaled by the speed before and
    after it, and consecutive measurements share a reading."""

    def __init__(self, env: dict[str, str], workdir: Path) -> None:
        self._env = env
        self._workdir = workdir
        self._last = self._read()

    def _read(self) -> float:
        return run_child([sys.executable, str(CALIBRATE)], self._env, self._workdir).wall_s

    def factor(self) -> float:
        previous, self._last = self._last, self._read()
        return (previous + self._last) / 2 / e2e_calibrate.REFERENCE_S


# ---------------------------------------------------------------------------
# Observing what a command answered
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(r": (PASSED|FAILED)(?: \([^)]*\))? — (\d+) local checks")
_CONSULTED = re.compile(
    r"consulted (\d+) of (\d+) checks \((\d+) re-run, (\d+) reused\)"
)
_FAILED_CHECK = re.compile(r"^FAILED \w[\w-]* check (?:at \S+ )?on (\S+):", re.M)
_BLAMED = re.compile(r"blamed router: (\S+)")
_DIFF = re.compile(r"^config diff: changed: (.*)$", re.M)


def observe_cli(result: ChildResult) -> dict[str, Any]:
    """What ``lightyear verify``/``reverify`` printed, as comparable facts."""
    text = result.stdout
    summaries = _SUMMARY.findall(text)
    seen: dict[str, Any] = {
        "exit_code": result.exit_code,
        "verdicts": [verdict for verdict, __ in summaries],
        "checks": sum(int(checks) for __, checks in summaries),
        "failing_edges": sorted(_FAILED_CHECK.findall(text)),
        "blamed_routers": sorted(set(_BLAMED.findall(text))),
        "undecided": text.count("UNKNOWN ("),
    }
    consulted = _CONSULTED.search(text)
    if consulted:
        seen["consulted"], seen["total"], seen["rerun"], seen["reused"] = map(
            int, consulted.groups()
        )
    diff = _DIFF.search(text)
    if diff:
        seen["changed"] = sorted(part.strip() for part in diff.group(1).split(","))
    seen["answered"] = seen["checks"]
    return seen


def observe_wan(result: ChildResult) -> dict[str, Any]:
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    seen["exit_code"] = result.exit_code
    parts = [*seen["families"].values(), seen["buggy"]]
    seen["answered"] = sum(part["checks"] for part in parts)
    seen["undecided"] = sum(part["undecided"] for part in parts)
    return seen


def observe_monolithic(result: ChildResult) -> dict[str, Any]:
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    seen["exit_code"] = result.exit_code
    seen["answered"] = len(seen["cases"])
    seen["undecided"] = sum(1 for case in seen["cases"] if case["undecided"])
    return seen


OBSERVERS: dict[str, Callable[[ChildResult], dict[str, Any]]] = {
    "cli": observe_cli,
    "wan": observe_wan,
    "monolithic": observe_monolithic,
}


def mismatches(expected: Any, seen: Any, path: str = "") -> list[str]:
    """Where ``seen`` differs from ``expected`` (keys absent from
    ``expected`` are not compared)."""
    if isinstance(expected, dict):
        if not isinstance(seen, dict):
            return [f"{path}: expected {expected!r}, saw {seen!r}"]
        found: list[str] = []
        for key, value in expected.items():
            found += mismatches(value, seen.get(key), f"{path}.{key}" if path else key)
        return found
    return [] if expected == seen else [f"{path}: expected {expected!r}, saw {seen!r}"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One process of a sample: ``kind`` is ``cli`` or an API driver."""

    label: str
    kind: str
    args: list[str]
    expected: dict[str, Any]

    def argv(self, trace_path: Path | None = None, sample: str = "") -> list[str]:
        if trace_path is not None:
            return [
                sys.executable, str(CHILD), "--trace", str(trace_path), "--sample", sample,
                self.kind, *self.args,
            ]  # fmt: skip
        if self.kind == "cli":
            return [sys.executable, "-m", "repro.cli", *self.args]
        return [sys.executable, str(CHILD), self.kind, *self.args]


@dataclass
class Prepared:
    """A workload's generated inputs, ready to be sampled."""

    commands: list[Command]
    manifest: dict[str, Any]
    # The set-up command that wrote the cache (reverify only), so a traced
    # run can time the cache write too.
    priming: Command | None = None
    cache_file: Path | None = None


def _write(path: Path, doc: dict[str, Any]) -> str:
    path.write_text(e2e_inputs.dump(doc))
    return str(path)


def _overlay(base: dict[str, Any], over: dict[str, Any]) -> dict[str, Any]:
    """``base`` with ``over`` laid on top, recursing into nested dicts."""
    merged = dict(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _overlay(merged[key], value)
        else:
            merged[key] = value
    return merged


def _expected(workload: str, label: str, seed: int, derived: dict[str, Any], sizes: dict) -> dict:
    """Expected facts for one command.

    ``derived`` comes from how the generator built the input.  At the
    benchmark's own sizes the hand-written ``expected.json`` is laid over
    it: its literal counts, and for the seeds it lists its literal bug
    locations, so a generator or formula that drifts shows as a wrong
    verdict rather than moving the goalposts.
    """
    if sizes != SIZES[workload]:
        return derived
    entry = EXPECTED[workload]
    pinned = entry.get("by_seed", {}).get(str(seed), {}).get(label, {})
    return _overlay(_overlay(derived, entry["commands"][label]), pinned)


def prepare_fullmesh(workdir: Path, seed: int, sizes: dict, env: dict) -> Prepared:
    config, spec, manifest = e2e_inputs.fullmesh(sizes["n"], seed)
    args = ["verify", _write(workdir / "mesh.json", config), _write(workdir / "spec.json", spec)]
    derived = {
        "exit_code": 0, "verdicts": ["PASSED"], "checks": manifest["checks"],
        "failing_edges": [], "undecided": 0,
    }  # fmt: skip
    expected = _expected("fullmesh_cli", "verify", seed, derived, sizes)
    return Prepared([Command("verify", "cli", args, expected)], manifest)


def prepare_reverify(workdir: Path, seed: int, sizes: dict, env: dict) -> Prepared:
    """Same mesh, one seeded single-router edit, cache primed by a full
    ``verify --cache`` here in set-up (so a fatter cache write shows in
    ``setup_s``)."""
    config, spec, manifest = e2e_inputs.fullmesh(sizes["n"], seed)
    edited, edit = e2e_inputs.fullmesh_edit(config, seed)
    manifest.update(edit)
    base = _write(workdir / "mesh.json", config)
    spec_path = _write(workdir / "spec.json", spec)
    cache_dir = workdir / "cache"
    clean = {"exit_code": 0, "verdicts": ["PASSED"], "failing_edges": [], "undecided": 0}
    priming = Command(
        "prime", "cli", ["verify", base, spec_path, "--cache", str(cache_dir)],
        _expected("reverify_cache_cli", "prime", seed, {**clean, "checks": manifest["checks"]}, sizes),
    )  # fmt: skip
    primed = run_child(priming.argv(), env, workdir)
    wrong = mismatches(priming.expected, observe_cli(primed))
    if wrong:
        raise RuntimeError(f"cache priming failed: {wrong}\n{primed.stderr}")
    derived = {
        **clean,
        "total": manifest["checks"],
        "consulted": manifest["checks_per_owner"],
        "rerun": manifest["checks_per_owner"],
        "reused": manifest["checks"] - manifest["checks_per_owner"],
        "changed": [edit["edited_router"]],
    }
    args = [
        "reverify", base, _write(workdir / "edited.json", edited), spec_path,
        "--cache", str(cache_dir),
    ]  # fmt: skip
    expected = _expected("reverify_cache_cli", "reverify", seed, derived, sizes)
    return Prepared(
        [Command("reverify", "cli", args, expected)], manifest, priming, cache_dir / CACHE_FILENAME
    )


def wan_check_counts(regions: int, per_region: int) -> dict[str, int]:
    """Check counts of the Table-4 sweep, from the shape ``build_wan`` gives
    with its defaults (one edge router with two peers and one data centre
    per region, regions chained router-to-router)."""
    routers = regions * per_region
    internal = regions * per_region * (per_region - 1) // 2 + (regions - 1) * per_region
    external = regions * 3
    per_edge_checks = e2e_inputs.safety_check_count(internal, external) - 1
    return {
        # Eleven families; each asks its property at every router.
        "peering": 11 * (per_edge_checks + routers),
        # One family per region, asked at every router outside the region.
        "ip_reuse_safety": regions * (per_edge_checks + routers - per_region),
        # Per region: three propagation checks along DC -> R1 -> R2, the
        # implication, and one no-interference sub-proof (a one-property
        # safety problem) at each of the two routers on the path.
        "ip_reuse_liveness": regions * (3 + 1 + 2 * (per_edge_checks + 1)),
        "buggy": per_edge_checks + routers,
    }


def prepare_wan(workdir: Path, seed: int, sizes: dict, env: dict) -> Prepared:
    regions, per_region = sizes["regions"], sizes["routers_per_region"]
    region = e2e_inputs.seeded_rng("wan", seed).randrange(regions)
    router = f"W{region}-0"
    params = {**sizes, "buggy_edge_router": router}
    counts = wan_check_counts(regions, per_region)
    problems = {"peering": 11, "ip_reuse_safety": regions, "ip_reuse_liveness": regions}
    derived = {
        "exit_code": 0,
        "routers": regions * per_region,
        "families": {
            name: {"problems": n, "passed": n, "checks": counts[name], "undecided": 0}
            for name, n in problems.items()
        },
        "buggy": {
            "passed": False,
            "checks": counts["buggy"],
            "undecided": 0,
            "failing_edges": [f"Peer-{router}-{p}->{router}" for p in range(2)],
            "blamed_routers": [router],
        },
    }
    expected = _expected("wan_table4", "table4", seed, derived, sizes)
    args = [_write(workdir / "wan.json", params)]
    return Prepared([Command("table4", "wan", args, expected)], {**params, **counts})


def prepare_policy_diverse(workdir: Path, seed: int, sizes: dict, env: dict) -> Prepared:
    config, spec, manifest = e2e_inputs.policy_diverse(sizes["n"], seed)
    buggy, bug = e2e_inputs.policy_diverse_bug(config, seed)
    manifest.update(bug)
    spec_path = _write(workdir / "spec.json", spec)
    common = {"checks": manifest["checks"], "undecided": 0}
    clean = {**common, "exit_code": 0, "verdicts": ["PASSED"], "failing_edges": []}
    broken = {
        **common, "exit_code": 1, "verdicts": ["FAILED"],
        "failing_edges": [bug["failing_edge"]], "blamed_routers": [bug["blamed_router"]],
    }  # fmt: skip
    name = "policy_diverse_cli"
    return Prepared(
        [
            Command(
                "clean", "cli", ["verify", _write(workdir / "clean.json", config), spec_path],
                _expected(name, "clean", seed, clean, sizes),
            ),
            Command(
                "buggy", "cli", ["verify", _write(workdir / "buggy.json", buggy), spec_path],
                _expected(name, "buggy", seed, broken, sizes),
            ),
        ],
        manifest,
    )  # fmt: skip


def prepare_monolithic(workdir: Path, seed: int, sizes: dict, env: dict) -> Prepared:
    """Seed-independent on purpose: the CDCL search is deterministic, so the
    conflict and propagation counts repeat exactly across runs and seeds."""
    derived = {
        "exit_code": 0,
        "cases": [
            {
                **case,
                "verified": not case["drop_deny"],
                "undecided": False,
                "location": "R2->E2" if case["drop_deny"] else None,
            }
            for case in sizes["cases"]
        ],
    }
    expected = _expected("monolithic_baseline", "minesweeper", seed, derived, sizes)
    args = [_write(workdir / "cases.json", sizes)]
    return Prepared([Command("minesweeper", "monolithic", args, expected)], dict(sizes))


PREPARE: dict[str, Callable[[Path, int, dict, dict], Prepared]] = {
    "fullmesh_cli": prepare_fullmesh,
    "reverify_cache_cli": prepare_reverify,
    "wan_table4": prepare_wan,
    "policy_diverse_cli": prepare_policy_diverse,
    "monolithic_baseline": prepare_monolithic,
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------------
# Set-up and samples
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, sizes: dict, rundir: Path, hash_seed: int):
    """Generate the inputs in a fresh directory; returns (prepared, env,
    workdir, seconds).  Also imports the program once in a child, which
    fails fast when it is not importable and leaves its bytecode cached —
    a cost users pay once, not per verdict."""
    start = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=rundir))
    env = child_env(workdir, hash_seed)
    preflight = run_child([sys.executable, "-c", "import repro.cli"], env, workdir)
    if preflight.exit_code != 0:
        raise RuntimeError(f"cannot import repro.cli:\n{preflight.stderr}")
    prepared = PREPARE[workload](workdir, seed, sizes, env)
    return prepared, env, workdir, time.perf_counter() - start


@dataclass
class Sample:
    # Raw seconds, and the same at the reference host speed (each command's
    # time divided by the host slowness read around that command).
    raw_wall_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    answered: int = 0
    undecided: int = 0
    reused: int = 0
    wrong: list[str] = field(default_factory=list)
    failed: bool = False
    traces: list[dict[str, Any]] = field(default_factory=list)


def scale_trace(trace: dict[str, Any], slowness: float) -> dict[str, Any]:
    """``trace`` with every duration divided by the host slowness."""
    return {
        **trace,
        "aggregates": [
            {**row, "total_s": row["total_s"] / slowness, "self_s": row["self_s"] / slowness}
            for row in trace["aggregates"]
        ],
        "counters": {
            name: value / slowness if name.endswith("_s") else value
            for name, value in trace["counters"].items()
        },
    }


def run_command(
    command: Command, env: dict, workdir: Path, sample: Sample, host: HostSpeed, trace_id: str = ""
) -> None:
    """Run one command of a sample, read the host speed after it, and fold
    the result into ``sample``."""
    trace_path = workdir / "trace.json" if trace_id else None
    result = run_child(command.argv(trace_path, trace_id), env, workdir)
    slowness = host.factor()
    sample.raw_wall_s += result.wall_s
    sample.wall_s += result.wall_s / slowness
    sample.cpu_s += result.cpu_s / slowness
    sample.rss_mb = max(sample.rss_mb, result.rss_mb)
    if result.timed_out or result.exit_code != command.expected["exit_code"]:
        sample.failed = True
        sample.wrong.append(
            f"{command.label}: exit {result.exit_code}"
            f"{' (timeout)' if result.timed_out else ''}: {result.stderr.strip()[-300:]}"
        )
        return
    try:
        seen = OBSERVERS[command.kind](result)
    except (ValueError, KeyError, IndexError) as exc:
        sample.failed = True
        sample.wrong.append(f"{command.label}: unreadable output ({exc!r})")
        return
    sample.answered += seen["answered"]
    sample.undecided += seen["undecided"]
    sample.reused += seen.get("reused", 0)
    sample.wrong += [f"{command.label}: {m}" for m in mismatches(command.expected, seen)]
    if trace_path is not None:
        sample.traces.append(scale_trace(json.loads(trace_path.read_text()), slowness))


def run_sample(
    prepared: Prepared, env: dict, workdir: Path, host: HostSpeed, trace_id: str = ""
) -> Sample:
    sample = Sample()
    for command in prepared.commands:
        run_command(command, env, workdir, sample, host, trace_id and f"{trace_id}/{command.label}")
    return sample


def sample_until(seconds: float, take: Callable[[], None], at_least: int) -> None:
    """Call ``take()`` ``at_least`` times, then for as long as one more call
    like the last fits in ``seconds``."""
    start = time.perf_counter()
    taken = 0
    last = 0.0
    while taken < MAX_SAMPLES:
        before = time.perf_counter()
        if taken >= at_least and before - start + last > seconds:
            break
        take()
        last = time.perf_counter() - before
        taken += 1


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def describe(values: list[float]) -> dict[str, float]:
    """Median, quartiles, min, max and n — with at most a few dozen samples
    no tail percentile has ten samples beyond it."""
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0] if values else 0.0
    return {
        "median": _median(values), "q1": q1, "q3": q3,
        "min": min(values, default=0.0), "max": max(values, default=0.0), "n": len(values),
    }  # fmt: skip


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    metrics: dict[str, float]
    attempted: int
    failed: int
    wrong: list[str]
    undecided: int
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.undecided and self.failed == 0


@contextlib.contextmanager
def run_directory() -> Iterator[Path]:
    """A fresh directory under ``out/`` for one run, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        yield rundir
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _result(workload: str, metrics: dict[str, float], samples: list[Sample], detail: dict) -> RunResult:
    return RunResult(
        workload=workload,
        metrics=metrics,
        attempted=len(samples),
        failed=sum(1 for s in samples if s.failed),
        wrong=[w for s in samples for w in s.wrong],
        undecided=sum(s.undecided for s in samples),
        detail=detail,
    )


def measure_end_to_end(
    workload: str, seed: int, seconds: float, sizes: dict | None = None, hash_seed: int = 0
) -> RunResult:
    """The untraced run: set up ``SETUP_REPEATS`` times, then fresh-process
    samples for ``seconds``; medians over the samples that did not fail.

    Every set-up and every command is bracketed by host-speed readings and
    its times are divided by the slowness they show (see
    :mod:`e2e_calibrate`); the raw medians go to the detail record."""
    sizes = SIZES[workload] if sizes is None else sizes
    with run_directory() as rundir:
        host = HostSpeed(child_env(rundir, hash_seed), rundir)
        raw_setups = []
        setups = []
        for __ in range(SETUP_REPEATS):
            prepared, env, workdir, took = set_up(workload, seed, sizes, rundir, hash_seed)
            raw_setups.append(took)
            setups.append(took / host.factor())
        samples: list[Sample] = []
        sample_until(
            seconds, lambda: samples.append(run_sample(prepared, env, workdir, host)), MIN_SAMPLES
        )
    good = [s for s in samples if not s.failed]
    walls = [s.wall_s for s in good]
    metrics = {
        "verdict_wall_s": _median(walls),
        "verdict_cpu_s": _median([s.cpu_s for s in good]),
        "checks_per_s": _median([s.answered / s.wall_s for s in good]),
        "peak_rss_mb": _median([s.rss_mb for s in good]),
        "setup_s": _median(setups),
    }
    detail = {
        "verdict_wall_s": describe(walls),
        "raw_wall_s": describe([s.raw_wall_s for s in good]),
        "raw_setup_s": describe(raw_setups),
        "host_slowness": describe([s.raw_wall_s / s.wall_s for s in good]),
    }
    return _result(workload, metrics, samples, detail)


def merge_traces(traces: list[dict[str, Any]]) -> dict[str, Any]:
    """One trace for a multi-command sample: times and counts add up; the
    two size gauges take their maximum."""
    counters: dict[str, float] = {}
    for trace in traces:
        for name, value in trace["counters"].items():
            if name in ("lang.universe_atoms", "startup.modules_loaded"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return {
        "aggregates": [row for trace in traces for row in trace["aggregates"]],
        "counters": counters,
    }


def startup_import_s(env: dict, workdir: Path) -> float:
    """Fresh ``import repro.cli`` minus a bare interpreter, medians."""

    def timed(code: str) -> float:
        return _median(
            [run_child([sys.executable, "-c", code], env, workdir).wall_s for __ in range(STARTUP_REPEATS)]
        )

    return timed("import repro.cli") - timed("pass")


# Per-layer metrics the harness measures itself, not read from a trace.
HARNESS_LAYER_METRICS = (
    "startup.import_s", "core.checks_reused", "core.cache_save_s", "cache_bytes",
    "trace.overhead_share",
)  # fmt: skip


def measure_layers(
    workload: str, seed: int, seconds: float, sizes: dict | None = None, hash_seed: int = 0
) -> RunResult:
    """The traced run: alternate an untraced and a traced fresh-process
    sample for ``seconds`` (at least one pair); per-layer metrics are
    medians over the traced samples, ``trace.overhead_share`` compares the
    two kinds of wall time.  Times are scaled to the reference host speed
    like the end-to-end ones.  Traces go to ``out/trace.json``."""
    sizes = SIZES[workload] if sizes is None else sizes
    with run_directory() as rundir:
        prepared, env, workdir, __ = set_up(workload, seed, sizes, rundir, hash_seed)
        host = HostSpeed(env, workdir)
        import_s = startup_import_s(env, workdir) / host.factor()
        cache_save_s = 0.0
        if prepared.priming is not None:
            # Time the cache write: the priming command again, traced, into
            # a scratch cache directory.
            scratch = workdir / "cache-traced"
            priming = Command(
                "prime", "cli", [*prepared.priming.args[:-1], str(scratch)], prepared.priming.expected
            )
            primed = Sample()
            run_command(priming, env, workdir, primed, host, "prime")
            if primed.traces:
                cache_save_s = e2e_tracer.layer_metrics(primed.traces[0])["core.cache_save_s"]
        plain: list[Sample] = []
        traced: list[Sample] = []

        def take_pair() -> None:
            plain.append(run_sample(prepared, env, workdir, host))
            traced.append(run_sample(prepared, env, workdir, host, f"{workload}#{len(traced)}"))

        sample_until(seconds, take_pair, at_least=1)
        cache_bytes = prepared.cache_file.stat().st_size if prepared.cache_file else 0

    good = [s for s in traced if not s.failed and s.traces]
    per_sample = [e2e_tracer.layer_metrics(merge_traces(s.traces)) for s in good]
    names = per_sample[0] if per_sample else e2e_tracer.layer_metrics(merge_traces([]))
    metrics = {name: _median([m[name] for m in per_sample]) for name in names}
    metrics["startup.import_s"] = import_s
    metrics["core.checks_reused"] = _median([float(s.reused) for s in good])
    metrics["core.cache_save_s"] = cache_save_s
    metrics["cache_bytes"] = cache_bytes
    plain_wall = _median([s.wall_s for s in plain if not s.failed])
    traced_wall = _median([s.wall_s for s in good])
    metrics["trace.overhead_share"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    (OUT / "trace.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "samples": [s.traces for s in good]})
    )
    detail = {"layer_self_s": layer_shares(metrics), "traced_samples": len(good)}
    return _result(workload, metrics, plain + traced, detail)


LAYERS = ("startup", "bgp", "lang", "core", "smt", "baselines")
# Metrics ending in ``_s`` that are not a span's self time: a separate
# probe, parts of ``smt.check_s``, a rate, a total, a set-up-time span.
NOT_SELF_TIME = (
    "startup.import_s", "smt.encode_s", "smt.solve_s", "smt.propagations_per_s",
    "baselines.solve_s", "core.cache_save_s",
)  # fmt: skip


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer from a traced run's metrics.  ``smt`` counts
    the whole self time of the check spans (encode + solve + bookkeeping),
    so the metrics that are parts or totals of other spans are left out."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, value in metrics.items():
        layer, __, rest = name.partition(".")
        if layer in totals and rest.endswith("_s") and name not in NOT_SELF_TIME:
            totals[layer] += value
    return totals
