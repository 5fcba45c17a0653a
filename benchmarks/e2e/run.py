"""The repo benchmark: cold-shell time-to-verdict, plus a traced per-layer run.

Two ways to run it (from anywhere; paths are taken from this file):

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload — the form the benchmark driver calls.  With
    ``--trace 0`` it sets up, measures fresh-process samples for S seconds
    and reports every end-to-end metric; with ``--trace 1`` it reports
    every per-layer metric from traced samples.  The last line of standard
    output is one JSON object: ``correct``, ``attempted``, ``failed``,
    ``metrics``.

``python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--aa]``
    Every workload, untraced then traced, as tables with unit, direction
    and bound; the record goes to ``benchmarks/e2e/out/results.json``.
    ``--aa`` runs two interleaved sets of the same tree (the second under
    another ``PYTHONHASHSEED``) and exits non-zero unless every end-to-end
    metric agrees within its bound and the deterministic counters are equal.

Exit codes: 0 success; 1 a wrong verdict, an undecided check, a failed
operation or an ``--aa`` miss; 2 the program under test is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any

# Counts that must repeat exactly between two runs of one tree.
DETERMINISTIC = (
    "core.checks_generated", "core.checks_run", "smt.queries", "smt.distinct_queries",
    "smt.vars_encoded", "smt.clauses_encoded", "smt.decisions", "smt.propagations",
    "smt.conflicts", "cache_bytes",
)  # fmt: skip


def emit(spec_metrics: list[dict[str, Any]], result: Any) -> str:
    """The driver's result line: every metric of the list, as measured."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                for m in spec_metrics
            },
        }
    )


def complain(result: Any) -> None:
    for line in result.wrong[:20]:
        print(f"  WRONG {result.workload}: {line}", file=sys.stderr)
    if result.undecided:
        print(f"  UNDECIDED {result.workload}: {result.undecided} checks", file=sys.stderr)


def worse_by(metric: dict[str, Any], base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def table(metrics: list[dict[str, Any]], columns: dict[str, dict[str, float]]) -> str:
    names = list(columns)
    lines = [f"{'metric':28} {'unit':6} {'better':6} {'bound':>6}  " + "  ".join(f"{n[:18]:>18}" for n in names)]
    for m in metrics:
        bound = f"{m['bound']:.2f}" if "bound" in m else "-"
        cells = "  ".join(f"{columns[n][m['name']]:18.6g}" for n in names)
        lines.append(f"{m['name']:28} {m['unit']:6} {m['better']:6} {bound:>6}  {cells}")
    return "\n".join(lines)


def environment(harness: Any) -> dict[str, Any]:
    commit = "unknown"
    if (harness.ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "loadavg_before": os.getloadavg(),
    }


def run_all(harness: Any, args: argparse.Namespace) -> int:
    spec = harness.SPEC
    record: dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, **environment(harness)}
    sets = {"A": 0, "B": 1} if args.aa else {"A": 0}  # set name -> PYTHONHASHSEED
    end_to_end: dict[str, dict[str, float]] = {}
    layers: dict[str, dict[str, float]] = {}
    status = 0
    for workload in harness.WORKLOADS:
        for measure, store in ((harness.measure_end_to_end, end_to_end), (harness.measure_layers, layers)):
            for label, hash_seed in sets.items():
                result = measure(workload, args.seed, args.seconds, hash_seed=hash_seed)
                column = workload if not args.aa else f"{workload}/{label}"
                store[column] = result.metrics
                record.setdefault("runs", []).append(
                    {
                        "workload": workload, "set": label, "kind": measure.__name__,
                        "correct": result.correct, "attempted": result.attempted,
                        "failed": result.failed, "metrics": result.metrics, "detail": result.detail,
                    }
                )  # fmt: skip
                print(
                    f"{measure.__name__:19} {column:24} samples={result.attempted} "
                    f"failed_ops={result.failed}/{result.attempted} wrong_verdicts={len(result.wrong)} "
                    f"undecided_checks={result.undecided}",
                    flush=True,
                )
                if not result.correct:
                    complain(result)
                    status = 1
    print("\nEnd-to-end (untraced; medians over fresh-process samples)")
    print(table(spec["end_to_end"], end_to_end))
    print("\nPer layer (traced; self time = span minus child spans)")
    print(table(spec["per_layer"], layers))
    print("\nLargest self-time layer per workload")
    for run in record["runs"]:
        if run["kind"] == "measure_layers":
            shares = run["detail"]["layer_self_s"]
            top = max(shares, key=shares.get)
            print(f"  {run['workload']:22} {run['set']}  {top:10} " + " ".join(f"{k}={v:.3f}s" for k, v in shares.items()))
    if args.aa:
        print("\nA/A: second set against the first, and the first against the second")
        for workload in harness.WORKLOADS:
            a, b = f"{workload}/A", f"{workload}/B"
            for m in spec["end_to_end"]:
                worst = max(
                    worse_by(m, end_to_end[a][m["name"]], end_to_end[b][m["name"]]),
                    worse_by(m, end_to_end[b][m["name"]], end_to_end[a][m["name"]]),
                )
                ok = worst <= m["bound"]
                print(f"  {'ok  ' if ok else 'MISS'} {workload:22} {m['name']:16} differs {worst:+.3f} (bound {m['bound']:.2f})")
                status = status if ok else 1
            for name in DETERMINISTIC:
                if layers[a][name] != layers[b][name]:
                    print(f"  MISS {workload:22} {name} {layers[a][name]} != {layers[b][name]}")
                    status = 1
        print("  deterministic counters compared: " + ", ".join(DETERMINISTIC))
    record["loadavg_after"] = os.getloadavg()
    harness.OUT.mkdir(exist_ok=True)
    (harness.OUT / "results.json").write_text(json.dumps(record, indent=1))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 development, 1 held out)")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="two interleaved sets of the same tree")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(here, "..", "..", "src", "repro", "cli.py")):
        print("benchmark: src/repro is not in this checkout; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, here)
    import e2e_harness as harness

    if args.seconds is None:
        args.seconds = float(harness.SPEC["run_seconds"])
    if args.workload is None:
        return run_all(harness, args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {harness.WORKLOADS}")
    if args.trace:
        result = harness.measure_layers(args.workload, args.seed, args.seconds)
        metrics = harness.SPEC["per_layer"]
    else:
        result = harness.measure_end_to_end(args.workload, args.seed, args.seconds)
        metrics = harness.SPEC["end_to_end"]
    complain(result)
    print(json.dumps(result.detail), file=sys.stderr)
    print(emit(metrics, result))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
