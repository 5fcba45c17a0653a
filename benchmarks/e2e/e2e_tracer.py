"""Span tracer for the traced benchmark run (choosing-metrics §4).

The tracer lives in the benchmark, not in ``repro``: it wraps the public
callables at each layer boundary from the outside, by rebinding the name
in every loaded ``repro.*`` module that holds it (``from x import f``
copies) and by replacing class attributes for methods.  ``uninstall``
restores every binding.

* A *span* has a name, start, end, the span that caused it (its parent)
  and the sample id.  Callables hit thousands of times per run are *hot*:
  they only aggregate ``(count, total, self)`` per ``(name, parent name)``
  instead of leaving one record per call.
* *Self time* of a span is its duration minus the part its child spans
  cover; every aggregate carries it, so a layer's time is the sum of the
  self times of its spans and nothing is counted twice.
* Counters are read at the same boundaries from public results only
  (``session.stats`` after a check, the returned universe / check list,
  ``SessionPool.stats()``, the lang-layer cache counters).

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

ROOT_SPAN = "root"

# (defining module, attribute, hot) for plain functions.
FUNCTION_TARGETS: tuple[tuple[str, str, bool], ...] = (
    ("repro.bgp.configjson", "config_from_json", False),
    ("repro.bgp.configparse", "parse_config", False),
    ("repro.bgp.configdiff", "diff_configs", False),
    ("repro.lang.specjson", "spec_from_json", False),
    ("repro.core.safety", "build_universe", False),
    ("repro.core.checks", "generate_safety_checks", False),
    ("repro.core.liveness", "generate_liveness_checks", False),
    ("repro.core.report", "format_report", False),
    ("repro.lang.transfer", "transfer_import", True),
    ("repro.lang.transfer", "transfer_export", True),
    ("repro.lang.transfer", "symbolic_originated", True),
    ("repro.lang.predicates", "predicate_term", True),
)

# (defining module, class, method, hot) for methods.
METHOD_TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.core.exec.scheduler", "Scheduler", "run", False),
    ("repro.core.checks", "LocalCheck", "run", True),
    ("repro.smt.solver", "CheckSession", "prepare", True),
    ("repro.smt.solver", "CheckSession", "check", True),
    ("repro.smt.solver", "CheckSession", "model", True),
    ("repro.smt.solver", "Solver", "check", False),
    ("repro.smt.solver", "Solver", "model", False),
    ("repro.smt.solver", "SessionPool", "get", True),
    ("repro.lang.symroute", "SymbolicRoute", "evaluate", True),
    ("repro.core.workspace", "Workspace", "verify", False),
    ("repro.core.workspace", "Workspace", "apply", False),
    ("repro.core.workspace", "Workspace", "reverify", False),
    ("repro.core.workspace", "Workspace", "save", False),
    ("repro.core.workspace", "Workspace", "load", False),
    ("repro.baselines.minesweeper", "MinesweeperVerifier", "verify", False),
)

# Which per-layer time metric the self time of each span name feeds.
SPAN_LAYER: dict[str, str] = {
    "startup.import": "startup.traced_import_s",
    "config_from_json": "bgp.parse_s",
    "parse_config": "bgp.parse_s",
    "diff_configs": "bgp.diff_s",
    "spec_from_json": "lang.spec_s",
    "build_universe": "lang.universe_s",
    "transfer_import": "lang.transfer_s",
    "transfer_export": "lang.transfer_s",
    "symbolic_originated": "lang.transfer_s",
    "predicate_term": "lang.predicate_s",
    "generate_safety_checks": "core.generate_s",
    "generate_liveness_checks": "core.generate_s",
    "Workspace.verify": "core.tracker_s",
    "Workspace.apply": "core.tracker_s",
    "Workspace.reverify": "core.tracker_s",
    "Scheduler.run": "core.schedule_s",
    "SessionPool.get": "core.schedule_s",
    "LocalCheck.run": "core.check_s",
    "format_report": "core.report_s",
    "Workspace.load": "core.cache_load_s",
    "Workspace.save": "core.cache_save_s",
    "CheckSession.prepare": "smt.prepare_s",
    "CheckSession.check": "smt.check_s",
    "Solver.check": "smt.check_s",
    "CheckSession.model": "smt.model_s",
    "Solver.model": "smt.model_s",
    "SymbolicRoute.evaluate": "smt.model_s",
    "MinesweeperVerifier.verify": "baselines.encode_s",
}


class Tracer:
    """In-memory spans, per-(name, parent) aggregates and named counters."""

    def __init__(self, sample_id: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.sample_id = sample_id
        self._clock = clock
        self.spans: list[dict[str, Any] | None] = []
        # (name, parent name) -> [count, total seconds, self seconds]
        self.aggregates: dict[tuple[str, str], list[float]] = {}
        self.counters: dict[str, float] = {}
        # Open frames: [seconds covered by child spans, name, span id or None].
        self._stack: list[list[Any]] = [[0.0, "<process>", None]]
        # Per-check accumulators, kept as a list because the hook that
        # feeds them runs once per local check: queries, encode seconds,
        # solve seconds, decisions, propagations, conflicts, restarts,
        # UNKNOWN answers.
        self._smt = [0, 0.0, 0.0, 0, 0, 0, 0, 0]
        self._queries: set[tuple[Any, ...]] = set()
        self._pools: dict[int, Any] = {}
        self._sessions: dict[int, Any] = {}

    # -- spans ---------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        hot: bool = False,
        after: Callable[[tuple[Any, ...], Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``after(args, result)`` reads counters.

        The wrapper's own cost lands in the *parent's* self time; it is kept
        small (one list, two clock reads, one dict lookup) and reported as
        ``trace.overhead_share``.
        """
        stack = self._stack
        aggregates = self.aggregates
        spans = self.spans
        clock = self._clock
        sample = self.sample_id
        slots: dict[str, list[float]] = {}  # parent name -> aggregate slot

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame: list[Any] = [0.0, name, None]
            if not hot:
                frame[2] = len(spans)
                spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                slot = slots.get(parent[1])
                if slot is None:
                    slot = slots[parent[1]] = aggregates.setdefault(
                        (name, parent[1]), [0, 0.0, 0.0]
                    )
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]
                if not hot:
                    spans[frame[2]] = {
                        "id": frame[2],
                        "sample": sample,
                        "name": name,
                        "parent": parent[2],
                        "parent_name": parent[1],
                        "start": start,
                        "end": end,
                    }
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` inside a one-off span."""
        return self.wrap(name, fn)()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- counter hooks (public results only) -----------------------------

    def _after_check(self, args: tuple[Any, ...], result: Any) -> None:
        """After ``CheckSession.check`` / ``Solver.check``: ``self.stats``."""
        solver = args[0]
        stats = solver.stats
        sat = stats.sat
        smt = self._smt
        smt[0] += 1
        smt[1] += stats.build_time_s
        smt[2] += stats.solve_time_s
        smt[3] += sat.decisions
        smt[4] += sat.propagations
        smt[5] += sat.conflicts
        smt[6] += sat.restarts
        if result.name == "UNKNOWN":
            smt[7] += 1
        if len(args) > 1:  # CheckSession.check(assertions, ...)
            self._queries.add(tuple(args[1]))
            self._sessions[id(solver)] = solver
        else:  # Solver.check(): a fresh encoding per call
            self._queries.add(solver.assertions)
            self.count("smt.vars_encoded", stats.num_vars)
            self.count("smt.clauses_encoded", stats.num_clauses)

    def _after_pool_get(self, args: tuple[Any, ...], result: Any) -> None:
        self._pools[id(args[0])] = args[0]

    def _after_universe(self, args: tuple[Any, ...], result: Any) -> None:
        atoms = len(result.communities) + len(result.asns) + len(result.ghosts)
        self.counters["lang.universe_atoms"] = max(
            self.counters.get("lang.universe_atoms", 0), atoms
        )

    def _after_generate(self, args: tuple[Any, ...], result: Any) -> None:
        # generate_liveness_checks returns a LivenessChecks whose sub-proof
        # lists were counted by the nested generate_safety_checks spans.
        if isinstance(result, list):
            self.count("core.checks_generated", len(result))
        else:
            self.count("core.checks_generated", len(result.propagation) + 1)

    def _after_config(self, args: tuple[Any, ...], result: Any) -> None:
        self.count("bgp.config_bytes", len(args[0].encode()))

    def after_hook(self, name: str) -> Callable[[tuple[Any, ...], Any], None] | None:
        return {
            "CheckSession.check": self._after_check,
            "Solver.check": self._after_check,
            "SessionPool.get": self._after_pool_get,
            "build_universe": self._after_universe,
            "generate_safety_checks": self._after_generate,
            "generate_liveness_checks": self._after_generate,
            "config_from_json": self._after_config,
            "parse_config": self._after_config,
        }.get(name)

    def finish_counters(self) -> None:
        """Read the end-of-run counters the layers publish themselves."""
        from repro.lang.predicates import predicate_term_cache_stats
        from repro.lang.transfer import transfer_cache_stats

        counters = self.counters
        for prefix, stats in (
            ("lang.transfer", transfer_cache_stats()),
            ("lang.predicate", predicate_term_cache_stats()),
        ):
            counters[prefix + "_hits"] = stats.hits
            counters[prefix + "_misses"] = stats.misses
        for name, value in zip(
            (
                "smt.queries",
                "smt.encode_s",
                "smt.solve_s",
                "smt.decisions",
                "smt.propagations",
                "smt.conflicts",
                "smt.restarts",
                "smt.unknown_results",
            ),
            self._smt,
        ):
            counters[name] = value
        counters["smt.distinct_queries"] = len(self._queries)
        for session in self._sessions.values():
            self.count("smt.vars_encoded", session.total_vars)
            self.count("smt.clauses_encoded", session.total_clauses)
            self.count("smt.shared_skips", session.shared_skips)
        for pool in self._pools.values():
            self.count("smt.learnts_kept", pool.stats()["learnts_kept"])

    # -- output --------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        return {
            "sample": self.sample_id,
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "count": c, "total_s": t, "self_s": s}
                for (name, parent), (c, t, s) in sorted(self.aggregates.items())
            ],
            "counters": dict(sorted(self.counters.items())),
        }


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------

Binding = tuple[Any, str, Any]  # (module or class, attribute, original value)


def import_targets() -> None:
    """Import every module that defines a target."""
    for module_name in {t[0] for t in FUNCTION_TARGETS} | {t[0] for t in METHOD_TARGETS}:
        importlib.import_module(module_name)


def install(tracer: Tracer) -> list[Binding]:
    """Wrap every target; returns the bindings ``uninstall`` restores."""
    import_targets()
    restored: list[Binding] = []
    loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "repro" and m]
    for module_name, attr, hot in FUNCTION_TARGETS:
        original = getattr(sys.modules[module_name], attr)
        traced = tracer.wrap(attr, original, hot, tracer.after_hook(attr))
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    restored.append((module, key, original))
                    setattr(module, key, traced)
    for module_name, class_name, attr, hot in METHOD_TARGETS:
        cls = getattr(sys.modules[module_name], class_name)
        original = vars(cls)[attr]
        name = f"{class_name}.{attr}"
        after = tracer.after_hook(name)
        if isinstance(original, classmethod):
            traced: Any = classmethod(tracer.wrap(name, original.__func__, hot, after))
        else:
            traced = tracer.wrap(name, original, hot, after)
        restored.append((cls, attr, original))
        setattr(cls, attr, traced)
    return restored


def uninstall(restored: list[Binding]) -> None:
    for holder, attr, original in reversed(restored):
        setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# Reading a trace: layer metrics
# ---------------------------------------------------------------------------


def _per_name(aggregates: list[dict[str, Any]], column: str) -> dict[str, float]:
    """``column`` summed per span name, over all parents."""
    out: dict[str, float] = {}
    for row in aggregates:
        out[row["name"]] = out.get(row["name"], 0) + row[column]
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics one traced sample yields (see README)."""
    aggregates = trace["aggregates"]
    selfs = _per_name(aggregates, "self_s")
    counts = _per_name(aggregates, "count")
    counters = trace["counters"]
    metrics: dict[str, float] = {layer: 0.0 for layer in SPAN_LAYER.values()}
    for span_name, layer in SPAN_LAYER.items():
        metrics[layer] += selfs.get(span_name, 0.0)

    root_total = sum(r["total_s"] for r in aggregates if r["name"] == ROOT_SPAN)
    metrics["trace.root_s"] = root_total
    metrics["trace.unattributed_share"] = _share(selfs.get(ROOT_SPAN, 0.0), root_total)

    transfer_calls = sum(
        counts.get(n, 0) for n in ("transfer_import", "transfer_export", "symbolic_originated")
    )
    metrics["lang.transfer_calls"] = transfer_calls
    metrics["lang.predicate_calls"] = counts.get("predicate_term", 0)
    for prefix in ("lang.transfer", "lang.predicate"):
        hits = counters.get(prefix + "_hits", 0)
        metrics[prefix + "_hit_share"] = _share(hits, hits + counters.get(prefix + "_misses", 0))
    metrics["core.checks_run"] = counts.get("LocalCheck.run", 0)
    metrics["baselines.solve_s"] = sum(
        r["total_s"]
        for r in aggregates
        if r["name"] == "Solver.check" and r["parent"] == "MinesweeperVerifier.verify"
    )
    for name in (
        "startup.modules_loaded",
        "bgp.config_bytes",
        "lang.universe_atoms",
        "core.checks_generated",
        "smt.queries",
        "smt.distinct_queries",
        "smt.encode_s",
        "smt.solve_s",
        "smt.vars_encoded",
        "smt.clauses_encoded",
        "smt.shared_skips",
        "smt.learnts_kept",
        "smt.decisions",
        "smt.propagations",
        "smt.conflicts",
        "smt.restarts",
    ):
        metrics[name] = counters.get(name, 0)
    metrics["smt.distinct_query_share"] = _share(
        metrics["smt.distinct_queries"], metrics["smt.queries"]
    )
    metrics["smt.propagations_per_s"] = _share(metrics["smt.propagations"], metrics["smt.solve_s"])
    return metrics
