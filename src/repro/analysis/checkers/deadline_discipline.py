"""deadline-discipline: hot-path loops must be able to stop.

The bug class (PR 6): solver search loops with no deadline sampling hung
whole runs when one pathological check blew up — the fix threaded
wall-clock deadlines through ``solve``/``check``/worker dispatch, with
sampling at conflict and decision boundaries.  This checker keeps that
property true as the hot paths evolve.  Two rules, applied to the
configured hot-path files (plus any file carrying a ``# repro:
hot-path`` marker, which is how fixtures and future hot modules opt in):

* **unbounded-loop** — a constant-condition ``while True:`` loop whose
  body never consults a deadline (no name containing ``deadline``, no
  ``time.monotonic()`` call) can spin forever.  Loops that are bounded
  for a structural reason (conflict analysis walks a finite trail; the
  Luby recurrence terminates) carry a suppression with that reason.

* **unguarded-remaining** — code that computes a remaining budget
  (``x = something - time.monotonic()``) in a function that never
  compares against expiry lets a *negative* remainder flow onward: each
  subsequent check still pays full encoding before its solve notices the
  deadline is in the past.  The fix shape is an explicit short-circuit
  (``if remaining <= 0: skip``, or ``if time.monotonic() >= run_deadline:
  skip`` ahead of the subtraction) before the remainder is used.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

#: Hot-path files: the solver core and the execution runtime (the
#: per-check loop computing deadline remainders and the process map;
#: the scheduler module opts in via the ``# repro: hot-path`` marker).
HOT_PATH_SUFFIXES = (
    "repro/smt/sat.py",
    "repro/smt/solver.py",
    "repro/core/exec/pool.py",
)

HOT_PATH_MARKER = "# repro: hot-path"

_DEADLINE_TOKENS = ("deadline", "budget")


def _is_constant_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _mentions_deadline(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and any(
            token in child.id.lower() for token in _DEADLINE_TOKENS
        ):
            return True
        if isinstance(child, ast.Attribute) and any(
            token in child.attr.lower() for token in _DEADLINE_TOKENS
        ):
            return True
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "monotonic"
        ):
            return True
    return False


def _is_monotonic_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "monotonic")
            or (isinstance(node.func, ast.Name) and node.func.id == "monotonic")
        )
    )


def _function_records(tree: ast.AST) -> list[dict]:
    records = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loops = []
        for child in ast.walk(node):
            if isinstance(child, ast.While) and _is_constant_true(child.test):
                # Nested functions own their loops; skip loops that belong
                # to an inner def (they are walked when that def comes up).
                if _owning_function(tree, child) is not node:
                    continue
                loops.append(
                    {"line": child.lineno, "samples": _mentions_deadline(child)}
                )
        remaining = []
        guarded = _has_expiry_guard(node)
        for child in ast.walk(node):
            if _owning_function(tree, child) is not node:
                continue
            value = None
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                value = child.value
            elif isinstance(child, ast.NamedExpr):
                value = child.value
            if (
                value is not None
                and isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Sub)
                and _is_monotonic_call(value.right)
            ):
                remaining.append(child.lineno)
        if loops or remaining:
            records.append(
                {
                    "function": node.name,
                    "loops": loops,
                    "remaining": remaining,
                    "guarded": guarded,
                }
            )
    return records


# Cache of node -> owning function, computed per call tree.  The tree is
# held alongside its index so its id() cannot be reused while cached.
_owner_cache: dict[int, tuple[ast.AST, dict[int, ast.AST | None]]] = {}


def _owning_function(tree: ast.AST, target: ast.AST) -> ast.AST | None:
    """The innermost function whose body contains ``target``."""
    cached = _owner_cache.get(id(tree))
    if cached is not None:
        index = cached[1]
    else:
        index = {}
        stack: list[tuple[ast.AST, ast.AST | None]] = [(tree, None)]
        while stack:
            node, owner = stack.pop()
            index[id(node)] = owner
            next_owner = (
                node
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                else owner
            )
            for child in ast.iter_child_nodes(node):
                stack.append((child, next_owner))
        _owner_cache.clear()  # one tree at a time is enough
        _owner_cache[id(tree)] = (tree, index)
    return index.get(id(target))


def _has_expiry_guard(func: ast.AST) -> bool:
    """Whether the function compares anything against a deadline.

    Both guard shapes count: ``time.monotonic() >= deadline`` (or
    reversed) and ``remaining <= 0`` on a previously computed remainder.
    """
    for child in ast.walk(func):
        if not isinstance(child, ast.Compare):
            continue
        operands = [child.left, *child.comparators]
        if any(_is_monotonic_call(op) for op in operands):
            return True
        has_name = any(
            isinstance(op, ast.Name)
            and any(tok in op.id.lower() for tok in ("remain", "left", "deadline"))
            for op in operands
        )
        has_zero = any(
            isinstance(op, ast.Constant) and op.value in (0, 0.0)
            for op in operands
        )
        if has_name and has_zero:
            return True
    return False


@register
class DeadlineDisciplineChecker(Checker):
    id = "deadline-discipline"
    description = (
        "unbounded hot-path loops must sample the deadline; computed "
        "remaining budgets must be guarded against expiry (the PR 6 hang class)"
    )
    version = 1

    def extract(self, tree: ast.AST, source: str, path: str):
        hot = path.endswith(HOT_PATH_SUFFIXES) or HOT_PATH_MARKER in source
        if not hot:
            return None
        return {"functions": _function_records(tree)}

    def analyze(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for path, facts in project.facts_for(self.id):
            for record in facts.get("functions", ()):
                func = record["function"]
                for loop in record["loops"]:
                    if loop["samples"]:
                        continue
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=path,
                            line=loop["line"],
                            message=(
                                f"unbounded `while True` in hot-path function "
                                f"{func}() never samples a deadline"
                            ),
                            hint=(
                                "sample the deadline inside the loop (cheaply, "
                                "e.g. every N iterations), or suppress with the "
                                "structural reason the loop terminates"
                            ),
                            symbol=f"{func}:while@{loop['line']}",
                        )
                    )
                if record["remaining"] and not record["guarded"]:
                    for line in record["remaining"]:
                        findings.append(
                            Finding(
                                checker=self.id,
                                path=path,
                                line=line,
                                message=(
                                    f"{func}() computes a remaining budget but "
                                    f"never guards against it having already "
                                    f"expired; a negative remainder flows on "
                                    f"and later work still pays full setup cost"
                                ),
                                hint=(
                                    "short-circuit first: `if remaining <= 0: "
                                    "skip` (see repro.core.exec.pool."
                                    "run_in_sessions for the pattern)"
                                ),
                                symbol=f"{func}:remaining",
                            )
                        )
        return findings
