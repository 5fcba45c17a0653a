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
from typing import Sequence

from repro.analysis.findings import Finding, SourceFile

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


_Function = ast.FunctionDef | ast.AsyncFunctionDef


def _owned_nodes(tree: ast.AST) -> dict[_Function, list[ast.AST]]:
    """Each function -> the nodes of its body outside any nested def.

    Built once per file: nested functions own their loops and remainders,
    which are judged when that def's own turn comes.
    """
    owned: dict[_Function, list[ast.AST]] = {}
    stack: list[tuple[ast.AST, _Function | None]] = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if owner is not None:
            owned[owner].append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owned[node] = []
            owner = node
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))
    return owned


def _remaining_line(node: ast.AST) -> int | None:
    """The line of ``x = something - time.monotonic()`` (plain, annotated
    or walrus), or None for any other node."""
    if (
        isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Sub)
        and _is_monotonic_call(node.value.right)
    ):
        return node.lineno
    return None


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


class DeadlineDiscipline:
    id = "deadline-discipline"
    description = (
        "unbounded hot-path loops must sample the deadline; computed "
        "remaining budgets must be guarded against expiry (the PR 6 hang class)"
    )

    def check(self, files: Sequence[SourceFile]) -> list[Finding]:
        findings: list[Finding] = []
        for file in files:
            if file.path.endswith(HOT_PATH_SUFFIXES) or HOT_PATH_MARKER in file.source:
                for func, nodes in _owned_nodes(file.tree).items():
                    findings.extend(self._function_findings(file.path, func, nodes))
        return findings

    def _function_findings(
        self, path: str, func: _Function, nodes: list[ast.AST]
    ) -> list[Finding]:
        findings = [
            Finding(
                checker=self.id,
                path=path,
                line=node.lineno,
                message=(
                    f"unbounded `while True` in hot-path function "
                    f"{func.name}() never samples a deadline"
                ),
                hint=(
                    "sample the deadline inside the loop (cheaply, e.g. every N "
                    "iterations), or suppress with the structural reason the "
                    "loop terminates"
                ),
                symbol=f"{func.name}:while@{node.lineno}",
            )
            for node in nodes
            if isinstance(node, ast.While)
            and _is_constant_true(node.test)
            and not _mentions_deadline(node)
        ]
        remaining = [line for node in nodes if (line := _remaining_line(node))]
        if remaining and not _has_expiry_guard(func):
            findings.extend(
                Finding(
                    checker=self.id,
                    path=path,
                    line=line,
                    message=(
                        f"{func.name}() computes a remaining budget but never "
                        f"guards against it having already expired; a negative "
                        f"remainder flows on and later work still pays full "
                        f"setup cost"
                    ),
                    hint=(
                        "short-circuit first: `if remaining <= 0: skip` (see "
                        "repro.core.exec.pool.run_in_sessions for the pattern)"
                    ),
                    symbol=f"{func.name}:remaining",
                )
                for line in remaining
            )
        return findings
