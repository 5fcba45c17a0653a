"""budget-flow: budget parameters must be forwarded, not dropped.

The bug class (PR 4): ``verify --budget N`` parsed the flag, carried it
as ``conflict_budget`` through two layers, then called a helper that
*also* accepted ``conflict_budget`` — without passing it.  The callee's
``None`` default meant "unlimited", the flag silently did nothing, and
no per-file pass could see it because the call crossed a module
boundary.

The invariant, stated mechanically over the project call graph: when a
function holding a budget parameter (``deadline_s``,
``conflict_budget``, ``wall_budget_s``) calls a callee that accepts a
parameter of the *same name* with a default, the call must supply a
value for it.  A defaulted budget silently absorbs the drop — that is
exactly the PR 4 shape; a *required* callee parameter would crash at
the call site, so it needs no lint.

Calls using ``*args``/``**kwargs`` expansion are skipped (the engine
cannot see what they carry), as are callees the graph cannot resolve —
the checker under-approximates, so every finding is a real unforwarded
budget.  Deliberate drops (a boundary that genuinely ends a budget's
scope) are suppressed inline with a reason.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

#: Parameters whose silent loss changes verification semantics.
BUDGET_PARAMS = ("conflict_budget", "deadline_s", "wall_budget_s")


@register
class BudgetFlowChecker(Checker):
    id = "budget-flow"
    description = (
        "a function holding a budget parameter (conflict_budget / "
        "deadline_s / wall_budget_s) must forward it to callees that "
        "accept the same parameter (the dropped --budget bug class)"
    )
    version = 1

    def extract(self, tree: ast.AST, source: str, path: str):
        # Interprocedural: works off the engine's call-graph symbol
        # facts, so there is nothing file-local to extract.
        return None

    def analyze(self, project: Project) -> list[Finding]:
        graph = project.call_graph()
        findings: list[Finding] = []
        for fqid in sorted(graph.functions):
            caller = graph.functions[fqid]
            held = [
                param
                for param in BUDGET_PARAMS
                if param in caller.params or param in caller.kwonly
            ]
            if not held:
                continue
            for edge in graph.edges_from(fqid):
                if edge.uncertain:
                    continue
                callee = graph.functions.get(edge.callee)
                if callee is None or callee.fqid == caller.fqid:
                    continue
                callee_named = set(callee.named_params())
                for param in held:
                    if param not in callee_named:
                        continue
                    if param not in callee.defaulted:
                        # A required parameter cannot be dropped
                        # silently — the call would already be a
                        # TypeError and the received set proves it was
                        # supplied.
                        continue
                    if param in edge.received:
                        continue
                    findings.append(
                        Finding(
                            checker=self.id,
                            path=edge.path,
                            line=edge.line,
                            message=(
                                f"{caller.qualname} holds {param!r} but calls "
                                f"{callee.qualname} ({callee.module}) without "
                                f"forwarding it; the callee's default silently "
                                f"drops the budget"
                            ),
                            hint=(
                                f"pass `{param}={param}` at the call site, or "
                                f"suppress with a reason if this boundary "
                                f"deliberately ends the budget's scope"
                            ),
                            symbol=f"{caller.qualname}->{callee.qualname}:{param}",
                        )
                    )
        return findings
