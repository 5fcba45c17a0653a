"""pickle-safety: the worker/cache object graph must stay picklable.

The bug class (PR 3): ``_FrozenGhost`` — a class defined inside a
function — rode into a worker-process chunk payload.  Pickle serialises
classes *by reference* (module + qualified name), so a local class is
unpicklable; the pool degraded to serial execution silently and the
"parallel" benchmark measured the serial path for weeks.

The checker walks the static type graph reachable from the pickle roots
(the types :func:`repro.core.exec.pool.run_checks_in_processes` ships to
and from its workers and :meth:`repro.core.workspace.Workspace.save`
persists) and
flags, on every reachable class:

* definition inside a function — unpicklable by reference;
* a ``lambda`` stored in a field default or ``default_factory`` —
  lambdas don't pickle, and even a never-pickled default is one
  ``dataclasses.replace`` away from riding along;
* ``__slots__`` without ``__getstate__``/``__reduce__`` — slotted
  instances need protocol-2 state handling; an explicit ``__getstate__``
  documents that someone thought about what persists;
* an OS handle (``open``/``socket``/``Lock``/``Popen``…) assigned to an
  attribute in ``__init__`` — handles never pickle.

Reachability: start from the root class names, follow field-annotation
references, and close over subclasses (a field annotated with a base
class can hold any subclass at runtime).  Roots are the checker's
built-in list plus any ``PICKLE_ROOTS = ("Name", ...)`` declaration in
an analysed module (fixtures and future payload types use this to opt
in without editing the checker).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

#: Types the process map (repro.core.exec.pool) ships — the initializer
#: context (config, universe, ghosts, fault plan), the chunked checks, the
#: outcomes coming back — and types Workspace.save persists (directly or
#: inside tracker state).
DEFAULT_ROOTS = (
    "GroupOutcomes",
    "LocalCheck",
    "CheckOutcome",
    "CheckFailure",
    "NetworkConfig",
    "AttributeUniverse",
    "GhostAttribute",
    "FaultPlan",
    "SafetyProperty",
    "LivenessProperty",
    "InvariantMap",
    "SolverStats",
    "SatStats",
)

_HANDLE_CALLS = re.compile(
    r"^(open|socket\.socket|threading\.(Lock|RLock|Condition|Event|Semaphore)|"
    r"subprocess\.Popen|multiprocessing\.\w+|tempfile\.\w+file)$",
    re.IGNORECASE,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _call_name(call: ast.Call) -> str:
    func = call.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    return ".".join(reversed(parts))


def _annotation_refs(node: ast.expr) -> set[str]:
    """Capitalised identifiers referenced by an annotation expression.

    String annotations (``"NetworkConfig"``, ``tuple["GhostAttribute",
    ...]``) are scanned lexically; only names that look like class names
    (leading capital) count, so ``dict``/``str`` stay out of the graph.
    """
    refs: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            refs.add(child.id)
        elif isinstance(child, ast.Attribute):
            refs.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            refs.update(_IDENT.findall(child.value))
    return {name for name in refs if name[:1].isupper()}


def _contains_lambda(node: ast.expr) -> bool:
    return any(isinstance(child, ast.Lambda) for child in ast.walk(node))


@register
class PickleSafetyChecker(Checker):
    id = "pickle-safety"
    description = (
        "types reachable from process-map payloads and Workspace.save must "
        "pickle (the _FrozenGhost bug class)"
    )
    version = 1

    def extract(self, tree: ast.AST, source: str, path: str):
        classes: list[dict] = []
        extra_roots: list[str] = []

        for node in tree.body if isinstance(tree, ast.Module) else []:
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "PICKLE_ROOTS"
                    for t in node.targets
                )
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        extra_roots.append(element.value)

        def visit(node: ast.AST, nesting: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    classes.append(self._class_record(child, nesting > 0))
                    visit(child, nesting)
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    visit(child, nesting + 1)
                else:
                    visit(child, nesting)

        visit(tree, 0)
        if not classes and not extra_roots:
            return None
        return {"classes": classes, "roots": extra_roots}

    @staticmethod
    def _class_record(cls: ast.ClassDef, nested: bool) -> dict:
        bases = sorted(
            {
                ref
                for base in cls.bases
                for ref in _annotation_refs(base)
            }
        )
        field_refs: set[str] = set()
        has_slots = False
        has_getstate = any(
            isinstance(stmt, ast.FunctionDef)
            and stmt.name in ("__getstate__", "__reduce__", "__reduce_ex__")
            for stmt in cls.body
        )
        lambda_fields: list[tuple[int, str]] = []
        handle_fields: list[tuple[int, str, str]] = []
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        has_slots = True
                    elif isinstance(target, ast.Name) and _contains_lambda(stmt.value):
                        lambda_fields.append((stmt.lineno, target.id))
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                field_refs |= _annotation_refs(stmt.annotation)
                if stmt.value is not None and _contains_lambda(stmt.value):
                    lambda_fields.append((stmt.lineno, stmt.target.id))
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                self_name = stmt.args.args[0].arg if stmt.args.args else "self"
                for arg in stmt.args.args + stmt.args.kwonlyargs:
                    if arg.annotation is not None:
                        field_refs |= _annotation_refs(arg.annotation)
                for child in ast.walk(stmt):
                    target = None
                    value = None
                    if isinstance(child, ast.Assign) and len(child.targets) == 1:
                        target, value = child.targets[0], child.value
                    elif isinstance(child, ast.AnnAssign):
                        target, value = child.target, child.value
                        if target is not None and child.annotation is not None:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == self_name
                            ):
                                field_refs |= _annotation_refs(child.annotation)
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                        and isinstance(value, ast.Call)
                    ):
                        name = _call_name(value)
                        if _HANDLE_CALLS.match(name):
                            handle_fields.append((child.lineno, target.attr, name))
                        if value.args and any(
                            _contains_lambda(a) for a in value.args
                        ) or any(
                            kw.arg == "default_factory" and _contains_lambda(kw.value)
                            for kw in value.keywords
                        ):
                            lambda_fields.append((child.lineno, target.attr))
        # dataclass field(default_factory=lambda ...) in the class body.
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.value, ast.Call):
                for kw in stmt.value.keywords:
                    if kw.arg == "default_factory" and _contains_lambda(kw.value):
                        target = stmt.target
                        if isinstance(target, ast.Name):
                            lambda_fields.append((stmt.lineno, target.id))
        return {
            "name": cls.name,
            "line": cls.lineno,
            "nested": nested,
            "bases": bases,
            "field_refs": sorted(field_refs),
            "has_slots": has_slots,
            "has_getstate": has_getstate,
            "lambda_fields": sorted(set(lambda_fields)),
            "handle_fields": sorted(set(handle_fields)),
        }

    def analyze(self, project: Project) -> list[Finding]:
        by_name: dict[str, list[tuple[str, dict]]] = {}
        roots: set[str] = set(DEFAULT_ROOTS)
        for path, facts in project.facts_for(self.id):
            roots.update(facts.get("roots", ()))
            for record in facts.get("classes", ()):
                by_name.setdefault(record["name"], []).append((path, record))

        reachable: set[str] = set()
        frontier = [name for name in roots if name in by_name]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for __, record in by_name[name]:
                for ref in record["field_refs"]:
                    if ref in by_name and ref not in reachable:
                        frontier.append(ref)
            # Subclass closure: a field typed as the base may hold any
            # subclass at runtime, so subclasses must pickle too.
            for other_name, records in by_name.items():
                if other_name in reachable:
                    continue
                if any(name in record["bases"] for __, record in records):
                    frontier.append(other_name)

        findings: list[Finding] = []
        for name in sorted(reachable):
            for path, record in by_name[name]:
                findings.extend(self._check_class(path, record))
        return findings

    def _check_class(self, path: str, record: dict) -> list[Finding]:
        findings: list[Finding] = []
        name = record["name"]
        if record["nested"]:
            findings.append(
                Finding(
                    checker=self.id,
                    path=path,
                    line=record["line"],
                    message=(
                        f"class {name} is defined inside a function but is "
                        f"reachable from a pickled payload; pickle serialises "
                        f"classes by reference, so instances will not unpickle "
                        f"in a worker process"
                    ),
                    hint=f"move {name} to module level",
                    symbol=name,
                )
            )
        for line, field_name in record["lambda_fields"]:
            findings.append(
                Finding(
                    checker=self.id,
                    path=path,
                    line=line,
                    message=(
                        f"{name}.{field_name} holds a lambda; lambdas do not "
                        f"pickle, so any payload carrying this field kills the "
                        f"worker round-trip"
                    ),
                    hint="use a named module-level function instead",
                    symbol=f"{name}.{field_name}",
                )
            )
        if record["has_slots"] and not record["has_getstate"]:
            findings.append(
                Finding(
                    checker=self.id,
                    path=path,
                    line=record["line"],
                    message=(
                        f"class {name} defines __slots__ without __getstate__/"
                        f"__reduce__ but is reachable from a pickled payload"
                    ),
                    hint=(
                        "add an explicit __getstate__/__setstate__ pair (or "
                        "__reduce__) stating what persists"
                    ),
                    symbol=name,
                )
            )
        for line, field_name, call in record["handle_fields"]:
            findings.append(
                Finding(
                    checker=self.id,
                    path=path,
                    line=line,
                    message=(
                        f"{name}.{field_name} is assigned an OS handle "
                        f"({call}) in __init__; handles never pickle"
                    ),
                    hint="exclude it via __getstate__ or keep it off payload types",
                    symbol=f"{name}.{field_name}",
                )
            )
        return findings
