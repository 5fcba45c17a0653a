"""cache-format-discipline: persisted shapes change only with a format bump.

The bug class (PRs 5-7): every PR that touched what ``Workspace.save``
persists had to *remember* to bump ``CACHE_FORMAT``; forgetting means a
new build unpickles an old cache into the wrong shape (or vice versa)
and the failure surfaces as a confusing runtime error — or worse, a
silently incomplete restore.

Mechanism: a checked-in shape manifest (``cache-shape.json``) records,
as of the last format bump, every statically extractable persisted
shape:

* the keys of the ``state`` dict literal built inside ``save()``;
* the keys of every ``state_dict()`` method's returned dict literal
  (tracker persistence);
* the field lists of the persisted dataclasses (check/outcome/stats
  types that ride inside tracker state and worker replies);
* the ``CACHE_FORMAT`` value itself.

On every run the checker re-extracts the shapes and compares:

* shapes changed, ``CACHE_FORMAT`` unchanged → **error** (the bug);
* ``CACHE_FORMAT`` changed (or shapes changed with it) but the manifest
  still records the old state → error telling you to regenerate;
* ``lightyear lint --update-manifest`` rewrites the manifest from the
  current code — run it in the same commit as the format bump.

Persisted dataclasses are the checker's built-in list plus any names in
a module-level ``CACHE_SHAPE_TYPES = ("Name", ...)`` declaration.
"""

from __future__ import annotations

import ast
import json

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, Project, register

#: Dataclasses whose instances land in the persisted cache (inside
#: tracker state dicts or solver exports).
PERSISTED_TYPES = (
    "GroupOutcomes",
    "LocalCheck",
    "CheckOutcome",
    "CheckFailure",
    "SolverStats",
    "SatStats",
    "GhostAttribute",
    "NeighborConfig",
    "RouterConfig",
)


def _dict_literal_keys(node: ast.expr) -> list[str] | None:
    if not isinstance(node, ast.Dict):
        return None
    keys: list[str] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        else:
            return None  # dynamic key: not statically extractable
    return sorted(keys)


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    return sorted(
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.dump(stmt.annotation)
    )


@register
class CacheFormatChecker(Checker):
    id = "cache-format-discipline"
    description = (
        "persisted cache shapes may only change together with a "
        "CACHE_FORMAT bump, tracked via the checked-in shape manifest"
    )
    version = 2

    def extract(self, tree: ast.AST, source: str, path: str):
        cache_format: dict | None = None
        shapes: dict[str, list[str]] = {}
        shape_types: set[str] = set(PERSISTED_TYPES)

        if isinstance(tree, ast.Module):
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, (ast.Tuple, ast.List)
                ):
                    names = [
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    ]
                    if "CACHE_SHAPE_TYPES" in names:
                        shape_types.update(
                            el.value
                            for el in node.value.elts
                            if isinstance(el, ast.Constant)
                            and isinstance(el.value, str)
                        )

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == "CACHE_FORMAT"
                        and isinstance(node.value, ast.Constant)
                    ):
                        cache_format = {
                            "value": node.value.value,
                            "line": node.lineno,
                        }

        class_stack: list[str] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if child.name in shape_types:
                        shapes[f"dataclass:{child.name}"] = _dataclass_fields(child)
                    class_stack.append(child.name)
                    visit(child)
                    class_stack.pop()
                elif isinstance(child, ast.FunctionDef):
                    owner = ".".join(class_stack) or "<module>"
                    if child.name == "save":
                        for stmt in ast.walk(child):
                            if (
                                isinstance(stmt, ast.Assign)
                                and len(stmt.targets) == 1
                                and isinstance(stmt.targets[0], ast.Name)
                                and stmt.targets[0].id == "state"
                            ):
                                keys = _dict_literal_keys(stmt.value)
                                if keys is not None:
                                    shapes[f"{path}::{owner}.save:state"] = keys
                    elif child.name == "state_dict":
                        for stmt in ast.walk(child):
                            if isinstance(stmt, ast.Return) and stmt.value is not None:
                                keys = _dict_literal_keys(stmt.value)
                                if keys is not None:
                                    shapes[f"{path}::{owner}.state_dict"] = keys
                    visit(child)
                else:
                    visit(child)

        visit(tree)
        if cache_format is None and not shapes:
            return None
        return {"cache_format": cache_format, "shapes": shapes}

    def analyze(self, project: Project) -> list[Finding]:
        current_shapes: dict[str, list[str]] = {}
        cache_format: dict | None = None
        format_path = ""
        for path, facts in project.facts_for(self.id):
            fmt = facts.get("cache_format")
            if fmt is not None and (
                cache_format is None or path.endswith("core/workspace.py")
            ):
                cache_format = fmt
                format_path = path
            current_shapes.update(facts.get("shapes", {}))

        if cache_format is None:
            # Nothing under analysis persists a versioned cache (e.g. a
            # fixture set without one): nothing to discipline.
            return []

        manifest_file = project.options.get("manifest_file")
        anchor_line = cache_format["line"]

        if project.options.get("update_manifest"):
            if manifest_file is None:
                return [
                    Finding(
                        checker=self.id,
                        path=format_path,
                        line=anchor_line,
                        message="--update-manifest given but no manifest path configured",
                        symbol="manifest",
                    )
                ]
            payload = {
                "comment": (
                    "Statically extracted persisted-cache shapes as of the "
                    "current CACHE_FORMAT.  Regenerate with `lightyear lint "
                    "--update-manifest` in the same commit as a format bump; "
                    "never edit by hand."
                ),
                "cache_format": cache_format["value"],
                "shapes": {k: current_shapes[k] for k in sorted(current_shapes)},
            }
            manifest_file.write_text(json.dumps(payload, indent=2) + "\n")
            return []

        if manifest_file is None or not manifest_file.exists():
            return [
                Finding(
                    checker=self.id,
                    path=format_path,
                    line=anchor_line,
                    message=(
                        "no cache-shape manifest found; the format-bump "
                        "discipline cannot be checked"
                    ),
                    hint="run `lightyear lint --update-manifest` and commit the result",
                    symbol="manifest-missing",
                )
            ]

        try:
            manifest = json.loads(manifest_file.read_text())
            recorded_format = manifest["cache_format"]
            recorded_shapes = {
                key: sorted(value) for key, value in manifest["shapes"].items()
            }
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [
                Finding(
                    checker=self.id,
                    path=format_path,
                    line=anchor_line,
                    message=f"cache-shape manifest is unreadable: {exc!r}",
                    hint="regenerate with `lightyear lint --update-manifest`",
                    symbol="manifest-corrupt",
                )
            ]

        changed = sorted(
            key
            for key in set(current_shapes) | set(recorded_shapes)
            if current_shapes.get(key) != recorded_shapes.get(key)
        )
        findings: list[Finding] = []
        if changed and cache_format["value"] == recorded_format:
            for key in changed:
                was = recorded_shapes.get(key)
                now = current_shapes.get(key)
                findings.append(
                    Finding(
                        checker=self.id,
                        path=format_path,
                        line=anchor_line,
                        message=(
                            f"persisted shape {key!r} changed "
                            f"({_shape_delta(was, now)}) without a CACHE_FORMAT "
                            f"bump; an old on-disk cache would load into the "
                            f"wrong shape"
                        ),
                        hint=(
                            "bump CACHE_FORMAT (with a comment saying what "
                            "changed), then run `lightyear lint "
                            "--update-manifest` in the same commit"
                        ),
                        symbol=key,
                    )
                )
        elif cache_format["value"] != recorded_format:
            findings.append(
                Finding(
                    checker=self.id,
                    path=format_path,
                    line=anchor_line,
                    message=(
                        f"CACHE_FORMAT is {cache_format['value']} but the "
                        f"manifest records {recorded_format}; the manifest is "
                        f"stale"
                    ),
                    hint=(
                        "run `lightyear lint --update-manifest` and commit the "
                        "regenerated manifest with the bump"
                    ),
                    symbol="manifest-stale",
                )
            )
        return findings


def _shape_delta(was: list[str] | None, now: list[str] | None) -> str:
    if was is None:
        return "new shape"
    if now is None:
        return "shape removed"
    added = sorted(set(now) - set(was))
    removed = sorted(set(was) - set(now))
    parts = []
    if added:
        parts.append("added " + ", ".join(added))
    if removed:
        parts.append("removed " + ", ".join(removed))
    return "; ".join(parts) or "reordered"
