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
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import Finding, SourceFile

#: The checked-in manifest, resolved against the repo root.
MANIFEST_FILENAME = "cache-shape.json"

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


def _assigns(node: ast.Assign, name: str) -> bool:
    return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)


def _extract(file: SourceFile) -> tuple[tuple[int, object] | None, dict[str, list[str]]]:
    """One file's ``CACHE_FORMAT`` assignment as ``(line, value)`` and its
    persisted shapes, keyed as in the manifest."""
    shape_types = set(PERSISTED_TYPES)
    for node in file.tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.Tuple, ast.List))
            and _assigns(node, "CACHE_SHAPE_TYPES")
        ):
            shape_types.update(
                el.value
                for el in node.value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            )

    cache_format: tuple[int, object] | None = None
    for node in ast.walk(file.tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and _assigns(node, "CACHE_FORMAT")
        ):
            cache_format = (node.lineno, node.value.value)

    shapes: dict[str, list[str]] = {}

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name in shape_types:
                    shapes[f"dataclass:{child.name}"] = _dataclass_fields(child)
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.FunctionDef) and child.name in ("save", "state_dict"):
                # save() persists its `state = {...}` literal; state_dict()
                # the dict literal it returns.
                where = "save:state" if child.name == "save" else "state_dict"
                for stmt in ast.walk(child):
                    value = None
                    if child.name == "save":
                        if (
                            isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and _assigns(stmt, "state")
                        ):
                            value = stmt.value
                    elif isinstance(stmt, ast.Return):
                        value = stmt.value
                    keys = None if value is None else _dict_literal_keys(value)
                    if keys is not None:
                        shapes[f"{file.path}::{owner or '<module>'}.{where}"] = keys
            visit(child, owner)

    visit(file.tree, "")
    return cache_format, shapes


class CacheFormatDiscipline:
    id = "cache-format-discipline"
    description = (
        "persisted cache shapes may only change together with a "
        "CACHE_FORMAT bump, tracked via the checked-in shape manifest"
    )

    def __init__(self, manifest: Path, update: bool = False) -> None:
        self.manifest = manifest
        self.update = update

    def check(self, files: Sequence[SourceFile]) -> list[Finding]:
        current: dict[str, list[str]] = {}
        anchor: tuple[str, int, object] | None = None  # (path, line, value)
        for file in files:
            file_anchor, shapes = _extract(file)
            if file_anchor is not None and (
                anchor is None or file.path.endswith("core/workspace.py")
            ):
                anchor = (file.path, *file_anchor)
            current.update(shapes)
        if anchor is None:
            # Nothing under analysis persists a versioned cache (e.g. a
            # fixture set without one): nothing to discipline.
            return []
        path, line, cache_format = anchor

        def finding(message: str, hint: str, symbol: str) -> Finding:
            return Finding(self.id, path, line, message, hint=hint, symbol=symbol)

        if self.update:
            payload = {
                "comment": (
                    "Statically extracted persisted-cache shapes as of the "
                    "current CACHE_FORMAT.  Regenerate with `lightyear lint "
                    "--update-manifest` in the same commit as a format bump; "
                    "never edit by hand."
                ),
                "cache_format": cache_format,
                "shapes": {key: current[key] for key in sorted(current)},
            }
            self.manifest.write_text(json.dumps(payload, indent=2) + "\n")
            return []
        if not self.manifest.exists():
            return [
                finding(
                    "no cache-shape manifest found; the format-bump discipline "
                    "cannot be checked",
                    "run `lightyear lint --update-manifest` and commit the result",
                    "manifest-missing",
                )
            ]
        try:
            manifest = json.loads(self.manifest.read_text())
            recorded_format = manifest["cache_format"]
            recorded = {key: sorted(value) for key, value in manifest["shapes"].items()}
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return [
                finding(
                    f"cache-shape manifest is unreadable: {exc!r}",
                    "regenerate with `lightyear lint --update-manifest`",
                    "manifest-corrupt",
                )
            ]
        if cache_format != recorded_format:
            return [
                finding(
                    f"CACHE_FORMAT is {cache_format} but the manifest records "
                    f"{recorded_format}; the manifest is stale",
                    "run `lightyear lint --update-manifest` and commit the "
                    "regenerated manifest with the bump",
                    "manifest-stale",
                )
            ]
        return [
            finding(
                f"persisted shape {key!r} changed "
                f"({_shape_delta(recorded.get(key), current.get(key))}) without a "
                f"CACHE_FORMAT bump; an old on-disk cache would load into the "
                f"wrong shape",
                "bump CACHE_FORMAT (with a comment saying what changed), then run "
                "`lightyear lint --update-manifest` in the same commit",
                key,
            )
            for key in sorted(set(current) | set(recorded))
            if current.get(key) != recorded.get(key)
        ]


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
