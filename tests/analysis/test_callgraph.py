"""The interprocedural layer: symbol facts, composition, resolution.

Exercises :mod:`repro.analysis.callgraph` directly — per-file extraction
shape, then graph composition over a small multi-module project — and
pins the resolution features ``budget-flow`` relies on: imports (absolute
and relative), ``self`` dispatch with a base-class walk, receiver
annotations, and constructor chains.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.callgraph import (
    CALLGRAPH_KEY,
    build_call_graph,
    extract_callgraph_facts,
    module_name_for,
)
from repro.analysis.registry import Project


def _facts(source: str, path: str = "mod.py"):
    return extract_callgraph_facts(ast.parse(source), source, path)


def _project(files: dict[str, str]) -> Project:
    project = Project(root=Path("."))
    for path, source in files.items():
        project.facts[path] = {CALLGRAPH_KEY: _facts(source, path)}
    return project


def _graph(files: dict[str, str]):
    return build_call_graph(_project(files))


class TestModuleNames:
    @pytest.mark.parametrize(
        ("path", "expected"),
        [
            ("src/repro/core/safety.py", "repro.core.safety"),
            ("src/repro/core/__init__.py", "repro.core"),
            ("fixtures/caller.py", "fixtures.caller"),
            ("mod.py", "mod"),
        ],
    )
    def test_module_name_for(self, path, expected):
        assert module_name_for(path) == expected


class TestExtraction:
    def test_function_record_params_and_defaults(self):
        facts = _facts(
            "def f(a, b=1, *args, c, d=2, **kw):\n    return a\n"
        )
        (func,) = facts["functions"]
        assert func["params"] == ["a", "b"]
        assert func["kwonly"] == ["c", "d"]
        assert set(func["defaulted"]) == {"b", "d"}
        assert func["vararg"] and func["kwarg"]

    def test_call_argument_descriptors(self):
        facts = _facts(
            "def f(x, y):\n"
            "    g(x, 1, key=y, other=2)\n"
        )
        (func,) = facts["functions"]
        (call,) = func["calls"]
        assert call["target"] == "g"
        assert call["pos"] == ["x", None]
        assert call["kw"] == {"key": "y", "other": None}

    def test_star_expansion_is_marked(self):
        facts = _facts("def f(a):\n    g(*a)\n    h(**a)\n")
        calls = facts["functions"][0]["calls"]
        assert [c["star"] for c in calls] == [True, False]
        assert [c["dstar"] for c in calls] == [False, True]

    def test_nested_defs_fold_into_encloser(self):
        facts = _facts(
            "def outer(pool, items):\n"
            "    def _work(item):\n"
            "        return solve(item)\n"
            "    return pool.map(_work, items)\n"
        )
        # One record: the closure is not a function of its own, and its
        # call to ``solve`` is the encloser's.
        (func,) = facts["functions"]
        assert func["name"] == "outer"
        assert "solve" in [c["target"] for c in func["calls"]]


class TestResolution:
    def test_cross_module_import_edge_with_forwarding(self):
        graph = _graph({
            "a.py": (
                "from b import callee\n"
                "def caller(budget=None):\n"
                "    callee(1, budget=budget)\n"
            ),
            "b.py": "def callee(x, budget=None):\n    return x\n",
        })
        (edge,) = graph.edges_from("a:caller")
        assert edge.callee == "b:callee"
        assert edge.received == frozenset({"x", "budget"})
        assert dict(edge.forwarded) == {"budget": "budget"}

    def test_relative_import_resolves_against_the_package(self):
        graph = _graph({
            "src/pkg/a.py": (
                "from .b import helper\n"
                "def caller():\n"
                "    helper()\n"
            ),
            "src/pkg/b.py": "def helper():\n    return 1\n",
        })
        (edge,) = graph.edges_from("pkg.a:caller")
        assert edge.callee == "pkg.b:helper"

    def test_self_method_walks_project_resolved_bases(self):
        graph = _graph({
            "base.py": "class Base:\n    def helper(self, deadline_s=None):\n        return 1\n",
            "sub.py": (
                "from base import Base\n"
                "class Sub(Base):\n"
                "    def run(self):\n"
                "        return self.helper()\n"
            ),
        })
        (edge,) = graph.edges_from("sub:Sub.run")
        assert edge.callee == "base:Base.helper"

    def test_annotated_receiver_resolves_the_method(self):
        graph = _graph({
            "checks.py": (
                "class LocalCheck:\n"
                "    def run(self, config, deadline_s=None):\n"
                "        return config\n"
            ),
            "driver.py": (
                "from checks import LocalCheck\n"
                "def drive(check: LocalCheck, config):\n"
                "    return check.run(config)\n"
            ),
        })
        (edge,) = graph.edges_from("driver:drive")
        assert edge.callee == "checks:LocalCheck.run"
        # `self` is skipped: config lands on the first real parameter.
        assert "config" in edge.received

    def test_constructor_and_constructor_chain(self):
        graph = _graph({
            "m.py": (
                "class Backend:\n"
                "    def __init__(self, jobs):\n"
                "        self.jobs = jobs\n"
                "    def run(self, batch):\n"
                "        return batch\n"
                "def go(batch):\n"
                "    return Backend(2).run(batch)\n"
            ),
        })
        callees = {edge.callee for edge in graph.edges_from("m:go")}
        assert callees == {"m:Backend.__init__", "m:Backend.run"}

    def test_unresolvable_calls_produce_no_edges(self):
        graph = _graph({
            "m.py": "import os\ndef f(x):\n    return os.path.join(x)\n",
        })
        assert graph.edges_from("m:f") == []


class TestProjectIntegration:
    def test_call_graph_is_built_once_and_cached(self, tmp_path):
        (tmp_path / "m.py").write_text("def f():\n    return 1\n")
        from repro.analysis.engine import LintOptions, run_lint

        options = LintOptions(root=tmp_path, paths=[tmp_path])
        run_lint(options)  # exercises the engine path end to end

        project = _project({"m.py": "def f():\n    return 1\n"})
        graph = project.call_graph()
        assert project.call_graph() is graph
        assert "m:f" in graph.functions

    def test_callgraph_facts_ride_the_fact_cache(self, tmp_path):
        from repro.analysis.cache import FactCache, content_digest
        from repro.analysis.engine import LintOptions, run_lint

        (tmp_path / "m.py").write_text("def f():\n    return 1\n")
        cache_file = tmp_path / "cache" / "lint-cache.json"
        run_lint(LintOptions(root=tmp_path, paths=[tmp_path], cache_file=cache_file))

        from repro.analysis.callgraph import CALLGRAPH_VERSION
        from repro.analysis.registry import all_checkers

        versions = {c.id: c.version for c in all_checkers()}
        versions[CALLGRAPH_KEY] = CALLGRAPH_VERSION
        digest = content_digest((tmp_path / "m.py").read_bytes())
        cached = FactCache(cache_file).lookup("m.py", digest, versions)
        assert cached is not None and CALLGRAPH_KEY in cached
        assert cached[CALLGRAPH_KEY]["module"] == "m"

        # Bumping the call-graph fact version invalidates the entry.
        versions[CALLGRAPH_KEY] = CALLGRAPH_VERSION + 1
        assert FactCache(cache_file).lookup("m.py", digest, versions) is None
