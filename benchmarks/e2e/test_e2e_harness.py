"""Self-tests of the benchmark harness (tiny sizes, no timing claims)."""

from __future__ import annotations

import json
import re
import sys

import e2e_harness as harness
import e2e_inputs as inputs
import e2e_tracer as tracer_mod
import pytest

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = tracer_mod.Tracer("s0", clock=clock)

    def leaf() -> None:
        clock.spend(1.0)

    hot_leaf = tracer.wrap("predicate_term", leaf, hot=True)

    def middle() -> None:
        clock.spend(2.0)
        hot_leaf()
        hot_leaf()
        clock.spend(1.0)

    traced_middle = tracer.wrap("Scheduler.run", middle)

    def root() -> None:
        clock.spend(3.0)
        traced_middle()
        clock.spend(2.0)

    tracer.span(tracer_mod.ROOT_SPAN, root)
    rows = {(r["name"], r["parent"]): r for r in tracer.to_json()["aggregates"]}
    assert rows[("predicate_term", "Scheduler.run")] == {
        "name": "predicate_term", "parent": "Scheduler.run", "count": 2, "total_s": 2.0, "self_s": 2.0,
    }  # fmt: skip
    assert rows[("Scheduler.run", "root")]["total_s"] == 5.0
    assert rows[("Scheduler.run", "root")]["self_s"] == 3.0
    assert rows[("root", "<process>")]["total_s"] == 10.0
    assert rows[("root", "<process>")]["self_s"] == 5.0
    # Self times partition the root span: nothing is counted twice.
    assert sum(r["self_s"] for r in rows.values()) == 10.0

    # Hot callables aggregate only; cold ones leave one record per call,
    # linked to the span that caused them.
    spans = tracer.to_json()["spans"]
    assert [s["name"] for s in spans] == ["root", "Scheduler.run"]
    assert spans[1]["parent"] == spans[0]["id"] and spans[1]["sample"] == "s0"
    assert (spans[1]["start"], spans[1]["end"]) == (3.0, 8.0)

    metrics = tracer_mod.layer_metrics(tracer.to_json())
    assert metrics["core.schedule_s"] == 3.0
    assert metrics["lang.predicate_s"] == 2.0
    assert metrics["lang.predicate_calls"] == 2
    assert metrics["trace.unattributed_share"] == 0.5


def test_generators_are_deterministic_per_seed():
    for generate in (inputs.fullmesh, inputs.policy_diverse):
        same = [inputs.dump(doc) for doc in generate(12, 3)]
        again = [inputs.dump(doc) for doc in generate(12, 3)]
        other = [inputs.dump(doc) for doc in generate(12, 4)]
        assert same == again
        assert same[0] != other[0]
    config = inputs.fullmesh(12, 3)[0]
    assert inputs.fullmesh_edit(config, 3) == inputs.fullmesh_edit(config, 3)
    assert inputs.dump(inputs.fullmesh_edit(config, 3)[0]) != inputs.dump(config)


def _cli(capsys, *argv: str) -> dict:
    from repro.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    result = harness.ChildResult(code, 0.0, 0.0, 0.0, captured.out, captured.err, False)
    return harness.observe_cli(result)


def test_policy_diverse_clean_passes_and_seeded_bug_fails_where_expected(tmp_path, capsys):
    env = harness.child_env(tmp_path)
    prepared = harness.prepare_policy_diverse(tmp_path, seed=5, sizes={"n": 12}, env=env)
    clean, buggy = prepared.commands
    assert harness.mismatches(clean.expected, _cli(capsys, *clean.args)) == []
    seen = _cli(capsys, *buggy.args)
    assert harness.mismatches(buggy.expected, seen) == []
    assert seen["exit_code"] == 1
    assert seen["failing_edges"] == [prepared.manifest["failing_edge"]]
    assert seen["blamed_routers"] == [prepared.manifest["blamed_router"]]
    # ... and a wrong expectation is reported, not swallowed.
    assert harness.mismatches({**buggy.expected, "failing_edges": ["R1->R2"]}, seen)


def test_fullmesh_edit_consults_one_owner(tmp_path, capsys):
    config, spec, manifest = inputs.fullmesh(6, 2)
    edited, edit = inputs.fullmesh_edit(config, 2)
    paths = []
    for name, doc in (("base", config), ("edited", edited), ("spec", spec)):
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(inputs.dump(doc))
    seen = _cli(capsys, "reverify", *paths)
    assert seen["exit_code"] == 0 and seen["verdicts"] == ["PASSED"]
    assert seen["total"] == manifest["checks"] == 2 * (6 * 5 + 6) + 1
    assert seen["consulted"] == manifest["checks_per_owner"] == 12
    assert seen["changed"] == [edit["edited_router"]]


def test_install_and_uninstall_restore_every_binding():
    import repro.cli  # noqa: F401  (loads the modules that hold copies of the names)
    from repro.core import checks
    from repro.lang import transfer

    tracer_mod.import_targets()

    def snapshot() -> dict:
        held = {}
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and module is not None:
                held.update({(name, attr): value for attr, value in vars(module).items()})
        for module_name, class_name, attr, __ in tracer_mod.METHOD_TARGETS:
            held[(module_name, class_name, attr)] = vars(getattr(sys.modules[module_name], class_name))[attr]
        return held

    before = snapshot()
    restored = tracer_mod.install(tracer_mod.Tracer("s0"))
    try:
        during = snapshot()
        # The copy that ``from repro.lang.transfer import transfer_import``
        # left in repro.core.checks is rebound to the same wrapper.
        assert checks.transfer_import is transfer.transfer_import
        assert checks.transfer_import.__wrapped__ is before[("repro.lang.transfer", "transfer_import")]
        assert vars(checks.LocalCheck)["run"].__wrapped__ is before[("repro.core.checks", "LocalCheck", "run")]
        rebound = [key for key in before if during[key] is not before[key]]
        assert len(rebound) == len(restored) >= len(tracer_mod.FUNCTION_TARGETS) + len(tracer_mod.METHOD_TARGETS)
    finally:
        tracer_mod.uninstall(restored)
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)


def test_names_match_benchmark_json():
    spec = harness.SPEC
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(harness.PREPARE) == list(harness.SIZES)
    assert set(harness.EXPECTED) - {"_about"} == set(workloads)
    names = workloads + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])

    from_trace = set(tracer_mod.layer_metrics({"aggregates": [], "counters": {}}))
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer <= from_trace | set(harness.HARNESS_LAYER_METRICS)


def test_expected_json_agrees_with_the_generators():
    expected = harness.EXPECTED
    counts = harness.wan_check_counts(12, 5)
    table4 = expected["wan_table4"]["commands"]["table4"]
    assert {k: v["checks"] for k, v in table4["families"].items()} == {
        k: v for k, v in counts.items() if k != "buggy"
    }
    assert table4["buggy"]["checks"] == counts["buggy"]
    for seed in (0, 1):
        config, __, manifest = inputs.fullmesh(100, seed)
        assert manifest["checks"] == expected["fullmesh_cli"]["commands"]["verify"]["checks"]
        pinned = expected["reverify_cache_cli"]["by_seed"][str(seed)]["reverify"]
        assert pinned["changed"] == [inputs.fullmesh_edit(config, seed)[1]["edited_router"]]
        config, __, manifest = inputs.policy_diverse(100, seed)
        assert manifest["checks"] == expected["policy_diverse_cli"]["commands"]["clean"]["checks"]
        bug = inputs.policy_diverse_bug(config, seed)[1]
        pinned = expected["policy_diverse_cli"]["by_seed"][str(seed)]["buggy"]
        assert pinned == {
            "failing_edges": [bug["failing_edge"]], "blamed_routers": [bug["blamed_router"]]
        }  # fmt: skip


def test_run_child_reports_usage_and_scrubs_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "thread")
    monkeypatch.setenv("REPRO_FAULTS", "x")
    env = harness.child_env(tmp_path)
    assert not {"REPRO_BACKEND", "REPRO_FAULTS", "REPRO_CHAOS_SEED"} & set(env)
    code = "import json, os; print(json.dumps(sorted(k for k in os.environ if k.startswith('REPRO_'))))"
    result = harness.run_child([sys.executable, "-c", code], env, tmp_path)
    assert result.exit_code == 0 and json.loads(result.stdout) == []
    assert result.wall_s > 0 and result.rss_mb > 0 and not result.timed_out


def test_mismatches_only_compares_expected_keys():
    assert harness.mismatches({"a": 1, "b": {"c": [1]}}, {"a": 1, "b": {"c": [1], "d": 2}, "e": 3}) == []
    assert harness.mismatches({"b": {"c": [1]}}, {"b": {"c": [2]}}) == ["b.c: expected [1], saw [2]"]


@pytest.mark.parametrize("values", [[], [2.0], [1.0, 2.0, 3.0, 4.0]])
def test_describe_handles_any_sample_count(values):
    summary = harness.describe(values)
    assert summary["n"] == len(values)
    assert summary["min"] <= summary["median"] <= summary["max"]
