"""The on-disk workspace cache, through the CLI and ``Workspace.load``.

Pinned claims:

* ``lightyear reverify --cache DIR`` saves the base outcomes on first
  use, and a later invocation — a fresh process, under any hash seed —
  loads them, skips the base run, and consults only the edited owner's
  checks; ``verify --cache`` twice consults nothing; a cache holding more
  properties than the spec answers only for the spec;
* one table of refusals (:data:`REFUSALS`) drives both the loader and
  ``lightyear verify --cache``: a damaged file (a flipped bit or a cut
  anywhere: header, seal, payload), a file with no header (an older
  format, garbage, an empty file) or another format's header, an intact
  file of the wrong shape, and a cache offered another configuration,
  ghost set, budget or spec.  The loader raises
  :class:`WorkspaceCacheError` (:class:`WorkspaceCacheMismatch` for an
  offer that is not the saved one), the CLI exits 2 with that message and
  no traceback;
* one flipped bit in any pickled boolean — a *valid* pickle holding the
  opposite verdict — is caught by the payload digest, and nothing behind
  a wrong digest is ever unpickled.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import pickletools
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.bgp.configjson import config_to_json
from repro.cli import main
from repro.core.workspace import (
    CACHE_FORMAT,
    Workspace,
    WorkspaceCacheError,
    WorkspaceCacheMismatch,
)
from repro.lang.specjson import spec_from_json
from repro.testing.faults import corrupt_file, truncate_file
from repro.workloads.figure1 import build_figure1

from tests import oracle
from tests.test_cli_spec import SPEC

SRC = Path(__file__).resolve().parent.parent / "src"
HEADER = b"lightyear-cache %d\n" % CACHE_FORMAT
SEAL_END = len(HEADER) + hashlib.sha256().digest_size


def _benign_r3_edit(config):
    oracle.bogon_edit(config, "R3", "Customer")


@pytest.fixture
def cache_setup(tmp_path):
    """base.json, edited.json (benign R3 edit), spec.json, cache dir."""
    edited = build_figure1()
    _benign_r3_edit(edited)
    (tmp_path / "base.json").write_text(config_to_json(build_figure1()))
    (tmp_path / "edited.json").write_text(config_to_json(edited))
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    return {
        "base": str(tmp_path / "base.json"),
        "edited": str(tmp_path / "edited.json"),
        "spec": str(tmp_path / "spec.json"),
        "cache": str(tmp_path / "cachedir"),
    }


def _verdicts(out: str) -> list[str]:
    """Each property's verdict and each consultation line."""
    return [
        line.split(" — ")[0]
        for line in out.splitlines()
        if "safety at" in line or "reverify: consulted" in line
    ]


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_reverify_cache_cold_then_warm(cache_setup, capsys):
    s = cache_setup
    # Cold: base run happens, cache is written.
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    out = capsys.readouterr().out
    assert "base run skipped" not in out
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in out
    assert (Path(s["cache"]) / "workspace.lyc").exists()

    # Warm: the base run is skipped, only R3's owner group is consulted.
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    out = capsys.readouterr().out
    assert "base run skipped" in out
    assert "reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in out
    assert "PASSED" in out


def test_cached_reverify_report_equals_cold_report(cache_setup, capsys):
    # Nothing but outcomes is persisted, so a cache-loaded reverify must
    # print the same verdicts and consultation counts as one that ran the
    # base in-process.
    s = cache_setup
    plain = ["reverify", s["base"], s["edited"], s["spec"]]
    assert main(plain) == 0
    cold = _verdicts(capsys.readouterr().out)
    assert main(plain + ["--cache", s["cache"]]) == 0
    assert _verdicts(capsys.readouterr().out) == cold
    assert main(plain + ["--cache", s["cache"]]) == 0  # cache-loaded
    assert _verdicts(capsys.readouterr().out) == cold
    assert any("PASSED" in line for line in cold)
    assert any("consulted 6 of 19" in line for line in cold)


def test_verify_cache_cold_then_warm_consults_nothing(cache_setup, capsys):
    s = cache_setup
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    out = capsys.readouterr().out
    assert "cache: loaded outcomes" in out
    assert "cache: consulted 0 of 19 checks (0 re-run, 19 reused)" in out


def test_warm_cache_still_detects_breaking_edit(cache_setup, tmp_path, capsys):
    s = cache_setup
    assert main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    broken, __ = oracle.CASES["figure1-safety-planted"].mutant()
    (tmp_path / "broken.json").write_text(config_to_json(broken))
    code = main(
        ["reverify", s["base"], str(tmp_path / "broken.json"), s["spec"],
         "--cache", s["cache"]]
    )  # fmt: skip
    assert code == 1
    out = capsys.readouterr().out
    assert "base run skipped" in out
    assert "FAILED" in out
    assert "blamed router: R2" in out


def test_reverify_cache_across_processes_and_hash_seeds(cache_setup, tmp_path):
    # Each call is a fresh process.  The cache pickles route maps that were
    # hashed (memo keys) before the save; the stored hash must not travel,
    # or a process with another PYTHONHASHSEED would miss every memo entry
    # keyed by a loaded map.
    s = cache_setup
    broken, __ = oracle.CASES["figure1-safety-planted"].mutant()
    (tmp_path / "broken.json").write_text(config_to_json(broken))

    def reverify(edited, hash_seed):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        args = [sys.executable, "-m", "repro.cli", "reverify",
                s["base"], edited, s["spec"], "--cache", s["cache"]]  # fmt: skip
        done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, "base run skipped" in done.stdout, _verdicts(done.stdout)

    code, skipped, primed = reverify(s["edited"], "0")
    assert (code, skipped) == (0, False)
    assert "  reverify: consulted 6 of 19 checks (6 re-run, 13 reused)" in primed
    assert reverify(s["edited"], "1") == (0, True, primed)
    code, skipped, verdicts = reverify(str(tmp_path / "broken.json"), "2")
    assert (code, skipped) == (1, True)
    assert any("FAILED" in line for line in verdicts)


def test_superset_cache_answers_only_for_the_requested_spec(cache_setup, tmp_path, capsys):
    """A cache may hold more properties than the spec being run; the extra
    entries must not leak into the reverify output or the exit code."""
    s = cache_setup
    # Cache a two-property spec whose second property FAILS on Figure 1
    # (it claims every route at the property edge carries 100:1).
    two = json.loads(json.dumps(SPEC))
    two["safety"].append(
        {
            "name": "always-tagged",
            "location": "R2->ISP2",
            "predicate": {"kind": "community", "community": "100:1"},
            "invariants": {"default": {"kind": "true"}, "overrides": {}},
        }
    )
    (tmp_path / "two.json").write_text(json.dumps(two))
    assert main(["verify", s["base"], str(tmp_path / "two.json"), "--cache", s["cache"]]) == 1
    capsys.readouterr()

    # Reverifying with only the passing property must load the cache, run
    # just that property, and exit 0 — the failing cached extra stays out.
    code = main(["reverify", s["base"], s["edited"], s["spec"], "--cache", s["cache"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "base run skipped" in out
    assert "always-tagged" not in out
    assert out.count("reverify: consulted") == 1


# ---------------------------------------------------------------------------
# Refusals: one table, the loader and the CLI
# ---------------------------------------------------------------------------


def _sealed(payload: bytes) -> bytes:
    """``payload`` in this format's layout: header, SHA-256, payload."""
    return HEADER + hashlib.sha256(payload).digest() + payload


def _flip(offset: Callable[[int], int]) -> Callable[[Path], None]:
    return lambda path: corrupt_file(path, offset(path.stat().st_size))


def _cut(keep: Callable[[int], int]) -> Callable[[Path], None]:
    return lambda path: truncate_file(path, keep(path.stat().st_size))


def _replace(content: bytes) -> Callable[[Path], None]:
    return lambda path: path.write_bytes(content)


def _spec_with(**safety_changes) -> dict:
    return {**SPEC, "safety": [{**SPEC["safety"][0], **safety_changes}]}


@dataclass(frozen=True)
class Refusal:
    """A cache saved for Figure 1 and :data:`SPEC` (under ``saved_budget``),
    then ``damage``\\ d, offered ``edit``\\ ed Figure 1, ``spec`` and
    ``budget``: it is refused with ``error`` and a message matching
    ``message``."""

    message: str
    damage: Callable[[Path], None] | None = None
    edit: Callable | None = None
    spec: dict | None = None
    saved_budget: int | None = None
    budget: int | None = None
    error: type = WorkspaceCacheError


NO_HEADER = f"has no format header, this build reads format {CACHE_FORMAT}; delete it and rerun"
DIGEST = "is corrupt: payload digest mismatch"
OTHER_GHOST = {"name": "FromISP1", "kind": "source", "sources": ["ISP2->R2"]}
REFUSALS = {
    # A flipped bit anywhere: header, format number, seal, payload.
    "flip-header": Refusal(NO_HEADER, _flip(lambda size: 0)),
    "flip-format-number": Refusal("has format 1.*delete it and rerun", _flip(lambda size: len(HEADER) - 2)),
    "flip-seal": Refusal(DIGEST, _flip(lambda size: len(HEADER))),
    "flip-payload-start": Refusal(DIGEST, _flip(lambda size: SEAL_END)),
    "flip-payload-middle": Refusal(DIGEST, _flip(lambda size: size // 2)),
    "flip-payload-late": Refusal(DIGEST, _flip(lambda size: size * 3 // 4)),
    "flip-last-byte": Refusal(DIGEST, _flip(lambda size: size - 1)),
    # A cut anywhere.
    "cut-to-empty": Refusal(NO_HEADER, _cut(lambda size: 0)),
    "cut-in-header": Refusal(NO_HEADER, _cut(lambda size: 5)),
    "cut-in-format-number": Refusal(NO_HEADER, _cut(lambda size: len(HEADER) - 2)),
    "cut-after-header": Refusal(DIGEST, _cut(lambda size: len(HEADER))),
    "cut-in-seal": Refusal(DIGEST, _cut(lambda size: len(HEADER) + 10)),
    "cut-in-payload": Refusal(DIGEST, _cut(lambda size: size // 2)),
    "cut-last-byte": Refusal(DIGEST, _cut(lambda size: size - 1)),
    # Not this format: no header (format 9 and older, garbage), another header.
    "format-9-layout": Refusal(NO_HEADER, _replace(pickle.dumps({"format": 9}) + bytes(32))),
    "format-6-unsealed": Refusal(NO_HEADER, _replace(pickle.dumps({"format": 6}))),
    "garbage": Refusal(NO_HEADER, _replace(b"garbage bytes")),
    "other-format-header": Refusal(
        f"has format {CACHE_FORMAT + 1}, this build reads format {CACHE_FORMAT}; delete it and rerun",
        _replace(b"lightyear-cache %d\n" % (CACHE_FORMAT + 1) + bytes(40)),
    ),
    # Sealed and of this format, but not a cache's shape.
    "not-a-dict": Refusal("is corrupt: TypeError", _replace(_sealed(pickle.dumps(["a", "list"])))),
    "missing-keys": Refusal("is corrupt: KeyError", _replace(_sealed(pickle.dumps({})))),
    # Intact, but offered something other than what it was saved for.
    "other-config": Refusal(
        "saved for a different configuration", edit=_benign_r3_edit, error=WorkspaceCacheMismatch
    ),
    "other-ghosts": Refusal(
        "saved with different ghost definitions",
        spec={**SPEC, "ghosts": [OTHER_GHOST]},
        error=WorkspaceCacheMismatch,
    ),
    "other-budget": Refusal("conflict budget None, not 5", budget=5, error=WorkspaceCacheMismatch),
    "no-budget": Refusal("conflict budget 7, not None", saved_budget=7, error=WorkspaceCacheMismatch),
    "another-budget": Refusal(
        "conflict budget 7, not 8", saved_budget=7, budget=8, error=WorkspaceCacheMismatch
    ),
    # The spec is the caller's lookup: the loader answers, without it.
    "other-spec": Refusal(
        "does not cover this spec",
        spec=_spec_with(invariants={"default": {"kind": "true"}, "overrides": {}}),
        error=WorkspaceCacheMismatch,
    ),
}


def _budget(budget: int | None) -> list[str]:
    return [] if budget is None else ["--budget", str(budget)]


def _saved_then_offered(row: Refusal, tmp_path: Path):
    """Save the cache ``row`` starts from and damage it; write what is
    offered to ``offered.json`` and ``offered-spec.json``, and return the
    cache file, the offered configuration and the offered spec."""
    (tmp_path / "saved.json").write_text(config_to_json(build_figure1()))
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    cache = tmp_path / "cache"
    saved = ["verify", str(tmp_path / "saved.json"), str(tmp_path / "spec.json")]
    assert main([*saved, "--cache", str(cache), *_budget(row.saved_budget)]) == 0
    if row.damage is not None:
        row.damage(cache / "workspace.lyc")
    config = build_figure1()
    if row.edit is not None:
        row.edit(config)
    (tmp_path / "offered.json").write_text(config_to_json(config))
    (tmp_path / "offered-spec.json").write_text(json.dumps(row.spec or SPEC))
    return cache / "workspace.lyc", config, spec_from_json(json.dumps(row.spec or SPEC))


@pytest.mark.parametrize("name", REFUSALS)
def test_the_loader_refuses(name, tmp_path):
    row = REFUSALS[name]
    cache, config, spec = _saved_then_offered(row, tmp_path)
    ghosts = spec.build_ghosts(config.topology)
    if name == "other-spec":
        workspace = Workspace.load(cache, config, ghosts, conflict_budget=row.budget)
        (safety,) = spec.safety
        assert workspace.entries
        assert workspace.entry(safety.property, safety.build_invariants(config.topology)) is None
        return
    with pytest.raises(row.error, match=row.message):
        Workspace.load(cache, config, ghosts, conflict_budget=row.budget)


@pytest.mark.parametrize("name", REFUSALS)
def test_the_cli_refuses_with_exit_2(name, tmp_path, capsys):
    row = REFUSALS[name]
    cache = _saved_then_offered(row, tmp_path)[0]
    capsys.readouterr()
    offered = [str(tmp_path / "offered.json"), str(tmp_path / "offered-spec.json")]
    code = main(["verify", *offered, "--cache", str(cache.parent), *_budget(row.budget)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(f"^error: .*{row.message}", err, re.M) and "Traceback" not in err


def test_load_needs_the_configuration(tmp_path):
    with pytest.raises(TypeError):
        Workspace.load(tmp_path / "workspace.lyc")  # type: ignore[call-arg]


def test_unreadable_path_raises_cache_error(tmp_path):
    with pytest.raises(WorkspaceCacheError, match="cannot read"):
        Workspace.load(tmp_path / "does-not-exist.lyc", build_figure1())


def test_mismatch_is_a_cache_error_subtype():
    # CLI error handling catches WorkspaceCacheError; the mismatch class
    # must stay inside that hierarchy (and inside ValueError for main()).
    assert issubclass(WorkspaceCacheMismatch, WorkspaceCacheError)
    assert issubclass(WorkspaceCacheError, ValueError)


def test_flip_of_every_pickled_boolean_raises_cache_error(tmp_path):
    # The bug this pins: NEWFALSE (0x89) and NEWTRUE (0x88) differ in bit
    # 0, so one flipped bit turns a cached ``passed=False`` into ``True``
    # inside a perfectly valid pickle.  Without a digest over the whole
    # payload such a file loaded and a reverify reported PASSED.
    config = build_figure1(buggy_r1_tagging=True)
    ghosts = spec_from_json(json.dumps(SPEC)).build_ghosts(config.topology)
    saved = tmp_path / "workspace.lyc"
    with Workspace(config, ghosts=ghosts) as ws:
        (safety,) = spec_from_json(json.dumps(SPEC)).safety
        assert not ws.verify(safety.property, safety.build_invariants(config.topology)).passed
        ws.save(saved)
    raw = saved.read_bytes()
    assert raw.startswith(HEADER)
    offsets = [
        SEAL_END + pos
        for opcode, __, pos in pickletools.genops(raw[SEAL_END:])
        if opcode.name in ("NEWTRUE", "NEWFALSE")
    ]
    # Whole outcomes are kept only for the failed check and the
    # implication, so these are their ``passed``/``unknown``/``rejected``.
    assert len(offsets) > 10
    for offset in offsets:
        copy = tmp_path / "copy.lyc"
        copy.write_bytes(raw)
        corrupt_file(copy, offset, 0x01)
        with pytest.raises(WorkspaceCacheError, match="digest"):
            Workspace.load(copy, config, ghosts)
    # The undamaged file still loads and still reports the failure — from
    # the stored outcome, nothing is re-run.
    with Workspace.load(saved, config, ghosts) as ws:
        (entry,) = ws.reverify()
        assert not entry.report.passed
        assert entry.report.rerun_checks == 0
        assert entry.report.failures[0].blamed_router == "R1"


UNPICKLED: list[str] = []


def _record(tag: str) -> None:
    UNPICKLED.append(tag)


class _Tripwire:
    """Records, when it is unpickled, that it was."""

    def __reduce__(self):
        return _record, ("unpickled",)


def test_a_payload_under_a_wrong_seal_is_never_unpickled(tmp_path):
    payload = pickle.dumps({"entries": [_Tripwire()]})
    pickle.loads(payload)  # the tripwire works...
    assert UNPICKLED == ["unpickled"]
    UNPICKLED.clear()
    target = tmp_path / "workspace.lyc"
    target.write_bytes(HEADER + bytes(hashlib.sha256().digest_size) + payload)
    with pytest.raises(WorkspaceCacheError, match="digest"):
        Workspace.load(target, build_figure1())
    assert UNPICKLED == []  # ...and the loader never set it off
