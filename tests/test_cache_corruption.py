"""Cache-corruption resilience: a damaged workspace cache is always
rejected with :class:`WorkspaceCacheError` — never a raw pickle error,
``EOFError``, or ``KeyError`` — and the CLI turns that into exit 2 with
a readable message.

Corruption is injected byte-by-byte with the fault harness's
:func:`repro.testing.faults.corrupt_file` / :func:`truncate_file`, so
the loader's hardening is asserted at many positions (header, middle,
tail), not just for an unreadable file — and at every pickled boolean,
where one flipped bit leaves a *valid* pickle holding the opposite
verdict that only the whole-payload digest can catch.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import pickle
import pickletools
import shutil
import zlib
from pathlib import Path

import pytest

from repro.bgp.configjson import config_to_json
from repro.bgp.topology import Edge
from repro.cli import main
from repro.core.properties import SafetyProperty
from repro.core.workspace import (
    CACHE_FORMAT,
    Workspace,
    WorkspaceCacheError,
    WorkspaceCacheMismatch,
)
from repro.lang.predicates import TruePred
from repro.testing.faults import corrupt_file, truncate_file
from repro.workloads.figure1 import build_figure1

from tests.core.conftest import isp1_ghost, no_transit_invariants, no_transit_property


@pytest.fixture(scope="module")
def saved_cache(tmp_path_factory):
    """A real saved workspace cache plus the config it was saved for."""
    tmp = tmp_path_factory.mktemp("cachesrc")
    config = build_figure1()
    prop = SafetyProperty(location=Edge("R2", "ISP2"), predicate=TruePred(), name="t")
    with Workspace(config) as ws:
        ws.verify(prop, ws.invariants())
        ws.save(tmp / "workspace.lyc")
    return tmp / "workspace.lyc", config


def _sealed(payload: bytes) -> bytes:
    """``payload`` in the on-disk layout: the pickle, then its SHA-256."""
    return payload + hashlib.sha256(payload).digest()


def _damaged_copy(saved: Path, tmp_path: Path, damage) -> Path:
    copy = tmp_path / saved.name
    shutil.copy(saved, copy)
    damage(copy)
    return copy


# Relative positions across the whole file: header, early body, middle,
# tail, and the last byte.
FLIP_POSITIONS = [0.0, 0.001, 0.25, 0.5, 0.75, 0.999, -1]


@pytest.mark.parametrize("position", FLIP_POSITIONS)
def test_bit_flip_anywhere_raises_cache_error(saved_cache, tmp_path, position):
    saved, config = saved_cache
    size = saved.stat().st_size
    offset = position if position == -1 else int(size * position)
    copy = _damaged_copy(saved, tmp_path, lambda p: corrupt_file(p, offset))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(copy, config=config)


@pytest.mark.parametrize("keep_fraction", [0.0, 0.001, 0.1, 0.5, 0.99])
def test_truncation_anywhere_raises_cache_error(saved_cache, tmp_path, keep_fraction):
    saved, config = saved_cache
    keep = int(saved.stat().st_size * keep_fraction)
    copy = _damaged_copy(saved, tmp_path, lambda p: truncate_file(p, keep))
    with pytest.raises(WorkspaceCacheError):
        Workspace.load(copy, config=config)


def test_flip_of_every_pickled_boolean_raises_cache_error(tmp_path):
    # The bug this pins: NEWFALSE (0x89) and NEWTRUE (0x88) differ in bit
    # 0, so one flipped bit turns a cached ``passed=False`` into ``True``
    # inside a perfectly valid pickle.  Without a digest over the whole
    # payload such a file loaded and a reverify reported PASSED.
    config = build_figure1(buggy_r1_tagging=True)
    ghost = isp1_ghost(config)
    saved = tmp_path / "src" / "workspace.lyc"
    with Workspace(config, ghosts=(ghost,)) as ws:
        report = ws.verify(no_transit_property(), no_transit_invariants(config))
        assert not report.passed
        ws.save(saved)
    payload = saved.read_bytes()
    offsets = [
        pos
        for opcode, __, pos in pickletools.genops(payload)
        if opcode.name in ("NEWTRUE", "NEWFALSE")
    ]
    # Format 6 keeps whole outcomes only for the failed check and the
    # implication, so these are their ``passed``/``unknown``/``rejected``.
    assert len(offsets) > 10
    # The saved configuration is a deflated pickle nested in the payload,
    # opened only by ``load(path)`` without ``config=`` — long after the
    # digest check.  Every byte of it is sealed by that same digest.
    blob = pickle.loads(payload)["config"]
    pickle.loads(zlib.decompress(blob))
    start = payload.index(blob)
    offsets += range(start, start + len(blob))
    for offset in offsets:
        copy = _damaged_copy(saved, tmp_path, lambda p: corrupt_file(p, offset, 0x01))
        with pytest.raises(WorkspaceCacheError, match="digest"):
            Workspace.load(copy, config=config, ghosts=(ghost,))
        with pytest.raises(WorkspaceCacheError, match="digest"):
            Workspace.load(copy)
    # The undamaged file still loads, either way, and still reports the
    # failure — from the stored outcome, nothing is re-run.
    for offered in ({"config": config, "ghosts": (ghost,)}, {}):
        with Workspace.load(saved, **offered) as ws:
            (entry,) = ws.reverify()
            assert not entry.last_result.report.passed
            assert entry.last_result.rerun_checks == 0
            assert entry.last_result.report.failures[0].blamed_router == "R1"


def test_unreadable_path_raises_cache_error(tmp_path):
    with pytest.raises(WorkspaceCacheError, match="cannot read"):
        Workspace.load(tmp_path / "does-not-exist.lyc")


def test_valid_pickle_wrong_shape_raises_cache_error(tmp_path):
    # A structurally valid pickle that is not a cache dict at all.
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps(["not", "a", "cache"]))
    with pytest.raises(WorkspaceCacheError, match="not a workspace cache"):
        Workspace.load(target)


def test_valid_pickle_missing_keys_raises_cache_error(tmp_path):
    # Intact, has a format field, but the payload shape is wrong: the
    # loader's interpretation hardening must wrap the KeyError.
    target = tmp_path / "workspace.lyc"
    target.write_bytes(_sealed(pickle.dumps({"format": CACHE_FORMAT})))
    with pytest.raises(WorkspaceCacheError, match="corrupt.*KeyError"):
        Workspace.load(target)


def test_current_format_without_digest_raises_cache_error(saved_cache, tmp_path):
    # A file of this format whose trailing digest is missing (here: cut
    # off exactly) is damaged, however well its pickle loads.
    saved, config = saved_cache
    payload_len = saved.stat().st_size - hashlib.sha256().digest_size
    copy = _damaged_copy(saved, tmp_path, lambda p: truncate_file(p, payload_len))
    pickle.loads(copy.read_bytes())  # the pickle itself is whole
    with pytest.raises(WorkspaceCacheError, match="digest"):
        Workspace.load(copy, config=config)


def test_future_format_raises_cache_error(tmp_path):
    target = tmp_path / "workspace.lyc"
    target.write_bytes(pickle.dumps({"format": CACHE_FORMAT + 1}))
    with pytest.raises(WorkspaceCacheError, match="format"):
        Workspace.load(target)


def test_previous_format_raises_cache_error(tmp_path):
    # The previous formats (6: dataclass edges, 7: stored check
    # descriptions, 8: sets pickled in hash order) must be rejected
    # readably — by their format number, sealed or not, never as "corrupt"
    # and never by reading them as the current shape.
    assert CACHE_FORMAT == 9
    target = tmp_path / "workspace.lyc"
    for old in (6, 7, 8):
        refusal = f"has format {old}, this build reads format 9; delete it and rerun"
        for content in (pickle.dumps({"format": old}), _sealed(pickle.dumps({"format": old}))):
            target.write_bytes(content)
            with pytest.raises(WorkspaceCacheError, match=refusal):
                Workspace.load(target)


class _Format6Pickler(pickle.Pickler):
    """Pickles an ``Edge`` the way format 6 did, as a dataclass: rebuilt by
    ``Edge.__new__(Edge)`` and then its state dict — which this build's
    tuple ``Edge`` cannot do."""

    def reducer_override(self, obj):
        if type(obj) is Edge:
            return copyreg.__newobj__, (Edge,), {"src": obj.src, "dst": obj.dst}
        return NotImplemented


def _format6_cache(saved: Path, target: Path) -> None:
    """``saved`` rewritten in format 6's layout: same state, format 6, every
    edge pickled as a dataclass, sealed."""
    state = pickle.loads(saved.read_bytes())
    state["format"] = 6
    buffer = io.BytesIO()
    _Format6Pickler(buffer, protocol=5).dump(state)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(_sealed(buffer.getvalue()))


def test_format6_layout_is_refused_by_its_format(saved_cache, tmp_path):
    # Unpickling a format-6 file fails on its first edge, before the
    # loader could read ``format``: the refusal must still name the format.
    saved, config = saved_cache
    target = tmp_path / "workspace.lyc"
    _format6_cache(saved, target)
    with pytest.raises(TypeError):
        pickle.loads(target.read_bytes())
    refusal = "has format 6, this build reads format 9; delete it and rerun"
    with pytest.raises(WorkspaceCacheError, match=refusal):
        Workspace.load(target, config=config)
    with pytest.raises(WorkspaceCacheError, match=refusal):
        Workspace.load(target)


def test_mismatch_is_a_cache_error_subtype():
    # CLI error handling catches WorkspaceCacheError; the mismatch class
    # must stay inside that hierarchy (and inside ValueError for main()).
    assert issubclass(WorkspaceCacheMismatch, WorkspaceCacheError)
    assert issubclass(WorkspaceCacheError, ValueError)


# ---------------------------------------------------------------------------
# CLI: corrupt caches exit 2 with a readable error
# ---------------------------------------------------------------------------

SPEC = {
    "safety": [
        {
            "name": "trivial",
            "location": "R2->ISP2",
            "predicate": {"kind": "true"},
            "invariants": {"default": {"kind": "true"}, "overrides": {}},
        }
    ]
}


@pytest.fixture
def cli_setup(tmp_path):
    config = build_figure1()
    (tmp_path / "base.json").write_text(config_to_json(config))
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    cache_dir = tmp_path / "cachedir"
    return {
        "base": str(tmp_path / "base.json"),
        "spec": str(tmp_path / "spec.json"),
        "cache": str(cache_dir),
        "cache_file": cache_dir / "workspace.lyc",
    }


@pytest.mark.parametrize(
    "damage",
    [lambda p: corrupt_file(p, 0), lambda p: truncate_file(p, 16)],
    ids=["bit-flip", "truncate"],
)
def test_cli_corrupt_cache_exits_2(cli_setup, capsys, damage):
    s = cli_setup
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    damage(s["cache_file"])
    code = main(["verify", s["base"], s["spec"], "--cache", s["cache"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_cli_previous_format_cache_exits_2(cli_setup, capsys):
    s = cli_setup
    s["cache_file"].parent.mkdir()
    s["cache_file"].write_bytes(pickle.dumps({"format": CACHE_FORMAT - 1}))
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 2
    err = capsys.readouterr().err
    assert f"has format {CACHE_FORMAT - 1}" in err
    assert "delete it and rerun" in err


def test_cli_reverify_on_format6_cache_exits_2(cli_setup, capsys):
    s = cli_setup
    assert main(["verify", s["base"], s["spec"], "--cache", s["cache"]]) == 0
    capsys.readouterr()
    _format6_cache(s["cache_file"], s["cache_file"])
    code = main(["reverify", s["base"], s["base"], s["spec"], "--cache", s["cache"]])
    assert code == 2
    err = capsys.readouterr().err
    assert "has format 6, this build reads format 9; delete it and rerun" in err
    assert "Traceback" not in err
