"""cache-format-discipline: the manifest workflow end to end.

Fixtures are copied to the same filename in a tmp dir so the manifest's
path-qualified shape keys line up between the "before" and "after"
versions — exactly how the checker sees an edit to a real file.
"""

import json
import shutil
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

DIR = FIXTURES / "cache_format"


def _setup(tmp_path, lint, version="v1"):
    shutil.copy(DIR / version / "store.py", tmp_path / "store.py")
    manifest = tmp_path / "cache-shape.json"
    result = lint(tmp_path, update_manifest=True)
    assert result.findings == []
    assert manifest.exists()
    return manifest


def test_update_manifest_writes_current_shapes(tmp_path, lint):
    manifest = _setup(tmp_path, lint)
    payload = json.loads(manifest.read_text())
    assert payload["cache_format"] == 1
    assert payload["shapes"]["store.py::Store.save:state"] == ["format", "tracker"]
    assert payload["shapes"]["store.py::Store.state_dict"] == ["digests", "outcomes"]
    assert payload["shapes"]["dataclass:Payload"] == ["digests", "outcomes"]


def test_unchanged_shapes_pass(tmp_path, lint):
    _setup(tmp_path, lint)
    result = lint(tmp_path)
    assert result.findings == []


def test_shape_change_without_bump_is_flagged(tmp_path, lint):
    _setup(tmp_path, lint)
    shutil.copy(DIR / "v2_unbumped" / "store.py", tmp_path / "store.py")
    result = lint(tmp_path)
    symbols = {finding.symbol for finding in result.findings}
    # All three persisted shapes changed; each gets its own finding.
    assert symbols == {
        "store.py::Store.save:state",
        "store.py::Store.state_dict",
        "dataclass:Payload",
    }
    assert result.failed
    assert any("without a CACHE_FORMAT bump" in f.message for f in result.findings)


def test_bump_without_regenerating_manifest_is_stale(tmp_path, lint):
    _setup(tmp_path, lint)
    source = (DIR / "v2_unbumped" / "store.py").read_text()
    (tmp_path / "store.py").write_text(
        source.replace("CACHE_FORMAT = 1", "CACHE_FORMAT = 2")
    )
    result = lint(tmp_path)
    assert [finding.symbol for finding in result.findings] == ["manifest-stale"]


def test_bump_plus_regenerate_is_clean(tmp_path, lint):
    manifest = _setup(tmp_path, lint)
    source = (DIR / "v2_unbumped" / "store.py").read_text()
    (tmp_path / "store.py").write_text(
        source.replace("CACHE_FORMAT = 1", "CACHE_FORMAT = 2")
    )
    result = lint(tmp_path, update_manifest=True)
    assert result.findings == []
    result = lint(tmp_path)
    assert result.findings == []
    assert json.loads(manifest.read_text())["cache_format"] == 2


def test_missing_manifest_is_an_error(tmp_path, lint):
    shutil.copy(DIR / "v1" / "store.py", tmp_path / "store.py")
    result = lint(tmp_path)
    assert [finding.symbol for finding in result.findings] == ["manifest-missing"]


def test_corrupt_manifest_is_an_error(tmp_path, lint):
    shutil.copy(DIR / "v1" / "store.py", tmp_path / "store.py")
    manifest = tmp_path / "cache-shape.json"
    manifest.write_text("{not json")
    result = lint(tmp_path)
    assert [finding.symbol for finding in result.findings] == ["manifest-corrupt"]


def test_no_cache_format_means_nothing_to_discipline(tmp_path, lint):
    (tmp_path / "plain.py").write_text("def f():\n    return 1\n")
    result = lint(tmp_path)
    assert result.findings == []
