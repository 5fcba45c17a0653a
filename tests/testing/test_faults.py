"""Tests for the deterministic fault-injection harness itself.

The chaos suite (test_recovery / test_deadlines) trusts this module to
fire exactly the configured faults; these tests pin the plan parsing,
check-level hooks, and file-damage helpers it builds on.
"""

from __future__ import annotations

import time

import pytest

from repro.testing.faults import (
    FaultInjected,
    FaultPlan,
    active_plan,
    corrupt_file,
    install,
    on_check_start,
    reset,
    truncate_file,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    reset()
    yield
    reset()


# ---------------------------------------------------------------------------
# Plan parsing (REPRO_FAULTS)
# ---------------------------------------------------------------------------


def test_from_env_parses_every_field():
    plan = FaultPlan.from_env(
        "kill_in_check_match=originate check,"
        "delay_check_s=0.25, delay_check_match=import check,"
        "hang_check_match=export check, raise_in_check_match=implication"
    )
    assert plan == FaultPlan(
        kill_in_check_match="originate check",
        delay_check_s=0.25,
        delay_check_match="import check",
        hang_check_match="export check",
        raise_in_check_match="implication",
    )


def test_from_env_empty_means_no_plan():
    assert FaultPlan.from_env("") is None
    assert FaultPlan.from_env("  ,  ") == FaultPlan()


def test_from_env_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown or malformed"):
        FaultPlan.from_env("kill_in_chekc_match=R1")


def test_from_env_rejects_malformed_entries():
    with pytest.raises(ValueError, match="unknown or malformed"):
        FaultPlan.from_env("kill_in_check_match")


def test_active_plan_reads_environment_once(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "delay_check_s=1")
    reset()
    assert active_plan().delay_check_s == 1
    # Cached: later env changes are not observed until the next reset().
    monkeypatch.setenv("REPRO_FAULTS", "delay_check_s=7")
    assert active_plan().delay_check_s == 1
    reset()
    assert active_plan().delay_check_s == 7


def test_install_wins_over_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "delay_check_s=1")
    install(None)
    assert active_plan() is None
    install(FaultPlan(delay_check_s=0.1))
    assert active_plan().delay_check_s == 0.1


# ---------------------------------------------------------------------------
# Check-level hooks
# ---------------------------------------------------------------------------


def test_kill_in_check_spares_the_parent_process():
    # The kill fault os._exit()s pool *workers* only.  Here — in the
    # process that would run the serial fallback — a match is a no-op;
    # the worker side is exercised end to end in core/test_recovery.py.
    install(FaultPlan(kill_in_check_match="export check at R2"))
    on_check_start("export check at R2 on R2->E2")


def test_raise_in_check_fires_on_match_only():
    install(FaultPlan(raise_in_check_match="export check at R2"))
    on_check_start("import check at R1")  # no match: silent
    with pytest.raises(FaultInjected):
        on_check_start("export check at R2 on R2->E2")


def test_hang_sleeps_just_past_the_deadline():
    install(FaultPlan(hang_check_match="slow"))
    start = time.monotonic()
    on_check_start("slow check", deadline_abs=time.monotonic() + 0.05)
    elapsed = time.monotonic() - start
    assert 0.05 <= elapsed < 2.0


def test_hook_is_inert_without_a_plan():
    start = time.monotonic()
    on_check_start("any check at all")
    assert time.monotonic() - start < 0.5


# ---------------------------------------------------------------------------
# File damage helpers
# ---------------------------------------------------------------------------


def test_corrupt_file_flips_one_byte(tmp_path):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"\x00\x01\x02\x03")
    corrupt_file(target, 2)
    assert target.read_bytes() == b"\x00\x01\xfd\x03"
    # XOR is an involution: damaging the same byte again restores it.
    corrupt_file(target, 2)
    assert target.read_bytes() == b"\x00\x01\x02\x03"


def test_corrupt_file_negative_offset_is_from_the_end(tmp_path):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"abcd")
    corrupt_file(target, -1, flip=0x01)
    assert target.read_bytes() == b"abce"


def test_corrupt_file_refuses_empty_files(tmp_path):
    target = tmp_path / "empty.bin"
    target.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        corrupt_file(target, 0)


def test_truncate_file_keeps_a_prefix(tmp_path):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"0123456789")
    truncate_file(target, 4)
    assert target.read_bytes() == b"0123"
    truncate_file(target, 0)
    assert target.read_bytes() == b""
