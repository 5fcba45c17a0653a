"""Tests for the deterministic fault-injection harness itself.

The chaos suite (test_recovery / test_deadlines) trusts this module to
fire exactly the configured faults; these tests pin the hook slot it
fills, the check-level faults, and the file-damage helpers it builds on.
"""

from __future__ import annotations

import time

import pytest

from repro.core import checks
from repro.testing.faults import (
    FaultInjected,
    FaultPlan,
    corrupt_file,
    install,
    reset,
    truncate_file,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    reset()
    yield
    reset()


def _on_check_start(check, deadline_abs=None):
    """What :meth:`LocalCheck.run` does before it solves."""
    if checks.check_start_hook is not None:
        checks.check_start_hook(check, deadline_abs)


# ---------------------------------------------------------------------------
# Check-level hooks
# ---------------------------------------------------------------------------


def test_install_fills_the_hook_slot_and_reset_empties_it():
    plan = FaultPlan(delay_check_s=0.1)
    install(plan)
    assert checks.check_start_hook == plan.on_check_start
    reset()
    assert checks.check_start_hook is None


def test_kill_in_check_spares_the_parent_process():
    # The kill fault os._exit()s pool *workers* only.  Here — in the
    # process that would run the serial fallback — a match is a no-op;
    # the worker side is exercised end to end in core/test_recovery.py.
    install(FaultPlan(kill_in_check_match="export check at R2"))
    _on_check_start("export check at R2 on R2->E2")


def test_raise_in_check_fires_on_match_only():
    install(FaultPlan(raise_in_check_match="export check at R2"))
    _on_check_start("import check at R1")  # no match: silent
    with pytest.raises(FaultInjected):
        _on_check_start("export check at R2 on R2->E2")


def test_hang_sleeps_just_past_the_deadline():
    install(FaultPlan(hang_check_match="slow"))
    start = time.monotonic()
    _on_check_start("slow check", deadline_abs=time.monotonic() + 0.05)
    elapsed = time.monotonic() - start
    assert 0.05 <= elapsed < 2.0


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
