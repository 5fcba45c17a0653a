"""Each checker against its positive/negative fixtures.

The positive fixtures reproduce the historical bug shapes the checkers
exist for: the ``external_asns`` digest gap, the ``_FrozenGhost`` local
class, the PR 6 deadline-free solver loop, and an unbumped
``CACHE_FORMAT``.
"""

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def _keys(findings):
    return {finding.key() for finding in findings}


class TestDigestCoverage:
    DIR = FIXTURES / "digest_coverage"

    def test_flags_the_historical_external_asns_gap(self, lint):
        result = lint(self.DIR, [self.DIR / "bad_external_asns.py"],
                      checkers=["digest-coverage"])
        assert _keys(result.fresh) == {
            "digest-coverage:bad_external_asns.py:Network.external_asns"
        }
        (finding,) = result.fresh
        assert "external_asns" in finding.message
        assert finding.line > 0
        assert result.failed

    def test_project_wide_coverage_clears_the_field(self, lint):
        result = lint(self.DIR, [self.DIR / "good_covered.py"],
                      checkers=["digest-coverage"])
        assert result.fresh == []

    def test_coverage_is_a_union_across_files(self, lint):
        # The bad file's gap is closed by the good file's network_digest
        # when both are in the analysis set: coverage is class-blind and
        # project-wide, exactly like the real repo's incremental layer.
        result = lint(self.DIR, [self.DIR], checkers=["digest-coverage"])
        assert result.fresh == []


class TestPickleSafety:
    DIR = FIXTURES / "pickle_safety"

    def test_flags_the_frozen_ghost_shape(self, lint):
        result = lint(self.DIR, [self.DIR / "bad_frozen_ghost.py"],
                      checkers=["pickle-safety"])
        assert _keys(result.fresh) == {
            "pickle-safety:bad_frozen_ghost.py:_FrozenGhost"
        }
        (finding,) = result.fresh
        assert "inside a function" in finding.message

    def test_flags_lambda_slots_and_handle(self, lint):
        result = lint(self.DIR, [self.DIR / "bad_payload.py"],
                      checkers=["pickle-safety"])
        assert _keys(result.fresh) == {
            "pickle-safety:bad_payload.py:Outcome.notes",
            "pickle-safety:bad_payload.py:SlottedCheck",
            "pickle-safety:bad_payload.py:LogHolder.handle",
        }

    def test_picklable_equivalents_are_clean(self, lint):
        result = lint(self.DIR, [self.DIR / "good_payload.py"],
                      checkers=["pickle-safety"])
        assert result.fresh == []

    def test_unreachable_classes_are_not_flagged(self, lint, tmp_path):
        # Same defects, but no PICKLE_ROOTS declaration and no default
        # root name: nothing is reachable, nothing is flagged.
        source = (self.DIR / "bad_payload.py").read_text()
        source = source.replace('PICKLE_ROOTS = ("Outcome",)\n', "")
        (tmp_path / "unreachable.py").write_text(source)
        result = lint(tmp_path, checkers=["pickle-safety"])
        assert result.fresh == []


class TestDeadlineDiscipline:
    DIR = FIXTURES / "deadline_discipline"

    def test_flags_deadline_free_loop_and_unguarded_remaining(self, lint):
        result = lint(self.DIR, [self.DIR / "bad_loops.py"],
                      checkers=["deadline-discipline"])
        keys = _keys(result.fresh)
        assert any(key.endswith(":dispatch:remaining") for key in keys)
        assert any(":search:while@" in key for key in keys)
        assert len(keys) == 2

    def test_sampled_and_guarded_code_is_clean(self, lint):
        result = lint(self.DIR, [self.DIR / "good_loops.py"],
                      checkers=["deadline-discipline"])
        assert result.fresh == []
        # The structurally-bounded luby loop is silenced by its reasoned
        # suppression, not by being invisible to the checker.
        assert len(result.suppressed) == 1
        assert result.suppressed[0].checker == "deadline-discipline"

    def test_files_without_the_marker_are_exempt(self, lint):
        result = lint(self.DIR, [self.DIR / "not_hot.py"],
                      checkers=["deadline-discipline"])
        assert result.fresh == []

    def test_flags_scheduler_dispatch_without_stop_discipline(self, lint):
        # The PR 9 shape: a round-draining dispatch loop plus a computed
        # per-batch effective deadline — both without stop discipline.
        result = lint(self.DIR, [self.DIR / "bad_scheduler.py"],
                      checkers=["deadline-discipline"])
        keys = _keys(result.fresh)
        assert any(":drain:while@" in key for key in keys)
        assert any(key.endswith(":effective:remaining") for key in keys)
        assert len(keys) == 2

    def test_scheduler_dispatch_with_stop_discipline_is_clean(self, lint):
        # The mirrored fixes: the loop samples the run deadline between
        # batches, and the remainder is clamped at expiry.
        result = lint(self.DIR, [self.DIR / "good_scheduler.py"],
                      checkers=["deadline-discipline"])
        assert result.fresh == []
        assert result.suppressed == []
