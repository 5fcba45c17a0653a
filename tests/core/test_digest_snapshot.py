"""A workspace snapshots its configuration at handover and digests it on demand.

``Workspace(...)``, ``apply`` and ``load`` take a :class:`ConfigSnapshot`:
references to every router's frozen route maps and routes, its ASNs and
reflector clients, plus the external ASNs and the topology's canonical
form.  SHA-256 is computed from that snapshot only when something needs a
diff or crosses a process (``save``, ``load``, ``apply``, a tracker's
second run), so a plain ``verify`` canonicalises and hashes no policy; and
whatever is digested describes the configuration as it was handed over,
not as it was edited in place afterwards.
"""

from __future__ import annotations


import pytest

from repro.bgp import config as config_module
from repro.bgp import policy as policy_module
from repro.bgp.config import RouterLeaves
from repro.bgp.policy import Disposition, MatchPrefix, RouteMap, RouteMapClause
from repro.bgp.prefix import Prefix, PrefixRange
from repro.bgp.route import Route
from repro.core.checks import CheckKind, check_owner
from repro.core.incremental import config_digests
from repro.core.workspace import Workspace, WorkspaceCacheMismatch
from repro.workloads.fullmesh import build_full_mesh, full_mesh_single_router_edit

from tests.core.conftest import mesh_no_transit, saved_state

N = 5


def _mesh_with_an_origination():
    # One originated route, so the run has an originate check whose memo
    # key holds routes.
    config = build_full_mesh(N)
    config.routers["R1"].neighbors["R2"].originated = (Route(Prefix.parse("10.9.0.0/16")),)
    return config


@pytest.fixture
def digest_work(monkeypatch):
    """Every router digest and every ``canonical_policy`` call, as made."""
    calls: list[str] = []
    digest = RouterLeaves.digest
    monkeypatch.setattr(
        RouterLeaves, "digest", lambda self: calls.append(self.name) or digest(self)
    )
    canonical = policy_module.canonical_policy

    def counted(obj):
        calls.append("canonical_policy")
        return canonical(obj)

    monkeypatch.setattr(policy_module, "canonical_policy", counted)
    monkeypatch.setattr(config_module, "canonical_policy", counted)
    return calls


def test_a_plain_verify_digests_nothing(digest_work):
    config = _mesh_with_an_origination()
    ghost, prop, invariants = mesh_no_transit(config)
    ws = Workspace(config, ghosts=(ghost,))
    report = ws.verify(prop, invariants)
    assert report.passed
    assert any(o.check.kind is CheckKind.ORIGINATE for o in report.iter_outcomes())
    assert ws.verify(prop, invariants).passed  # the same snapshot: nothing to diff
    assert digest_work == []
    ws.apply(full_mesh_single_router_edit(N))  # a diff needs digests
    assert "canonical_policy" in digest_work and "R1" in digest_work


def _strip(config, router: str, peer: str) -> None:
    """Reassign one import map in place: deny a bogon first."""
    session = config.routers[router].neighbors[peer]
    session.import_map = RouteMap(
        "STRIPPED",
        (
            RouteMapClause(
                5,
                Disposition.DENY,
                matches=(MatchPrefix((PrefixRange.parse("10.0.0.0/8 le 32"),)),),
            ),
            *session.import_map.clauses,
        ),
    )


def test_an_in_place_edit_after_verify_is_not_what_gets_saved(tmp_path):
    config = build_full_mesh(N)
    ghost, prop, invariants = mesh_no_transit(config)
    ws = Workspace(config, ghosts=(ghost,))
    ws.verify(prop, invariants)
    _strip(config, "R3", "E3")
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    with pytest.raises(WorkspaceCacheMismatch, match="policy digests differ"):
        Workspace.load(path, config, (ghost,))
    # The configuration as handed over still opens it.
    assert Workspace.load(path, build_full_mesh(N), (ghost,)).entries


def test_saved_digests_are_those_of_the_configuration_handed_over(tmp_path):
    config = build_full_mesh(N)
    expected = config_digests(build_full_mesh(N))  # eager, on an equal configuration
    ghost, prop, invariants = mesh_no_transit(config)
    ws = Workspace(config, ghosts=(ghost,))
    ws.verify(prop, invariants)
    _strip(config, "R2", "E2")
    config.set_external_asn("E1", 64999)
    assert config_digests(config) != expected
    path = tmp_path / "workspace.lyc"
    ws.save(path)
    saved = saved_state(path)
    assert saved["config_digests"] == expected
    assert saved["entries"][0]["state"]["digests"] == expected


def test_a_reverify_after_apply_consults_the_edited_owner_only():
    config = build_full_mesh(N)
    ghost, prop, invariants = mesh_no_transit(config)
    ws = Workspace(config, ghosts=(ghost,))
    full = ws.verify(prop, invariants)
    edited = full_mesh_single_router_edit(N)
    assert ws.apply(edited) == {f"R{N}"}
    (entry,) = ws.reverify()
    owned = sum(1 for o in full.iter_outcomes() if check_owner(o.check) == f"R{N}")
    assert owned > 0
    assert entry.report.rerun_checks == owned
    assert entry.report.passed
