"""Configuration diffing: which routers changed between two snapshots.

Drives incremental re-verification in deployment: the verifier only needs
the set of routers whose policy differs, which this module computes
structurally (not textually), plus a human-readable change summary.
"""

from __future__ import annotations

from repro.bgp.config import NetworkConfig, RouterConfig
from repro.record import Record


class ConfigDiff(Record):
    """Differences between two network configurations."""

    added_routers: list[str] = []
    removed_routers: list[str] = []
    changed_routers: list[str] = []
    changed_externals: list[str] = []
    topology_changed: bool = False
    details: dict[str, list[str]] = {}

    @property
    def is_empty(self) -> bool:
        return not (
            self.added_routers
            or self.removed_routers
            or self.changed_routers
            or self.changed_externals
            or self.topology_changed
        )

    def summary(self) -> str:
        if self.is_empty:
            return "no changes"
        parts = []
        if self.topology_changed:
            parts.append("topology changed")
        if self.added_routers:
            parts.append(f"added: {', '.join(self.added_routers)}")
        if self.removed_routers:
            parts.append(f"removed: {', '.join(self.removed_routers)}")
        if self.changed_routers:
            parts.append(f"changed: {', '.join(self.changed_routers)}")
        if self.changed_externals:
            parts.append(f"external ASN changed: {', '.join(self.changed_externals)}")
        return "; ".join(parts)


def _router_changes(old: RouterConfig, new: RouterConfig) -> list[str]:
    changes: list[str] = []
    if old.asn != new.asn:
        changes.append(f"asn {old.asn} -> {new.asn}")
    if old.rr_clients != new.rr_clients:
        changes.append("route-reflector clients changed")
    for peer in sorted(set(old.neighbors) | set(new.neighbors)):
        o = old.neighbors.get(peer)
        n = new.neighbors.get(peer)
        if o is None:
            changes.append(f"session to {peer} added")
            continue
        if n is None:
            changes.append(f"session to {peer} removed")
            continue
        if o.remote_asn != n.remote_asn:
            changes.append(f"{peer}: remote-as {o.remote_asn} -> {n.remote_asn}")
        if o.import_map != n.import_map:
            changes.append(f"{peer}: import route-map changed")
        if o.export_map != n.export_map:
            changes.append(f"{peer}: export route-map changed")
        if o.originated != n.originated:
            changes.append(f"{peer}: originated routes changed")
    return changes


def diff_configs(old: NetworkConfig, new: NetworkConfig) -> ConfigDiff:
    """Structurally compare two configurations."""
    diff = ConfigDiff()
    diff.topology_changed = (
        old.topology.externals != new.topology.externals
        or old.topology.canonical() != new.topology.canonical()
    )
    old_names = set(old.routers)
    new_names = set(new.routers)
    diff.added_routers = sorted(new_names - old_names)
    diff.removed_routers = sorted(old_names - new_names)
    for name in sorted(old_names & new_names):
        changes = _router_changes(old.routers[name], new.routers[name])
        if changes:
            diff.changed_routers.append(name)
            diff.details[name] = changes
    # An external's ASN is no router's configuration, yet it decides which
    # sessions are eBGP and what an export prepends.
    for name in sorted(old.topology.externals & new.topology.externals):
        before, after = old.external_asns.get(name), new.external_asns.get(name)
        if before != after:
            diff.changed_externals.append(name)
            diff.details[name] = [f"asn {before} -> {after}"]
    return diff
