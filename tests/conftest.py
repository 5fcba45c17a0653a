"""The CLI's shared inputs: Figure 1 in the router dialect (R1 tags ISP1's
routes 100:1, R2 denies them towards ISP2) and its no-transit spec."""

from __future__ import annotations

import json

import pytest

CONFIG_TEXT = """
external ISP1 as 100
external ISP2 as 200
external Customer as 300
router R1 as 65000
  neighbor ISP1 as 100
    import route-map ISP1-IN
  neighbor R2 as 65000
  neighbor R3 as 65000
router R2 as 65000
  neighbor ISP2 as 200
    export route-map ISP2-OUT
  neighbor R1 as 65000
  neighbor R3 as 65000
router R3 as 65000
  neighbor Customer as 300
  neighbor R1 as 65000
  neighbor R2 as 65000
route-map ISP1-IN
  clause 10 permit
    add community 100:1
route-map ISP2-OUT
  clause 10 deny
    match community 100:1
  clause 20 permit
"""

_NOT_FROM_ISP1 = {"kind": "not", "inner": {"kind": "ghost", "name": "FromISP1"}}
SPEC = {
    "ghosts": [{"name": "FromISP1", "kind": "source", "sources": ["ISP1->R1"]}],
    "safety": [
        {
            "name": "no-transit",
            "location": "R2->ISP2",
            "predicate": _NOT_FROM_ISP1,
            "invariants": {
                "default": {
                    "kind": "implies",
                    "antecedent": {"kind": "ghost", "name": "FromISP1"},
                    "consequent": {"kind": "community", "community": "100:1"},
                },
                "overrides": {"R2->ISP2": _NOT_FROM_ISP1},
            },
        }
    ],
}


@pytest.fixture
def cli_inputs(tmp_path) -> tuple[str, str]:
    """(configuration file, spec file): :data:`CONFIG_TEXT` and :data:`SPEC`."""
    config, spec = tmp_path / "network.cfg", tmp_path / "spec.json"
    config.write_text(CONFIG_TEXT)
    spec.write_text(json.dumps(SPEC))
    return str(config), str(spec)
