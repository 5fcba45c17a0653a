#!/usr/bin/env python3
"""Parse router configurations from text and verify a property.

Demonstrates the configuration front end: the same Figure 1 network is
written in the Cisco-flavoured text dialect, parsed into the §3.1 model,
round-tripped through JSON, and verified.

Run: ``python examples/parse_and_verify.py``
"""

from repro.bgp.configjson import config_from_json, config_to_json
from repro.bgp.configparse import parse_config
from repro.bgp.topology import Edge
from repro.core import SafetyProperty, Workspace
from repro.core.properties import InvariantMap
from repro.lang import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not
from repro.bgp.route import Community


CONFIG_TEXT = """
# Figure 1, in the text dialect.
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
    import route-map CUST-IN
  neighbor R1 as 65000
  neighbor R2 as 65000

route-map ISP1-IN
  clause 10 permit
    add community 100:1

route-map ISP2-OUT
  clause 10 deny
    match community 100:1
  clause 20 permit

route-map CUST-IN
  clause 10 permit
    match prefix 20.0.0.0/8 le 24
    clear communities
"""


def main() -> None:
    config = parse_config(CONFIG_TEXT)
    print(f"parsed: {config.topology!r}")

    # Round-trip through JSON (what the CLI and generators exchange).
    config = config_from_json(config_to_json(config))
    print("JSON round-trip ok")

    from_isp1 = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    workspace = Workspace(config, ghosts=(from_isp1,))
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(GhostIs("FromISP1")),
        name="no-transit",
    )
    invariants = InvariantMap(
        config.topology,
        default=Implies(GhostIs("FromISP1"), HasCommunity(Community(100, 1))),
    )
    invariants.set_edge("R2", "ISP2", Not(GhostIs("FromISP1")))
    report = workspace.verify(prop, invariants)
    print(report.summary())
    assert report.passed


if __name__ == "__main__":
    main()
