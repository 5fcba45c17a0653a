#!/usr/bin/env python3
"""Internet peering policies on a cloud WAN (§6.1, Table 4a).

Builds a synthetic multi-region WAN (the stand-in for the paper's
production network), then:

1. verifies all eleven "bad route" peering properties across every router;
2. injects the §6.1 bugs (a missing bogon filter on one edge router, an
   ad-hoc AS-path policy on another) and shows Lightyear localising each
   to the exact router and route map.

Run: ``python examples/wan_bogon_filtering.py``
"""

from repro.core.exec import ExecutionContext
from repro.core.safety import verify_safety
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import all_peering_problems


def verify_all(wan, label: str) -> None:
    print(f"--- {label} ---")
    context = ExecutionContext()  # shared by all eleven families: one encoding each
    for problem in all_peering_problems(wan):
        report = verify_safety(
            wan.config,
            problem.properties,
            problem.invariants,
            ghosts=(problem.ghost,),
            context=context,
        )
        status = "PASS" if report.passed else f"FAIL ({len(report.failures)})"
        print(
            f"  {problem.name:28s} {status:10s} "
            f"{report.num_checks} checks in {report.wall_time_s:.2f}s"
        )
        for failure in report.failures[:2]:
            print("    " + failure.explain().replace("\n", "\n    "))
    print()


def main() -> None:
    wan = build_wan(regions=4, routers_per_region=3, peers_per_edge=2)
    topo = wan.config.topology
    print(
        f"WAN: {len(topo.routers)} routers, {len(topo.externals)} externals, "
        f"{len(topo.edges)} directed edges, {wan.regions} regions\n"
    )
    verify_all(wan, "clean configuration: all 11 peering properties")

    buggy = build_wan(
        regions=4,
        routers_per_region=3,
        peers_per_edge=2,
        buggy_edge_router="W1-0",
        adhoc_aspath_router="W2-0",
    )
    verify_all(buggy, "with injected §6.1 bugs (W1-0 bogons, W2-0 AS-path)")


if __name__ == "__main__":
    main()
