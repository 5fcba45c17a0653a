#!/usr/bin/env python3
"""Proper IP reuse across WAN regions (§6.1, Tables 4b and 4c).

The WAN reuses private IPv4 space in every region.  Two properties keep
that safe:

* **Safety** (Table 4b): reused-prefix routes from region k are never
  accepted by routers outside region k.
* **Liveness** (Table 4c): a reused-prefix route from a region's data
  center reaches the region's other WAN routers.

Both are verified for every region, then the §6.1 "undocumented community"
bug is injected to show the workflow that found a real misconfiguration.

Run: ``python examples/wan_ip_reuse.py``
"""

from repro.core.exec import ExecutionContext
from repro.core.liveness import verify_liveness
from repro.core.safety import verify_safety
from repro.workloads.wan import build_wan
from repro.workloads.wan_properties import (
    ip_reuse_liveness_problem,
    ip_reuse_safety_problem,
)


def main() -> None:
    wan = build_wan(regions=4, routers_per_region=3)
    print(f"WAN with {wan.regions} regions; reused pool 172.16.0.0/12\n")
    # One context for every problem on this network: they share its session
    # pool (each router's filters are encoded once) and its limits.
    context = ExecutionContext()

    print("--- Table 4b: reuse isolation (safety), every region ---")
    for region in range(wan.regions):
        problem = ip_reuse_safety_problem(wan, region)
        report = verify_safety(
            wan.config,
            problem.properties,
            problem.invariants,
            ghosts=(problem.ghost,),
            context=context,
        )
        status = "PASS" if report.passed else "FAIL"
        print(
            f"  region {region}: {status} — {report.num_checks} checks, "
            f"{report.wall_time_s:.2f}s"
        )
        assert report.passed

    print("\n--- Table 4c: reuse reachability (liveness), every region ---")
    for region in range(wan.regions):
        problem = ip_reuse_liveness_problem(wan, region)
        report = verify_liveness(
            wan.config,
            problem.property,
            interference_invariants=problem.interference_invariants,
            ghosts=(problem.ghost,),
            context=context,
        )
        status = "PASS" if report.passed else "FAIL"
        print(
            f"  region {region}: {status} — {report.num_checks} checks "
            f"(path {', '.join(str(l) for l in problem.property.path)})"
        )
        assert report.passed

    print("\n--- injected bug: region 2 tags with an undocumented community ---")
    buggy = build_wan(regions=4, routers_per_region=3, wrong_community_region=2)
    problem = ip_reuse_safety_problem(buggy, region=2)
    report = verify_safety(
        buggy.config, problem.properties, problem.invariants, ghosts=(problem.ghost,)
    )
    assert not report.passed
    print(f"  caught: {len(report.failures)} failed local check(s)")
    print("  " + report.failures[0].explain().replace("\n", "\n  "))


if __name__ == "__main__":
    main()
