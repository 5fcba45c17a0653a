#!/usr/bin/env python3
"""Quickstart: verify the paper's Figure 1 network (§2, Tables 2 and 3).

The network has three routers in one AS.  R1 peers with ISP1, R2 with ISP2,
R3 with a customer.  We verify:

* **Safety (no-transit)**: routes from ISP1 are never sent to ISP2, for all
  possible ISP announcements and arbitrary link/node failures.
* **Liveness**: a customer route is eventually advertised to ISP2, along
  the witness path Customer -> R3 -> R2 -> ISP2.

Run: ``python examples/quickstart.py``
"""

from repro.bgp.prefix import PrefixRange
from repro.bgp.topology import Edge
from repro.core import LivenessProperty, SafetyProperty, Workspace
from repro.lang import GhostAttribute
from repro.lang.predicates import GhostIs, HasCommunity, Implies, Not, PrefixIn
from repro.workloads.figure1 import CUSTOMER_PREFIX, TRANSIT_COMMUNITY, build_figure1


def main() -> None:
    config = build_figure1()

    # Ghost attribute (§4.4): FromISP1 marks routes that entered at ISP1.
    from_isp1 = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    # One workspace owns the solver sessions for every property we verify;
    # its ``verify`` accepts safety and liveness properties alike.
    workspace = Workspace(config, ghosts=(from_isp1,))

    # ----- Safety: the Table 2 problem -----------------------------------
    no_transit = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(GhostIs("FromISP1")),
        name="no-transit",
    )
    invariants = workspace.invariants(
        # Key invariant everywhere: ISP1 routes carry community 100:1.
        default=Implies(GhostIs("FromISP1"), HasCommunity(TRANSIT_COMMUNITY))
    )
    # At the property edge the invariant is the property itself.
    invariants.set_edge("R2", "ISP2", Not(GhostIs("FromISP1")))

    report = workspace.verify(no_transit, invariants)
    print(report.summary())
    assert report.passed

    # ----- Liveness: the Table 3 problem ----------------------------------
    has_cust = PrefixIn((PrefixRange(CUSTOMER_PREFIX, 8, 24),))
    good = has_cust & Not(HasCommunity(TRANSIT_COMMUNITY))
    liveness = LivenessProperty(
        location=Edge("R2", "ISP2"),
        predicate=has_cust,
        path=(
            Edge("Customer", "R3"),
            "R3",
            Edge("R3", "R2"),
            "R2",
            Edge("R2", "ISP2"),
        ),
        constraints=(has_cust, good, good, good, has_cust),
        name="customer-reaches-isp2",
    )
    # Same entry point as safety: the workspace dispatches on the property
    # type and reuses the session encodings the safety run already built.
    report2 = workspace.verify(liveness)
    print(report2.summary())
    assert report2.passed

    reports = [entry.report for entry in workspace.entries]
    print(
        f"\nWorkspace totals: {sum(r.num_checks for r in reports)} local checks, "
        f"largest check {max(r.max_vars for r in reports)} vars / "
        f"{max(r.max_clauses for r in reports)} constraints, "
        f"{sum(r.wall_time_s for r in reports):.2f}s."
    )
    print("Both end-to-end properties verified modularly. ✔")


if __name__ == "__main__":
    main()
