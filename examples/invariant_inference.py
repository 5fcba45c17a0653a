#!/usr/bin/env python3
"""Learning local invariants automatically (the paper's §8 direction).

The paper's main trade-off is that users must supply local invariants.
Its conclusion suggests learning them from configurations "when properties
are enforced via communities".  This example does exactly that: given only
the end-to-end no-transit property (and the ghost definition), the search
enumerates candidate community-tracking invariants, refutes the wrong ones
with concrete counterexamples, and lands on the one that verifies.

Run: ``python examples/invariant_inference.py``
"""

from repro.bgp.topology import Edge
from repro.core import SafetyProperty, infer_safety_invariants
from repro.core.exec import ExecutionContext
from repro.core.safety import verify_safety
from repro.lang import GhostAttribute
from repro.lang.predicates import GhostIs, Not
from repro.workloads.figure1 import build_figure1


def main() -> None:
    config = build_figure1()
    from_isp1 = GhostAttribute.source_tracker(
        "FromISP1", config.topology, [Edge("ISP1", "R1")]
    )
    prop = SafetyProperty(
        location=Edge("R2", "ISP2"),
        predicate=Not(GhostIs("FromISP1")),
        name="no-transit",
    )

    print("searching for a key invariant that proves:", prop, "\n")
    # Every candidate, and the re-verification below, run on one context:
    # the routers' filters are encoded once for the whole search.
    context = ExecutionContext()
    result = infer_safety_invariants(config, prop, from_isp1, context=context)
    for attempt in result.attempts:
        mark = "verified" if attempt.passed else "refuted"
        print(f"  candidate {attempt.invariant!r}: {mark}")
        for failure in attempt.failures[:1]:
            first = failure.explain().splitlines()[0]
            print(f"    e.g. {first}")
    print()
    print(result.summary())
    assert result.found

    # The inferred invariants are a normal InvariantMap; re-verify with it.
    report = verify_safety(
        config, prop, result.invariants(config), ghosts=(from_isp1,), context=context
    )
    print(report.summary())
    assert report.passed

    # On a buggy network no candidate works, and each rejection carries the
    # counterexample a user would need to fix the configuration.
    print("\nnow with the planted R1 tagging bug:")
    buggy = build_figure1(buggy_r1_tagging=True)
    result = infer_safety_invariants(buggy, prop, from_isp1)
    print(result.summary())
    assert not result.found


if __name__ == "__main__":
    main()
