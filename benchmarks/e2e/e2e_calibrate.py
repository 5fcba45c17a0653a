"""A fixed piece of pure-Python work: the benchmark's host-speed probe.

The development host is a shared 2-vCPU microVM whose speed moves by a
factor of up to 1.7 for tens of seconds at a time (neighbours contending
for the same cores and caches; no steal time is reported, CPU time inflates
with wall time).  Raw seconds therefore spread by about 30 % between runs
of the same tree.  The harness runs this script as a fresh child right
before and after every sample and every set-up and divides the measured
time by how much slower than ``REFERENCE_S`` the probe ran at that moment.

The work resembles what the verifier does all day — tuple hashing, dict
lookups, small-object allocation, list appends, ``str`` and ``hash`` calls
— and depends on nothing in ``repro``, so a change to the program under
test cannot move it.
"""

from __future__ import annotations

# What this script takes, spawn to exit, on the development host when
# nothing contends with it.  A constant: it only fixes the unit.
REFERENCE_S = 0.19
SIZE = 150_000


def spin(n: int) -> int:
    table: dict[tuple[int, int, str], list[object]] = {}
    out = []
    get = table.get
    for i in range(n):
        key = (i % 4099, i % 13, "k")
        node = get(key)
        if node is None:
            node = table[key] = [i, key, None]
        out.append((node, i))
    pairs = [(i, str(i)) for i in range(n)]
    index = {k: v for k, v in pairs}
    total = 0
    for k, v in pairs:
        total += len(index[k]) + hash((k, v)) % 3
    return total + len(out)


if __name__ == "__main__":
    spin(SIZE)
