"""The benchmark's yardstick for machine speed.

A shared vCPU can run the same code at half speed for seconds at a time. The
benchmark times `reference_kernel`, a fixed piece of pure-Python work that
shares no code with gapred, next to what it measures, and reports each time
scaled by REFERENCE_MS over the kernel's time. A change to gapred moves the
measured time and not the kernel's; a slow spell of the machine moves both.
"""

import time

# About what reference_kernel takes on a 2.1 GHz Xeon vCPU at full speed (Python 3.11),
# so times scaled by it read as milliseconds on that machine.
REFERENCE_MS = 5.0


def reference_kernel() -> int:
    """Integer and bit arithmetic, dict traffic and a sort, then a set of 10,000
    tuples built and probed: the interpreter's usual diet, and a working set of a
    few MB, which slows down with the memory traffic of other tenants as the
    large stage instances do."""
    acc, counts = 0, {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        acc += bin(x).count("1")
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
    pairs = {(i % 211, (i * 7919) % 20011) for i in range(10000)}
    for i in range(0, 20000, 2):
        if (i % 211, (i * 7919) % 20011) in pairs:
            acc += 1
    return acc + len(sorted(counts.values()))


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0
