"""Machine-speed probe: a fixed pure-Python kernel timed next to every op.

On a 2-vCPU Xeon VM on a shared host the same code runs up to 2x slower for
stretches of 5-60 s while another tenant loads the sibling hardware thread;
each vCPU has its own stretches.  In wall time, the IQR / median of a
metric over five 30 s runs was 0.07-0.24, which hides any smaller change.

The kernel mixes what seplab's hot loops do -- exponent-tuple dicts, integer
row operations, big-int XOR and popcount -- on data small enough to stay in
the private caches, so what an op leaves in memory cannot change its time.
It does not call seplab, so a change to seplab cannot move it.  Each op's
wall time is scaled by ``REFERENCE_S`` over the median of the five probes
around it: the op's time at the kernel's reference speed.  Scaled, the IQR /
median of ops_per_s, p50 and p90 over ten seeds per workload was 0.02-0.06.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The kernel's time on an idle vCPU of that VM (Python 3.11.7).
REFERENCE_S = 0.0016
WINDOW = 2  # probes on each side of an op


def kernel() -> int:
    terms = {
        (a, b, c, d): a + b + c + d + 1
        for a in range(4) for b in range(4) for c in range(3) for d in range(3)
    }
    acc = 0
    for op in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 1, 0)):
        out: dict = {}
        for e, coeff in terms.items():
            if all(x >= y for x, y in zip(e, op)):
                e2 = tuple(x - y for x, y in zip(e, op))
                out[e2] = out.get(e2, 0) + coeff * (e[0] + 1)
        acc += len(out)
    m = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]
    prev = 1
    for c in range(11):
        pivot = m[c][c] or 1
        for i in range(c + 1, 12):
            mic = m[i][c]
            m[i] = [(pivot * x - mic * y) // prev for x, y in zip(m[i], m[c])]
        prev = pivot
    word = 0
    for k in range(1, 1500):
        word ^= (k * 0x9E3779B97F4A7C15) << (k % 64)
        acc += word.bit_count() & 1
    return acc


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    """``times[i]`` scaled by REFERENCE_S / median of the probes around it.

    ``probes[i]`` is the probe taken just before the op that took
    ``times[i]``.
    """
    if len(times) != len(probes):
        raise ValueError("one probe per op")
    return [
        t * REFERENCE_S / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
        for i, t in enumerate(times)
    ]
