"""Fixed reference work that gauges how fast the host runs right now.

``run.py`` starts this program once per run and keeps it waiting on
stdin. Each line it reads makes it run one slice of work and print the
slice's seconds. It exits at the end of its input.

A slice does what the two runexp engines do, on inputs that never
change and with no runexp code: a pure-Python loop over a small dict
and over a large one (the Python engine and the handle checks), and
numpy sorts, gathers and prefix sums on a small and a large array (the
arrays engine). So its time changes only with the host: with the other
tenants that share its cores, caches and memory. It runs in its own
process so that its memory counts neither in the workload's peak RSS
nor in the workload's garbage collections.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter

import numpy as np


def main() -> int:
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 4, 200_000).astype(np.int32)
    big = rng.integers(0, 1 << 30, 4_000_000)
    picks = rng.integers(0, big.size, 1_000_000)
    heap = {i: (i, str(i)) for i in range(200_000)}
    keys = [int(k) for k in rng.integers(0, len(heap), 150_000)]

    def work() -> None:
        counts: dict[int, int] = {}
        acc = 0
        for i in range(150_000):
            k = i & 1023
            counts[k] = counts.get(k, 0) + i
            acc = (acc * 31 + i) % 1_000_003
        total = 0
        for k in keys:
            total += heap[k][0]
        order = np.lexsort((np.cumsum(codes) % 7, codes))
        np.cumsum(codes[order], dtype=np.int64)
        np.argsort(codes, kind="stable")
        big[picks].sum()
        np.sort(big[:500_000])

    for _ in sys.stdin:
        gc.collect()
        t0 = perf_counter()
        work()
        print(perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
