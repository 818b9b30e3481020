"""The machine's speed, measured by reference work next to the timed work.

On a shared virtual machine the same code runs up to twice as slow from
one minute to the next, in phases that outlast a run, and process CPU time
slows as much as wall time.  No choice of passes, minima or medians inside
one run removes a phase that covers the whole run.  So after every timed
item and every set-up the benchmark runs a fixed piece of reference work
for a share of that item's time, and reports times scaled by how much
slower than on the reference machine the reference work ran over the run.
A change to arbor does not touch the reference work, so it moves a scaled
time as much as the wall time; a slow phase of the machine slows both the
workload and the reference work, and cancels.

Phases do not slow all code alike, so there are two kinds of reference
work, and a workload uses those that resemble where it spends its time:
``python``, dict, tuple, string and sort work on a small working set, and
``memory``, a matrix-vector product that streams a 32 MB matrix and so
feels the caches and memory bandwidth that other tenants share.  With
both, the slowdown is the geometric mean of the two.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Time of one call of each reference work on the reference machine: a
# 2-vCPU Xeon (Sapphire Rapids) virtual machine at 2.0 GHz with Python 3.11
# and OpenBLAS on one thread, in one of its quick phases.  Scaled times
# read as seconds on that machine.
REFERENCE_S = {"python": 2.0e-4, "memory": 2.0e-3}
# Reference work runs for this share of the time it follows, and at least once.
SHARE = 0.1


def python_work() -> int:
    """Dict, tuple, string and sort work, as arbor's pure-Python code does."""
    table = {}
    for i in range(300):
        table[("n", i % 53, i)] = str(i * 2654435761 % 4093)
    order = sorted(table, key=table.__getitem__)
    return len("".join(table[k] for k in order[:100]))


class Speed:
    """Times of reference work over one run."""

    def __init__(self, kinds: tuple[str, ...]):
        self.samples: dict[str, list[float]] = {kind: [] for kind in kinds}
        if "memory" in kinds:
            rng = np.random.default_rng(0)
            self._matrix = rng.standard_normal((4096, 2048), dtype=np.float32)
            self._vector = rng.standard_normal(2048, dtype=np.float32)

    def _work(self, kind: str):
        return python_work() if kind == "python" else self._matrix @ self._vector

    def sample(self, seconds: float) -> None:
        """Run each kind of reference work for about ``SHARE * seconds``
        split between the kinds, and at least once."""
        for kind, samples in self.samples.items():
            spent = 0.0
            while not spent or spent < SHARE * seconds / len(self.samples):
                start = perf_counter()
                self._work(kind)
                samples.append(perf_counter() - start)
                spent += samples[-1]

    def slowdown(self) -> float:
        """How many times slower than the reference machine the run went."""
        return statistics.geometric_mean(
            statistics.median(samples) / REFERENCE_S[kind]
            for kind, samples in self.samples.items())
