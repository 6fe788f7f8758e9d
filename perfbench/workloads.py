"""The benchmark's workloads: seeded lists of formulas and the reduction settings.

Each workload runs a fixed number of instances per run: the run length in
seconds times `per_second`, a rate measured once when the workload was
defined (2-core 2.1 GHz Xeon, Python 3.11) and then frozen. The same seed
therefore always gives the same inputs, and a faster program finishes them
sooner instead of being handed different ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cspack import bench
from cspack.cnf import CnfFormula


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    r: int
    planted: bool
    per_second: float
    why: str

    def instance_count(self, seconds: float) -> int:
        return max(1, round(seconds * self.per_second))

    def formulas(self, seed: int, count: int) -> list[CnfFormula]:
        """The first `count` formulas of the workload's list for this seed."""
        rng = random.Random(seed)
        return [bench.make_formula(self.n, self.m, rng.randrange(2**62), self.planted) for _ in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-planted",
            n=12, m=24, r=4, planted=True,
            per_second=6.0,
            why="planted n=12 m=24 r=4, no padding: 1k-3k short sets, so set assembly, validation and serialize/parse outweigh enumeration, solve and oracle",
        ),
        Workload(
            name="dense-random",
            n=16, m=69, r=2, planted=False,
            per_second=3.9,
            why="random n=16 m=69 r=2, no padding: 2^16-code group scans, long solver searches, and full oracle scans of unsat formulas",
        ),
    )
}
