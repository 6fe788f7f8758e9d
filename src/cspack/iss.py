"""Intersecting set systems over minimal universes.

An ISS is a family in which every two member sets intersect. Taking all
subsets of size floor(u/2)+1 of a u-element universe gives such a family by
pigeonhole (two sets of that size cannot fit disjointly into u elements), and
binomial(u, floor(u/2)+1) grows exponentially, so the universe stays
logarithmic in the number of sets required. Each member set is an int
mask over the universe, as set packing instances store their sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice


def iss_subset_size(universe_width: int) -> int:
    return universe_width // 2 + 1

def iss_capacity(universe_width: int) -> int:
    """How many pairwise-intersecting sets a universe of this width supports."""
    return math.comb(universe_width, iss_subset_size(universe_width))


def minimal_iss_universe(count: int) -> int:
    """Smallest u with binomial(u, floor(u/2)+1) >= max(count, 1)."""
    need = max(count, 1)
    u = 1
    while iss_capacity(u) < need:
        u += 1
    return u


@dataclass(frozen=True)
class IssFamily:
    """The first `count` subsets of size floor(u/2)+1 of [0, u), in lexicographic order.

    Each subset is an int mask: bit e is set iff element e is a member.
    """

    universe_width: int
    masks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.masks)

    @property
    def subset_size(self) -> int:
        return iss_subset_size(self.universe_width)


def build_iss(count: int) -> IssFamily:
    """Build an intersecting family of `count` sets over the minimal universe.

    The k-th set (0-based) is the k-th lexicographic (floor(u/2)+1)-subset of
    [0, u), which makes the assignment-to-tag injection deterministic and
    invertible. count=0 still yields a width-1 universe with no sets.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    u = minimal_iss_universe(count)
    # Combinations of the element bits come out in the order of the subsets'
    # ID tuples, and distinct bits sum to their OR.
    bits = [1 << e for e in range(u)]
    masks = tuple(map(sum, islice(combinations(bits, iss_subset_size(u)), count)))
    return IssFamily(universe_width=u, masks=masks)
