from __future__ import annotations

import math
from itertools import combinations

import pytest

from cspack import iss


def ids(mask):
    """The element IDs of a tag mask, ascending."""
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


def test_single_set():
    fam = iss.build_iss(1)
    assert fam.universe_width == 1
    assert fam.masks == (0b1,)


def test_two_sets():
    # binomial(2, 2) = 1 < 2 <= 3 = binomial(3, 2), so the universe must have 3 elements
    fam = iss.build_iss(2)
    assert fam.universe_width == 3
    assert fam.masks == (0b011, 0b101)


def test_seven_sets():
    # binomial(4, 3) = 4 < 7 <= 10 = binomial(5, 3)
    fam = iss.build_iss(7)
    assert fam.universe_width == 5
    # (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3)
    assert fam.masks == (0b00111, 0b01011, 0b10011, 0b01101, 0b10101, 0b11001, 0b01110)


def test_zero_sets():
    fam = iss.build_iss(0)
    assert fam.universe_width == 1
    assert fam.masks == ()


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        iss.build_iss(-1)


def test_universe_minimality_against_binomials():
    # u is minimal iff binomial(u, floor(u/2)+1) reaches the count but
    # binomial(u-1, floor((u-1)/2)+1) does not.
    for count in range(0, 10_001):
        u = iss.minimal_iss_universe(count)
        need = max(count, 1)
        assert math.comb(u, u // 2 + 1) >= need
        if u > 1:
            assert math.comb(u - 1, (u - 1) // 2 + 1) < need


def test_sets_are_lexicographic_prefix():
    for count in (3, 10, 40, 200):
        fam = iss.build_iss(count)
        u, k = fam.universe_width, fam.subset_size
        expected = list(combinations(range(u), k))[:count]
        assert [ids(m) for m in fam.masks] == expected


def test_all_pairs_intersect():
    for count in (2, 7, 25, 120):
        fam = iss.build_iss(count)
        assert all(m.bit_count() == fam.subset_size for m in fam.masks)
        assert all(m >> fam.universe_width == 0 for m in fam.masks)
        for a, b in combinations(fam.masks, 2):
            assert a & b, (bin(a), bin(b))
