from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspack import cnf, reduction
from cspack.packing import MAX_UNIVERSE, solve_exact, verify_packing

PHI_CONTRADICTION = cnf.CnfFormula(num_vars=1, clauses=((1,), (-1,)))
PHI_TWO_WIDE = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))


# -- clause partition --------------------------------------------------------

def test_partition_examples():
    assert reduction.partition_clauses(2, 2).groups == ((0,), (1,))
    assert reduction.partition_clauses(5, 2).groups == ((0, 2, 4), (1, 3))
    assert reduction.partition_clauses(2, 3).groups == ((0,), (1,), ())


def test_partition_properties_exhaustive():
    for m in range(0, 201):
        for r in range(1, 21):
            part = reduction.partition_clauses(m, r)
            seen = [k for group in part.groups for k in group]
            assert sorted(seen) == list(range(m))
            assert len(seen) == len(set(seen))
            for group in part.groups:
                assert abs(len(group) - m / r) <= 1


def test_partition_rejects_bad_args():
    with pytest.raises(ValueError):
        reduction.partition_clauses(5, 0)
    with pytest.raises(ValueError):
        reduction.partition_clauses(-1, 2)


# -- group assignment enumeration --------------------------------------------

def brute_force_group(formula, clause_ids):
    """Independent enumeration: filter all 0/1 maps over the group's variables."""
    domain = sorted({abs(l) for ci in clause_ids for l in formula.clauses[ci]})
    result = []
    for bits in product([False, True], repeat=len(domain)):
        alpha = dict(zip(domain, bits))
        if all(any(alpha[abs(l)] == (l > 0) for l in formula.clauses[ci]) for ci in clause_ids):
            result.append(alpha)
    return domain, result


def test_enumerate_single_wide_clause():
    f = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3),))
    part = reduction.partition_clauses(1, 1)
    ga = reduction.enumerate_group_assignments(f, part, 0)
    assert ga.domain == (1, 2, 3)
    assert ga.count == 7
    assert ga.codes == tuple(range(1, 8))


def test_enumerate_contradictory_group():
    part = reduction.partition_clauses(2, 1)
    ga = reduction.enumerate_group_assignments(PHI_CONTRADICTION, part, 0)
    assert ga.codes == ()


def test_enumerate_empty_group():
    part = reduction.partition_clauses(2, 3)
    ga = reduction.enumerate_group_assignments(PHI_CONTRADICTION, part, 2)
    assert ga.domain == ()
    assert ga.codes == (0,)
    assert ga.assignment(0) == {}


def test_enumerate_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 8)
        m = rng.randint(1, 12)
        f = cnf.gen_random_3cnf(n, m, seed=rng.randrange(1 << 30))
        r = rng.randint(1, 4)
        part = reduction.partition_clauses(m, r)
        for g in range(r):
            ga = reduction.enumerate_group_assignments(f, part, g)
            domain, expected = brute_force_group(f, part.groups[g])
            assert list(ga.domain) == domain
            got = [ga.assignment(i) for i in range(ga.count)]
            assert got == expected  # same set and same encoding order


def test_enumerate_keeps_tautologies_and_repeated_literals():
    # (x1 or not x1 or x2) is always true: all four codes of (x1, x2) stay.
    f = cnf.CnfFormula(num_vars=2, clauses=((1, -1, 2),))
    ga = reduction.enumerate_group_assignments(f, reduction.partition_clauses(1, 1), 0)
    assert ga.domain == (1, 2) and ga.codes == (0, 1, 2, 3)
    # (x1 or x1 or not x2) excludes only x1 = False, x2 = True.
    f = cnf.CnfFormula(num_vars=2, clauses=((1, 1, -2),))
    ga = reduction.enumerate_group_assignments(f, reduction.partition_clauses(1, 1), 0)
    assert ga.codes == (0, 2, 3)


literals = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))


@settings(max_examples=300, deadline=None)
@given(clauses=st.lists(st.lists(literals, min_size=1, max_size=3), max_size=12), r=st.integers(1, 5))
def test_enumerate_matches_brute_force_on_any_clauses(clauses, r):
    # 1-3 literal clauses with repeats, tautologies, empty groups (r > m) and
    # contradictory groups, against the filter over all 0/1 maps.
    f = cnf.CnfFormula(num_vars=6, clauses=tuple(map(tuple, clauses)))
    part = reduction.partition_clauses(len(clauses), r)
    for g in range(r):
        ga = reduction.enumerate_group_assignments(f, part, g)
        domain, expected = brute_force_group(f, part.groups[g])
        assert list(ga.domain) == domain
        assert [ga.assignment(i) for i in range(ga.count)] == expected
        if expected:
            with pytest.MonkeyPatch.context() as mp:
                # Search budget for every node of a 6-variable tree, so only the count limit acts.
                mp.setattr(reduction, "SEARCH_NODES_PER_SET", 1 << 6)
                assert reduction.enumerate_group_assignments(f, part, g, limit=len(expected)) == ga
                with pytest.raises(ValueError, match="satisfying assignments"):
                    reduction.enumerate_group_assignments(f, part, g, limit=len(expected) - 1)


# 14 disjoint 3-clauses over x1..x42: 7^14 prefixes of x1..x42 satisfy them.
DISJOINT = tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(14))


def test_enumerate_propagates_units_before_searching():
    # (x15) and (not x15) conflict at once, so no prefix of x1..x12 is explored
    # (tests/test_refusals.py runs the same case over x1..x42).
    f = cnf.CnfFormula(num_vars=15, clauses=DISJOINT[:4] + ((15,), (-15,)))
    ga = reduction.enumerate_group_assignments(f, reduction.partition_clauses(6, 1), 0, limit=1)
    assert ga.domain == tuple(range(1, 13)) + (15,) and ga.codes == ()
    # x3 is forced false, then x2 true by (x2 or x3): only x1 stays free.
    f = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3), (-3,), (2, 3)))
    ga = reduction.enumerate_group_assignments(f, reduction.partition_clauses(3, 1), 0)
    assert ga.codes == (0b010, 0b110)


def test_enumerate_bounds_search_work():
    # No unit clause, but x13 and x14 admit no value: every one of the 7^4
    # prefixes of x1..x12 survives until x14.
    core = ((13, 14), (13, -14), (-13, 14), (-13, -14))
    f = cnf.CnfFormula(num_vars=14, clauses=DISJOINT[:4] + core)
    part = reduction.partition_clauses(8, 1)
    assert reduction.enumerate_group_assignments(f, part, 0).codes == ()
    budget = 14 + reduction.SEARCH_NODES_PER_SET * 11
    with pytest.raises(ValueError, match=f"search visited more than {budget} partial"):
        reduction.enumerate_group_assignments(f, part, 0, limit=10)


def test_encode_decode_inverse():
    domain = (2, 5, 9)
    for code in range(8):
        alpha = reduction.decode_assignment(domain, code)
        assert reduction.encode_assignment(domain, alpha) == code


# -- grid gadget --------------------------------------------------------------

def layout_for(n, r):
    return reduction.ElementLayout(n=n, r=r, iss_widths=(0,) * r, dull_width=0)


def test_grid_edges_examples():
    layout = layout_for(1, 2)
    assert reduction.grid_edges(0, 0, True, layout) == {0, 2}
    assert reduction.grid_edges(0, 1, False, layout) == {2, 3}
    assert reduction.grid_edges(0, 0, True, layout) & reduction.grid_edges(0, 1, False, layout) == {2}


def test_grid_edges_row_column_intersection():
    layout = layout_for(3, 4)
    for x in range(3):
        for i in range(4):
            for j in range(4):
                row = reduction.grid_edges(x, i, False, layout)
                col = reduction.grid_edges(x, j, True, layout)
                assert len(row) == 4 and len(col) == 4
                assert row & col == {layout.grid_id(x, i, j)}
                if i != j:
                    other_row = reduction.grid_edges(x, j, False, layout)
                    assert not row & other_row


def test_grid_edges_bounds():
    layout = layout_for(2, 2)
    with pytest.raises(ValueError):
        reduction.grid_edges(2, 0, False, layout)
    with pytest.raises(ValueError):
        reduction.grid_edges(0, 2, False, layout)


# -- the reduction ------------------------------------------------------------

def test_reduce_contradiction_fixture():
    inst, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 2, dull_width=0)
    assert inst.universe_size == 6
    assert inst.sets == ((0, 2, 4), (2, 3, 5))
    assert inst.r == 2
    assert wit.core_count == 2 and wit.pad_count == 0


def test_reduce_two_clause_fixture():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    assert inst.universe_size == 22
    assert inst.set_count == 14
    assert wit.layout.iss_widths == (5, 5)


def test_reduce_grid_portion_matches_grid_edges():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    grid_size = wit.layout.grid_size
    for idx in range(wit.core_count):
        g, code = wit.entry(idx)
        alpha = reduction.decode_assignment(wit.domains[g], code)
        expected = set()
        for v, value in alpha.items():
            expected |= reduction.grid_edges(v - 1, g, value, wit.layout)
        assert {e for e in inst.sets[idx] if e < grid_size} == expected


def test_reduce_grid_masks_across_lookup_chunks():
    # Domains of 9 to 12 variables are split over two lookup tables.
    rng = random.Random(31)
    for _ in range(6):
        f = cnf.gen_random_3cnf(12, 8, seed=rng.randrange(1 << 30))
        inst, wit = reduction.reduce_to_packing(f, 1, dull_width=0)
        assert max(len(d) for d in wit.domains) > reduction.CODE_CHUNK_BITS
        grid_mask = (1 << wit.layout.grid_size) - 1
        for idx in range(wit.core_count):
            g, code = wit.entry(idx)
            expected = set()
            for v, value in reduction.decode_assignment(wit.domains[g], code).items():
                expected |= reduction.grid_edges(v - 1, g, value, wit.layout)
            assert inst.masks[idx] & grid_mask == sum(1 << e for e in expected)


def test_reduce_refuses_universe_above_bound():
    r = 8
    n = MAX_UNIVERSE // (r * r) + 1  # the grid alone exceeds the bound
    f = cnf.CnfFormula(num_vars=n, clauses=((1, 2, 3),))
    with pytest.raises(ValueError, match="MAX_UNIVERSE"):
        reduction.reduce_to_packing(f, r, dull_width=0)


def test_reduce_max_sets_boundary(monkeypatch):
    full, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    total = full.set_count  # 7 + 7 core sets and 4 padding sets
    monkeypatch.setattr(reduction, "MAX_SETS", total)
    inst, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    assert inst == full
    monkeypatch.setattr(reduction, "MAX_SETS", total - 1)
    with pytest.raises(ValueError, match=f"MAX_SETS = {total - 1}: group 1 has more than 6 satisfying"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    monkeypatch.setattr(reduction, "MAX_SETS", 3)
    with pytest.raises(ValueError, match="padding sets alone"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)


def test_reduce_refuses_search_beyond_allowance(monkeypatch):
    # Few sets, but a search over 7^6 dead prefixes: refused under a small cap.
    core = ((19, 20), (19, -20), (-19, 20), (-19, -20))
    f = cnf.CnfFormula(num_vars=20, clauses=DISJOINT[:6] + core)
    monkeypatch.setattr(reduction, "MAX_SETS", 100)
    with pytest.raises(ValueError, match="MAX_SETS = 100: group 0: search visited more than"):
        reduction.reduce_to_packing(f, 1)


def test_reduce_padding_grows_counts():
    base, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    padded, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    assert padded.set_count == base.set_count + 4
    assert padded.universe_size == base.universe_size + 2
    core_size = wit.layout.core_size
    for idx in range(wit.pad_first, wit.pad_first + wit.pad_count):
        assert set(padded.sets[idx]) >= set(range(core_size))


def test_reduce_default_padding_width():
    assert reduction.default_dull_width(8, 2) == 4
    assert reduction.default_dull_width(8, 1) == 0
    assert reduction.default_dull_width(1000, 2) == 16  # capped
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2)
    assert wit.dull_width == reduction.default_dull_width(3, 2)
    assert wit.pad_count == 1 << wit.dull_width


def test_reduce_rejects_bad_options():
    with pytest.raises(ValueError):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 0)
    with pytest.raises(ValueError):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 1, dull_width=1)
    with pytest.raises(ValueError):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=17)
    with pytest.raises(ValueError):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=-1)


def test_reduce_r_one_degenerate():
    f = cnf.CnfFormula(num_vars=2, clauses=((1, 2),))
    inst, wit = reduction.reduce_to_packing(f, 1, dull_width=0)
    assert inst.set_count == 3
    result = solve_exact(inst)
    assert result.verdict == "yes"


def test_reduce_r_larger_than_m():
    # empty groups contribute one tag-only set each
    inst, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 4, dull_width=0)
    assert wit.core_count == 2 + 2
    assert solve_exact(inst).verdict == "no"
    sat = cnf.CnfFormula(num_vars=1, clauses=((1,),))
    inst2, wit2 = reduction.reduce_to_packing(sat, 3, dull_width=0)
    result = solve_exact(inst2)
    assert result.verdict == "yes"
    lifted = reduction.lift_packing_to_assignment(wit2, list(result.packing))
    assert cnf.evaluate(sat, lifted)


# -- structural invariants over random formulas -------------------------------

def sample_instances(count, seed, r_choices=(2, 3), max_n=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, max_n)
        m = rng.randint(1, 2 * n)
        f = cnf.gen_random_3cnf(n, m, seed=rng.randrange(1 << 30))
        r = rng.choice(r_choices)
        inst, wit = reduction.reduce_to_packing(f, r, dull_width=0)
        out.append((f, inst, wit))
    return out


def test_size_identities():
    for f, inst, wit in sample_instances(40, seed=5):
        layout = wit.layout
        assert inst.universe_size == layout.n * layout.r**2 + layout.iss_total + layout.dull_width
        assert wit.core_count == sum(len(codes) for codes in wit.codes)
        assert inst.set_count == wit.core_count + wit.pad_count
        for idx in range(wit.core_count):
            g, _ = wit.entry(idx)
            grid_part = [e for e in inst.sets[idx] if e < layout.grid_size]
            assert len(grid_part) == layout.r * len(wit.domains[g])


def test_intra_group_sets_intersect():
    for f, inst, wit in sample_instances(15, seed=6, max_n=6):
        offsets = wit.group_offsets
        for g in range(wit.r):
            lo = offsets[g]
            hi = lo + len(wit.codes[g])
            for a, b in combinations(range(lo, hi), 2):
                assert set(inst.sets[a]) & set(inst.sets[b]), (g, a, b)


def test_cross_group_disjoint_iff_consistent():
    rng = random.Random(7)
    checked = 0
    for f, inst, wit in sample_instances(25, seed=8):
        offsets = wit.group_offsets
        nonempty = [g for g in range(wit.r) if wit.codes[g]]
        if len(nonempty) < 2:
            continue
        for _ in range(80):
            g1, g2 = rng.sample(nonempty, 2)
            i1 = offsets[g1] + rng.randrange(len(wit.codes[g1]))
            i2 = offsets[g2] + rng.randrange(len(wit.codes[g2]))
            a1 = reduction.decode_assignment(wit.domains[g1], wit.entry(i1)[1])
            a2 = reduction.decode_assignment(wit.domains[g2], wit.entry(i2)[1])
            consistent = all(a1[v] == a2[v] for v in set(a1) & set(a2))
            disjoint = not (set(inst.sets[i1]) & set(inst.sets[i2]))
            assert consistent == disjoint
            checked += 1
    assert checked >= 1000


def test_padding_neutrality():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(1, 2 * n)
        f = cnf.gen_random_3cnf(n, m, seed=rng.randrange(1 << 30))
        r = rng.choice((2, 3))
        plain, _ = reduction.reduce_to_packing(f, r, dull_width=0)
        padded, wit = reduction.reduce_to_packing(f, r, dull_width=2)
        assert solve_exact(plain).verdict == solve_exact(padded).verdict
        # a padding set intersects every other set, so no packing of
        # cardinality >= 2 can contain one
        pad_idx = wit.pad_first
        pad_set = set(padded.sets[pad_idx])
        for j in range(padded.set_count):
            if j != pad_idx:
                assert pad_set & set(padded.sets[j])
        if r == 2:
            check = verify_packing(padded, [pad_idx, 0])
            assert not check.ok and "intersect" in check.reason
            check = verify_packing(padded, [pad_idx, pad_idx + 1])
            assert not check.ok and "intersect" in check.reason


# -- witness lifting ----------------------------------------------------------

def test_lower_assignment_example():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    alpha = {1: True, 2: False, 3: False}
    indices = reduction.lower_assignment_to_packing(wit, alpha)
    assert indices == [3, 11]
    assert verify_packing(inst, indices).ok
    assert set(inst.sets[3]) >= {0, 2, 4, 5, 8, 9}


def test_lower_rejects_non_satisfying():
    _, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    with pytest.raises(ValueError, match="does not satisfy"):
        reduction.lower_assignment_to_packing(wit, {1: True, 2: True, 3: True})
    with pytest.raises(ValueError, match="missing"):
        reduction.lower_assignment_to_packing(wit, {1: True})


def test_lift_round_trip():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    alpha = {1: True, 2: False, 3: False}
    back = reduction.lift_packing_to_assignment(wit, reduction.lower_assignment_to_packing(wit, alpha))
    assert back == alpha


def test_lift_defaults_unused_variable_to_false():
    f = cnf.CnfFormula(num_vars=4, clauses=PHI_TWO_WIDE.clauses)
    inst, wit = reduction.reduce_to_packing(f, 2, dull_width=0)
    result = solve_exact(inst)
    lifted = reduction.lift_packing_to_assignment(wit, list(result.packing))
    assert lifted[4] is False
    assert cnf.evaluate(f, lifted)


def test_lift_rejects_corrupt_packings():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=1)
    with pytest.raises(ValueError, match="padding"):
        reduction.lift_packing_to_assignment(wit, [0, wit.pad_first])
    with pytest.raises(ValueError, match="group"):
        reduction.lift_packing_to_assignment(wit, [0, 1])  # both from group 0
    with pytest.raises(ValueError, match="inconsistent"):
        reduction.lift_packing_to_assignment(wit, [0, 13])  # 000 vs 110 disagree on x1
    with pytest.raises(ValueError, match="expected 2"):
        reduction.lift_packing_to_assignment(wit, [0])
    with pytest.raises(ValueError, match="out of range"):
        reduction.lift_packing_to_assignment(wit, [0, 99])


# -- witness file format --------------------------------------------------------

def test_witness_round_trip_objects():
    for f, inst, wit in sample_instances(10, seed=12):
        text = reduction.witness_to_text(wit)
        assert reduction.witness_from_text(text) == wit
        assert reduction.witness_to_text(reduction.witness_from_text(text)) == text


def test_witness_round_trip_with_padding_and_empty_groups():
    inst, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 2, dull_width=3)
    assert reduction.witness_from_text(reduction.witness_to_text(wit)) == wit
    # round-robin puts clauses 0 and 2, i.e. (x1) and (not x1), in group 0
    f = cnf.CnfFormula(num_vars=2, clauses=((1,), (2,), (-1,)))
    _, wit2 = reduction.reduce_to_packing(f, 2, dull_width=0)
    assert any(not codes for codes in wit2.codes)
    assert reduction.witness_from_text(reduction.witness_to_text(wit2)) == wit2


def test_witness_text_literal_examples():
    # At r = 4, (x1) goes to group 0 and (not x1) to group 1; groups 2 and 3
    # have no clauses and hold the single empty assignment.
    _, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 4, dull_width=2)
    assert reduction.witness_to_text(wit) == "w 1 4 2\ng 1 1\n1\ng 1 1\n0\ng 1\n-\ng 1\n-\n"
    # Group 0 holds (x1) and (not x1): it has no sets but keeps its domain.
    f = cnf.CnfFormula(num_vars=2, clauses=((1,), (2,), (-1,)))
    _, wit2 = reduction.reduce_to_packing(f, 2, dull_width=0)
    assert reduction.witness_to_text(wit2) == "w 2 2 0\ng 0 1\ng 1 2\n1\n"
    for w in (wit, wit2):
        assert reduction.witness_from_text(reduction.witness_to_text(w)) == w


def test_witness_format_errors():
    good = "w 3 2 0\ng 2 1 2\n00\n11\ng 1\n-\n"
    wit = reduction.witness_from_text(good)
    assert wit.domains == ((1, 2), ()) and wit.codes == ((0, 3), (0,))
    bad = [
        ("", "empty"),
        ("x 3 2 0\ng 2 1 2\n00\n11\ng 1\n-\n", "header"),
        ("w 3 2 0\ng 3 1 2\n00\n11\ng 1\n-\n", "not bits"),  # truncated block
        ("w 3 2 0\ng 2 1 2\n00\n11\ng 2\n-\n", "1 of its 2 bit lines"),  # truncated last block
        ("w 3 2 0\ng 1 1 2\n00\n11\ng 1\n-\n", "malformed group line"),  # extra bit line
        (good + "-\n", "1 lines after the last group block"),
        (good + "g 1\n-\n", "2 lines after the last group block"),
        ("w 3 2 0\ng 2 1 2\n00\n11\n", "missing the block of group 1"),
        ("w 3 2 0\ng 2 1 2\n00\n-\ng 1\n-\n", "not bits"),  # "-" for a nonempty domain
        ("w 3 2 0\ng 2 1 2\n00\n11\ng 1\n0\n", "not bits"),  # bits for an empty domain
        ("w 3 2 0\ng -1 1 2\ng 1\n-\n", "negative"),
        ("w 3 2 0\ng 99999999999999999999 1 2\n00\n11\ng 1\n-\n", "4 of its 99999999999999999999 bit lines"),
        ("w 3 1 0\ng 2 1 2\n11\n00\n", "strictly increasing"),  # codes out of order
        ("w 3 1 0\ng 2 1 2\n11\n11\n", "strictly increasing"),  # a repeated code
        ("w 3 1 0\ng 1 2 1\n11\n", "strictly increasing"),  # domain out of order
        # Old formats: set-numbered lines, tag widths in the header and a pad
        # line; in the second, group 1's lines come first.
        ("w 3 2 0 3 3\n0 0 1 2 01\n1 0 1 2 10\n2 0 1 2 11\n3 1 1 3 01\n4 1 1 3 10\n5 1 1 3 11\npad 6 0\n", "header"),
        ("w 3 2 0 3 3\n0 1 1 3 01\n1 1 1 3 10\n2 1 1 3 11\n3 0 1 2 01\n4 0 1 2 10\n5 0 1 2 11\npad 6 0\n", "header"),
        ("w 1 4 2 1 1 1 1\n0 0 1 1\n1 1 1 0\n2 2 -\n3 3 -\npad 4 4\n", "header"),
        ("w 2 2 0 1 1\ng 0 1\n0 1 2 1\npad 1 0\n", "header"),
    ]
    for text, match in bad:
        with pytest.raises(reduction.WitnessFormatError, match=match):
            reduction.witness_from_text(text)


def test_witness_parser_raises_only_its_error_type():
    bad = [
        "w 1 1 0 1\ng 0\n",  # a tag width in the header
        "w 1 1 x\ng 0\n",  # d is not an integer
        "w 1 1 0\ng 0 a\n",  # group domain is not integers
        "w 1 1 0\ng x 1\n",  # set count is not an integer
        "w 1 1 0\ng\n",
        "w 0 1 0\ng 0\n",  # n = 0 is not a layout
        "w 1 0 0\n",  # r = 0 is not a layout
        "w 1 -1 0\n",
        "w 1 1 -1\ng 0\n",  # negative d
        "w 2 1 0\ng 1 5\n1\n",  # domain variable beyond n
        "w 2 1 0\ng 1 0\n1\n",  # domain variable 0
        f"w {MAX_UNIVERSE} 1 0\ng 0\n",  # universe above the bound
        "w 1 1 99999999999\ng 0\n",  # 2^d padding sets, d huge
    ]
    for text in bad:
        with pytest.raises(reduction.WitnessFormatError):
            reduction.witness_from_text(text)


def test_witness_parser_accepts_noncanonical_domain_spelling():
    wit = reduction.witness_from_text("w 2 1 0\ng 02 01 2\n00\n01\n")
    assert wit.domains == ((1, 2),) and wit.codes == ((0, 1),)
    assert reduction.witness_to_text(wit) == "w 2 1 0\ng 2 1 2\n00\n01\n"


def test_group_offsets_cached_and_entry_matches_linear_scan():
    # Clause k goes to group k mod 5; groups 1, 2 and 4 are contradictory and have no sets.
    clauses = ((1, 2), (3,), (4,), (1, 5), (2,), (-1, 2), (-3,), (-4,), (5, 2), (-2,))
    _, wit = reduction.reduce_to_packing(cnf.CnfFormula(num_vars=5, clauses=clauses), 5, dull_width=0)
    assert [bool(codes) for codes in wit.codes] == [True, False, False, True, False]
    assert wit.group_offsets is wit.group_offsets
    for idx in range(wit.core_count):
        group = max(g for g in range(wit.r) if wit.group_offsets[g] <= idx)
        assert wit.entry(idx) == (group, wit.codes[group][idx - wit.group_offsets[group]])
        assert wit.set_index_of(*wit.entry(idx)) == idx


def test_witness_bits_match_domain():
    for bits in ("0", "000", "0a", "2", "0-"):
        with pytest.raises(reduction.WitnessFormatError, match="bits"):
            reduction.witness_from_text(f"w 2 1 0\ng 1 1 2\n{bits}\n")
