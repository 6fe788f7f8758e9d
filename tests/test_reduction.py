from __future__ import annotations

import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspack import bench, cnf, packing, reduction
from cspack.packing import MAX_UNIVERSE, solve_exact, verify_packing
from cspack.reduction import MAX_DULL_WIDTH, MAX_SETS

PHI_CONTRADICTION = cnf.CnfFormula(num_vars=1, clauses=((1,), (-1,)))
PHI_TWO_WIDE = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))
# At r = 2 the turn-taking family has 47 sets and the estimate split's 41
# (test_estimate_split_gives_the_turn_to_the_smallest_estimate).
PHI_ESTIMATE_SMALLER = cnf.CnfFormula(num_vars=9, clauses=((1, 2, 3), (4, 5, 6), (1, 2, -3), (-1, 2, 3), (7, 8, 9), (4, 5, -6)))


# -- group assignment enumeration --------------------------------------------

def brute_force_group(clauses):
    """Independent enumeration: filter all 0/1 maps over the group's variables."""
    domain = sorted({abs(l) for clause in clauses for l in clause})
    result = []
    for bits in product([False, True], repeat=len(domain)):
        alpha = dict(zip(domain, bits))
        if all(any(alpha[abs(l)] == (l > 0) for l in clause) for clause in clauses):
            result.append(alpha)
    return domain, result


def assignments(ga):
    return [reduction.decode_assignment(ga.domain, code) for code in ga.codes]


def enumerate_all(clauses):
    return reduction.enumerate_group_assignments(clauses, limit=reduction.MAX_SETS)


def test_enumerate_single_wide_clause():
    f = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3),))
    ga = enumerate_all(f.clauses)
    assert ga.domain == (1, 2, 3)
    assert ga.count == 7
    assert ga.codes == tuple(range(1, 8))


def test_enumerate_contradictory_group():
    ga = enumerate_all(PHI_CONTRADICTION.clauses)
    assert ga.codes == ()


def test_enumerate_empty_group():
    ga = enumerate_all(PHI_CONTRADICTION.clauses[2::3])
    assert ga.domain == ()
    assert ga.codes == (0,)
    assert reduction.decode_assignment(ga.domain, ga.codes[0]) == {}


def test_enumerate_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 8)
        m = rng.randint(1, 12)
        f = bench.make_formula(n, m, rng.randrange(1 << 30), False)
        r = rng.randint(1, 4)
        for g in range(r):
            ga = enumerate_all(f.clauses[g::r])
            domain, expected = brute_force_group(f.clauses[g::r])
            assert list(ga.domain) == domain
            assert assignments(ga) == expected  # same set and same encoding order


def test_enumerate_keeps_tautologies_and_repeated_literals():
    # (x1 or not x1 or x2) is always true: all four codes of (x1, x2) stay.
    f = cnf.CnfFormula(num_vars=2, clauses=((1, -1, 2),))
    ga = enumerate_all(f.clauses)
    assert ga.domain == (1, 2) and ga.codes == (0, 1, 2, 3)
    # (x1 or x1 or not x2) excludes only x1 = False, x2 = True.
    f = cnf.CnfFormula(num_vars=2, clauses=((1, 1, -2),))
    ga = enumerate_all(f.clauses)
    assert ga.codes == (0, 2, 3)


literals = st.integers(1, 6).flatmap(lambda v: st.sampled_from((v, -v)))


@settings(max_examples=300, deadline=None)
@given(
    clauses=st.lists(st.lists(literals, min_size=1, max_size=3), max_size=12),
    r=st.integers(1, 5),
    table_bits=st.sampled_from((0, 1, 3, 16)),
)
def test_enumerate_matches_brute_force_on_any_clauses(clauses, r, table_bits):
    # 1-3 literal clauses with repeats, tautologies, empty groups (r > m) and
    # contradictory groups, against the filter over all 0/1 maps, with the
    # split between searched and tabled variables anywhere.
    f = cnf.CnfFormula(num_vars=6, clauses=tuple(map(tuple, clauses)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "TABLE_BITS", table_bits)
        for g in range(r):
            group = f.clauses[g::r]
            ga = enumerate_all(group)
            domain, expected = brute_force_group(group)
            assert list(ga.domain) == domain
            assert assignments(ga) == expected
            if expected:
                # A budget for every visit a 6-variable group can make, so only the count limit acts.
                mp.setattr(reduction, "SEARCH_NODES_PER_SET", 1 << 10)
                assert reduction.enumerate_group_assignments(group, limit=len(expected)) == ga
                with pytest.raises(ValueError, match="satisfying assignments"):
                    reduction.enumerate_group_assignments(group, limit=len(expected) - 1)


def reference_propagate(clauses):
    """Unit propagation by whole passes over the clauses until one forces nothing new; None on a conflict.

    A copy of its own, independent of the root probing in
    reduction.enumerate_group_assignments, so that a fault there cannot pass
    the differential against itself.
    """
    forced = {}
    progress = True
    while progress:
        progress = False
        for lits in clauses:
            if any(forced.get(abs(lit)) == (lit > 0) for lit in lits):
                continue
            open_lits = [lit for lit in lits if abs(lit) not in forced]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                forced[abs(open_lits[0])] = open_lits[0] > 0
                progress = True
    return forced


def reference_enumerate(group_clauses):
    """The plain depth-first enumerator over all domain variables, kept as a reference.

    It walks the domain variables in order, False before True, and checks
    each clause when its last variable is about to be assigned.
    """
    domain = tuple(sorted({abs(lit) for clause in group_clauses for lit in clause}))
    clauses = [set(clause) for clause in group_clauses]
    clauses = [lits for lits in clauses if not any(-lit in lits for lit in lits)]
    forced = reference_propagate(clauses)
    if forced is None:
        return domain, ()
    k = len(domain)
    position = {v: j for j, v in enumerate(domain)}
    checks = [([], []) for _ in range(k)]
    for v, value in forced.items():
        checks[position[v]][not value].append((0, 0))
    for lits in clauses:
        if any(forced.get(abs(lit)) == (lit > 0) for lit in lits):
            continue
        lits = [lit for lit in lits if abs(lit) not in forced]
        last = max(position[abs(lit)] for lit in lits)
        mask = neg = 0
        for lit in lits:
            j = position[abs(lit)]
            if j == last:
                banned_value = lit < 0
            else:
                bit = 1 << (last - 1 - j)
                mask |= bit
                if lit < 0:
                    neg |= bit
        checks[last][banned_value].append((mask, neg))
    codes = [] if k else [0]
    stack = [(0, 0)] if k else []
    while stack:
        depth, prefix = stack.pop()
        if_false, if_true = checks[depth]
        can_false = not any(prefix & mask == neg for mask, neg in if_false)
        can_true = not any(prefix & mask == neg for mask, neg in if_true)
        child = prefix << 1
        if depth + 1 == k:
            codes.extend([child] * can_false + [child | 1] * can_true)
        else:
            if can_true:
                stack.append((depth + 1, child | 1))
            if can_false:
                stack.append((depth + 1, child))
    return domain, tuple(codes)


def differential_groups():
    """At least 500 groups: random ones with units, tautologies and repeated
    literals, empty and contradictory ones, and the groups of a Baseline row."""
    rng = random.Random(23)
    groups = [(), ((1,), (-1,)), ((1, -1),), ((2, 2, 2),), ((3,), (-3, 1), (-1, 2))]
    while len(groups) < 500:
        n = rng.randint(1, 20)
        clauses = []
        for _ in range(rng.randint(0, 3 * n)):
            clause = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.1:
                clause.append(-clause[0])  # a tautology
            if rng.random() < 0.1:
                clause.append(clause[0])  # a repeated literal
            clauses.append(tuple(clause))
        groups.append(tuple(clauses))
    f = cnf.CnfFormula(num_vars=20, clauses=bench.make_formula(20, 40, 7, True).clauses)
    groups.extend(f.clauses[g::5] for g in range(5))
    return groups


@pytest.mark.parametrize("table_bits", [0, 1, 3, 16])
def test_enumerate_matches_reference_search(monkeypatch, table_bits):
    monkeypatch.setattr(reduction, "TABLE_BITS", table_bits)
    for group in differential_groups():
        ga = enumerate_all(group)
        assert (ga.domain, ga.codes) == reference_enumerate(group), group


# 14 disjoint 3-clauses over x1..x42: 7^14 prefixes of x1..x42 satisfy them.
DISJOINT = tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(14))


def test_enumerate_propagates_units_before_searching():
    # (x15) and (not x15) conflict at once, so no prefix of x1..x12 is explored
    # (tests/test_refusals.py runs the same case over x1..x42).
    f = cnf.CnfFormula(num_vars=15, clauses=DISJOINT[:4] + ((15,), (-15,)))
    ga = reduction.enumerate_group_assignments(f.clauses, limit=1)
    assert ga.domain == tuple(range(1, 13)) + (15,) and ga.codes == ()
    # x3 is forced false, then x2 true by (x2 or x3): only x1 stays free.
    f = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3), (-3,), (2, 3)))
    ga = enumerate_all(f.clauses)
    assert ga.codes == (0b010, 0b110)


def test_enumerate_bounds_search_work():
    # The low clauses make x25 false, and then no values of x9 and x10, the
    # last two searched variables, satisfy the core. Each of its clauses
    # holds two searched literals, which probing a single literal at the root
    # cannot see, so each of the 7^3 prefixes of x1..x9 is searched before its
    # children are cut.
    core = tuple((a, b, 25) for a in (9, -9) for b in (10, -10)) + ((-25, 26), (-25, -26))
    f = cnf.CnfFormula(num_vars=26, clauses=DISJOINT[:8] + core)
    assert enumerate_all(f.clauses).codes == ()
    budget = 26 + (1 << 16) // reduction.TABLE_BITS_PER_VISIT + reduction.SEARCH_NODES_PER_SET * 11
    with pytest.raises(ValueError, match=f"search visited more than {budget} partial"):
        reduction.enumerate_group_assignments(f.clauses, limit=10)


def test_enumerate_counts_a_leaf_table_read_out_against_the_budget():
    # x2..x17 are the low variables, forced true; x1 is searched and free, so
    # the search pops 3 prefixes and reads out 2 one-code leaf tables of 2^16
    # bits at 512 visits each: 1027 visits, just past limit 123's budget of
    # 1025, found only once the second leaf is read out.
    group = ((1, 2),) + tuple((v,) for v in range(2, 18))
    budget = 17 + (1 << 16) // reduction.TABLE_BITS_PER_VISIT + reduction.SEARCH_NODES_PER_SET * 124
    with pytest.raises(ValueError, match=f"search visited more than {budget} partial assignments"):
        reduction.enumerate_group_assignments(group, limit=123)
    assert reduction.enumerate_group_assignments(group, limit=124).codes == (0xFFFF, 0x1FFFF)


@pytest.mark.parametrize(
    "core",
    [
        ((25, 26), (25, -26), (-25, 26), (-25, -26)),  # among the low variables: an empty root table
        ((1, 25), (1, -25), (-1, 26), (-1, -26)),  # both children of the first searched variable die
    ],
)
def test_enumerate_cuts_a_dead_core_where_it_is_falsified(core):
    # Neither core leaves an assignment, and searching the 7^3 * 2 prefixes of
    # x1..x10 down to their leaves to find that would pass limit 10's work bound.
    f = cnf.CnfFormula(num_vars=26, clauses=DISJOINT[:8] + core)
    assert reduction.enumerate_group_assignments(f.clauses, limit=10).codes == ()


def test_enumerate_decides_a_small_domain_by_one_table():
    # A dead core on x13 and x14 after 12 variables: 14 variables fit in one table,
    # so there is no search to bound and the group yields no assignment.
    core = ((13, 14), (13, -14), (-13, 14), (-13, -14))
    f = cnf.CnfFormula(num_vars=14, clauses=DISJOINT[:4] + core)
    assert reduction.enumerate_group_assignments(f.clauses, limit=10).codes == ()


def test_truth_tables_spell_each_variable():
    for width in range(5):
        tables = reduction._truth_tables(width)
        for j, (if_false, if_true) in enumerate(tables):
            assert if_true == sum(1 << t for t in range(1 << width) if t >> (width - 1 - j) & 1)
            assert if_false == ((1 << (1 << width)) - 1) ^ if_true


def test_encode_decode_inverse():
    domain = (2, 5, 9)
    for code in range(8):
        alpha = reduction.decode_assignment(domain, code)
        assert reduction.encode_assignment(domain, alpha) == code


# -- grid gadget --------------------------------------------------------------

def layout_for(n, r):
    """A layout in which every group's domain holds all n variables."""
    return reduction.WitnessMap(num_vars=n, dull_width=0, domains=(tuple(range(1, n + 1)),) * r, codes=((),) * r)


def test_grid_edges_examples():
    # x1's block at r = 3 holds the pairs (0, 1) (0, 2) (1, 0) (1, 2) (2, 0) (2, 1).
    layout = layout_for(1, 3)
    assert layout.grid_size == 6
    assert layout.grid_mask(1, 0, True) == 0b010100
    assert layout.grid_mask(1, 1, False) == 0b001100
    assert layout.grid_mask(1, 0, True) & layout.grid_mask(1, 1, False) == 1 << 2
    # Only groups 0 and 2 hold x1: its block is the pairs (0, 2) and (2, 0).
    layout = reduction.WitnessMap(num_vars=1, dull_width=0, domains=((1,), (), (1,)), codes=((),) * 3)
    assert layout.grid_size == 2
    assert layout.grid_blocks == {1: (0, (0, 2))}  # keyed by the variable itself
    assert layout.grid_mask(0, 0, False) == 0  # no variable 0, so no block
    assert [layout.grid_mask(1, g, value) for g in range(3) for value in (False, True)] == [0b01, 0b10, 0, 0, 0b10, 0b01]


def test_grid_edges_row_column_intersection():
    r = 4
    layout = layout_for(3, r)
    assert layout.grid_size == 3 * r * (r - 1)
    for v in range(1, 4):
        rows = [layout.grid_mask(v, i, False) for i in range(r)]
        cols = [layout.grid_mask(v, j, True) for j in range(r)]
        block = ((1 << r * (r - 1)) - 1) << (v - 1) * r * (r - 1)
        for masks in (rows, cols):
            assert not any(a & b for a, b in combinations(masks, 2))
            assert sum(masks) == block  # disjoint, so the sum is their union
        for i in range(r):
            for j in range(r):
                assert rows[i].bit_count() == cols[j].bit_count() == r - 1
                # Pair (i, j) is entry j of row i, one less past the diagonal.
                shared = 1 << (v - 1) * r * (r - 1) + i * (r - 1) + j - (j > i) if i != j else 0
                assert rows[i] & cols[j] == shared


def uniform_grid_mask(r, x, g, value):
    """The paper's uniform grid, kept here as a reference: r*r IDs per variable, id(x, i, j) = x*r^2 + i*r + j."""
    if value:
        return sum(1 << x * r * r + i * r + g for i in range(r))
    return sum(1 << x * r * r + g * r + j for j in range(r))


def uniform_instance(inst, wit):
    """The instance with its grid replaced by the uniform one: same sets, in the same order, and the same tags."""
    n, r = wit.num_vars, wit.r
    width = n * r * r
    masks = []
    for idx, mask in enumerate(inst.masks):
        if idx < wit.core_count:
            g, code = wit.entry(idx)
            grid = 0
            for v, value in reduction.decode_assignment(wit.domains[g], code).items():
                grid |= uniform_grid_mask(r, v - 1, g, value)
        else:
            grid = (1 << width) - 1  # a padding set holds the whole core universe
        masks.append(grid | mask >> wit.grid_size << width)
    return packing.SetPackingInstance(universe_size=width + inst.universe_size - wit.grid_size, masks=tuple(masks), r=r)


def test_grid_keeps_the_uniform_grids_intersection_graph():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(3, 10)
        f = bench.make_formula(n, rng.randint(1, 2 * n), rng.randrange(1 << 30), rng.random() < 0.5)
        r = rng.randint(1, 5)
        inst, wit = reduction.reduce_to_packing(f, r, dull_width=rng.randint(0, 2) if r > 1 else 0)
        reference = uniform_instance(inst, wit)
        for (a, b), (ref_a, ref_b) in zip(combinations(inst.masks, 2), combinations(reference.masks, 2)):
            assert (a & b == 0) == (ref_a & ref_b == 0)
        assert solve_exact(inst) == solve_exact(reference)
        # Every grid ID lies in the grid of exactly two groups.
        claims = [0] * r
        for g, domain in enumerate(wit.domains):
            for v in domain:
                claims[g] |= wit.grid_mask(v, g, False) | wit.grid_mask(v, g, True)
        for e in range(wit.grid_size):
            assert sum(claim >> e & 1 for claim in claims) == 2
        assert all(claim >> wit.grid_size == 0 for claim in claims)


# -- the reduction ------------------------------------------------------------

def test_reduce_contradiction_fixture():
    inst, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 2, dull_width=0)
    assert inst.universe_size == 4
    assert inst.sets == ((1, 2), (1, 3))
    assert inst.r == 2
    assert wit.core_count == 2 and wit.pad_count == 0


def test_reduce_two_clause_fixture():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    assert inst.universe_size == 16
    assert inst.set_count == 14
    assert wit.iss_widths == (5, 5)


def test_reduce_grid_portion_matches_grid_edges():
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    grid_size = wit.grid_size
    for idx in range(wit.core_count):
        g, code = wit.entry(idx)
        alpha = reduction.decode_assignment(wit.domains[g], code)
        expected = 0
        for v, value in alpha.items():
            expected |= wit.grid_mask(v, g, value)
        assert inst.masks[idx] & ((1 << grid_size) - 1) == expected


def test_reduce_grid_masks_across_lookup_chunks():
    # Domains of 9 to 12 variables are split over two lookup tables; r = 2,
    # since at r = 1 no variable is in two groups and the grid is empty.
    rng = random.Random(31)
    for _ in range(6):
        f = bench.make_formula(12, 16, rng.randrange(1 << 30), False)
        inst, wit = reduction.reduce_to_packing(f, 2, dull_width=0)
        assert max(len(d) for d in wit.domains) > reduction.CODE_CHUNK_BITS and wit.grid_size > 0
        grid_mask = (1 << wit.grid_size) - 1
        for idx in range(wit.core_count):
            g, code = wit.entry(idx)
            expected = 0
            for v, value in reduction.decode_assignment(wit.domains[g], code).items():
                expected |= wit.grid_mask(v, g, value)
            assert inst.masks[idx] & grid_mask == expected


def disjoint_clauses(m):
    # Clause k alone uses x(3k+1)..x(3k+3), so a group's witness domain
    # names exactly the clauses in it.
    clauses = tuple((3 * k + 1, -(3 * k + 2), 3 * k + 3) for k in range(m))
    return cnf.CnfFormula(num_vars=max(1, 3 * m), clauses=clauses)


def groups_from_witness(m, r):
    """The clause indices of each group, read from the witness domains of disjoint_clauses(m)."""
    _, wit = reduction.reduce_to_packing(disjoint_clauses(m), r, dull_width=0)
    assert wit.r == r
    groups = []
    for g in range(r):
        domain = wit.domains[g]
        assert len(domain) % 3 == 0
        groups.append(tuple(domain[i] // 3 for i in range(0, len(domain), 3)))
        if not domain:  # an empty group holds the single empty assignment
            assert wit.codes[g] == (0,)
    return tuple(groups)


def test_partition_examples():
    assert groups_from_witness(2, 2) == ((0,), (1,))
    assert groups_from_witness(5, 2) == ((0, 2, 4), (1, 3))
    assert groups_from_witness(2, 3) == ((0,), (1,), ())


def test_partition_properties_exhaustive():
    # At most 3 clauses per group keep each group's assignment family small.
    for m in range(0, 13):
        for r in range(1, 7):
            if m > 3 * r:
                continue
            groups = groups_from_witness(m, r)
            for g, group in enumerate(groups):
                # Each disjoint clause adds three new variables to any group,
                # so the lowest index wins every turn: the split is round robin.
                assert group == tuple(range(g, m, r))
            seen = [k for group in groups for k in group]
            assert sorted(seen) == list(range(m))
            assert len(seen) == len(set(seen))
            for group in groups:
                assert abs(len(group) - m / r) <= 1


def reference_turns(clauses, r, by_estimate=False):
    """A walk by its definition, O(m^2 r), as the (group, clause) of each
    turn. Turn t is group t mod r's, or, by_estimate, the group whose
    2^k (7/8)^c over its k domain variables and c clauses is least, compared
    exactly, the lowest group among ties. In its turn a group takes the
    unassigned clause adding the fewest new variables to its domain, the
    lowest index among ties. Shares no code with clause_groups."""
    variables = [{abs(lit) for lit in clause} for clause in clauses]
    free = list(range(len(clauses)))
    domains = [set() for _ in range(r)]
    sizes = [0] * r
    turns = []

    def estimate(g):
        return Fraction(2 ** len(domains[g]) * 7 ** sizes[g], 8 ** sizes[g]), g

    for t in range(len(clauses)):
        g = min(range(r), key=estimate) if by_estimate else t % r
        best = min(free, key=lambda c: (len(variables[c] - domains[g]), c))
        free.remove(best)
        sizes[g] += 1
        domains[g] |= variables[best]
        turns.append((g, best))
    return turns


def reference_clause_groups(clauses, r, by_estimate=False):
    """The groups of the reference walk, each ascending."""
    groups = [[] for _ in range(r)]
    for g, c in reference_turns(clauses, r, by_estimate):
        groups[g].append(c)
    return tuple(tuple(sorted(group)) for group in groups)


def reference_estimate(clauses, groups):
    """Sum over the groups of 2^k (7/8)^c for k domain variables and c clauses, as a Fraction."""
    total = Fraction(0)
    for group in groups:
        k, c = len({abs(lit) for i in group for lit in clauses[i]}), len(group)
        total += Fraction(2**k * 7**c, 8**c)
    return total


def reference_kept_split(clauses, r):
    """(groups, by turns) of the split clause_groups should keep: the estimate
    walk's if its estimate is strictly smaller, else the turn-taking walk's."""
    turn_taking = reference_clause_groups(clauses, r)
    by_estimate = reference_clause_groups(clauses, r, True)
    if reference_estimate(clauses, by_estimate) < reference_estimate(clauses, turn_taking):
        return by_estimate, False
    return turn_taking, True


def check_split(formula, r):
    """clause_groups against the reference's kept split; (groups, by turns) is returned."""
    m = formula.num_clauses
    groups = reduction.clause_groups(formula, r, 0)
    expected, by_turns = reference_kept_split(formula.clauses, r)
    assert groups == expected
    assert reduction.clause_groups(formula, r, 0) == groups  # deterministic
    assert sorted(c for group in groups for c in group) == list(range(m))  # a partition
    assert all(group == tuple(sorted(group)) for group in groups)
    if by_turns:
        assert [len(group) for group in groups] == [len(range(g, m, r)) for g in range(r)]  # round-robin sizes
    return groups, by_turns


@settings(max_examples=300, deadline=None)
@given(clauses=st.lists(st.lists(literals, min_size=1, max_size=3), max_size=24), r=st.integers(1, 30))
def test_clause_groups_follow_the_reference_rule(clauses, r):
    # Repeated clauses and literals, tautologies and shared variables, with r
    # from 1 to past m, where some groups stay empty.
    check_split(cnf.CnfFormula(num_vars=6, clauses=tuple(map(tuple, clauses))), r)


def test_estimate_split_gives_the_turn_to_the_smallest_estimate():
    # Each clause is (a b c) over three variables. Turn-taking: group 0 takes
    # 0, 2 and 3, which add no variable after the first; group 1 takes 1, 5
    # and 4. The estimate walk: (x1 x2 x3) and (x4 x5 x6) go to groups 0 and
    # 1, each at 2^3 (7/8) = 7. Group 0 wins the tie and takes (x1 x2 -x3),
    # 6.125, keeps the turn for (-x1 x2 x3), 5.36, and then for (x7 x8 x9),
    # the lower of the two clauses adding three variables, 37.5. Group 1
    # takes (x4 x5 -x6). The estimates sum to 43.6 against turn-taking's
    # 48.2, so the estimate walk's groups are kept. The families: 35 + 6 =
    # 41 sets against 5 + 6 * 7 = 47.
    f = PHI_ESTIMATE_SMALLER
    assert reference_clause_groups(f.clauses, 2) == ((0, 2, 3), (1, 4, 5))
    assert reference_clause_groups(f.clauses, 2, True) == ((0, 2, 3, 4), (1, 5))
    assert check_split(f, 2) == (((0, 2, 3, 4), (1, 5)), False)
    _, wit = reduction.reduce_to_packing(f, 2, dull_width=0)
    assert [len(codes) for codes in wit.codes] == [35, 6]


def test_clause_groups_on_the_sample_formulas_and_edge_counts():
    kept = Counter()  # by turns: how often each walk's split is kept
    for f, _, wit in sample_instances(40, seed=5):
        kept[check_split(f, wit.r)[1]] += 1
        check_split(f, 1)
        groups, _ = check_split(f, f.num_clauses + 3)
        assert groups[f.num_clauses:] == ((),) * 3
    f = bench.make_formula(28, 56, 7, True)
    kept[check_split(f, 5)[1]] += 1  # the planted n=28 row at the paper's r
    # Rows at the paper's r whose groups share many variables, so that many
    # turns take a clause adding two new variables.
    for n, m, planted, r in [(40, 80, True, 6), (32, 136, False, 5), (40, 170, False, 6)]:
        kept[check_split(bench.make_formula(n, m, 7, planted), r)[1]] += 1
    assert kept[True] and kept[False]


def first_refused_turn(clauses, r, d, bound):
    """The turn after which the reference turn-taking walk's grid plus d
    passes bound, 0 if d alone does, None if it never does."""
    if d > bound:
        return 0
    domains = [set() for _ in range(r)]
    for t, (g, c) in enumerate(reference_turns(clauses, r), 1):
        domains[g] |= {abs(lit) for lit in clauses[c]}
        if reduction.grid_layout(domains)[1] + d > bound:
            return t
    return None


def test_clause_groups_refuse_a_grid_above_the_bound_as_grid_layout_counts_it(monkeypatch):
    # The turn-taking walk stops as soon as the grid of its domains plus the
    # d dull IDs passes MAX_UNIVERSE, which happens exactly when the finished
    # walk's grid plus d would; a dull block alone above the bound is refused
    # before any clause is grouped. Where only the estimate walk's grid
    # passes the bound, the turn-taking split is returned.
    rng = random.Random(17)
    refused = estimate_refused = 0
    for _ in range(400):
        n = rng.randint(3, 10)
        f = bench.make_formula(n, rng.randint(0, 30), rng.randrange(1 << 30), False)
        r = rng.randint(1, 6)
        turn_taking = reference_clause_groups(f.clauses, r)
        by_estimate = reference_clause_groups(f.clauses, r, True)
        grid, estimate_grid = (
            reduction.grid_layout({abs(lit) for c in group for lit in f.clauses[c]} for group in groups)[1]
            for groups in (turn_taking, by_estimate)
        )
        bound = rng.randint(0, 40)
        d = rng.randint(0, MAX_DULL_WIDTH)
        turn = first_refused_turn(f.clauses, r, d, bound)
        assert (turn is not None) == (grid + d > bound)
        monkeypatch.setattr(reduction, "MAX_UNIVERSE", bound)
        if turn is not None:
            refused += 1
            message = f"^the grid plus {d} dull IDs exceeds MAX_UNIVERSE = {bound}: ([0-9]+) IDs once {turn} of {f.num_clauses} clauses are grouped$"
            with pytest.raises(ValueError, match=message) as exc:
                reduction.clause_groups(f, r, d)
            assert int(re.match(message, str(exc.value)).group(1)) > bound
        elif estimate_grid + d > bound:
            estimate_refused += 1
            assert reduction.clause_groups(f, r, d) == turn_taking
        else:
            assert reduction.clause_groups(f, r, d) == reference_kept_split(f.clauses, r)[0]
    assert 200 < refused < 340 and 0 < estimate_refused


def test_counts_are_checked_before_the_split(monkeypatch):
    def no_split(*args, **kwargs):
        raise AssertionError("the clauses were split before r was checked")

    monkeypatch.setattr(reduction, "clause_groups", no_split)
    for r, message in [
        (0, "need n >= 1 and r >= 1, got n = 3, r = 0"),
        (MAX_UNIVERSE + 1, f"need n <= MAX_UNIVERSE and r <= MAX_UNIVERSE = {MAX_UNIVERSE}, got n = 3, r = {MAX_UNIVERSE + 1}"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            reduction.reduce_to_packing(PHI_TWO_WIDE, r, dull_width=0)
    with pytest.raises(ValueError, match=r"^dull_width 17 is not in \[0, 16\]"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=17)
    with pytest.raises(AssertionError, match="split before r was checked"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)


def test_reduce_refuses_universe_above_bound(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a group was enumerated before the grid was checked")

    monkeypatch.setattr(reduction, "enumerate_group_assignments", no_enumeration)
    # 1200 variables, each in all 8 groups: the grid alone would have
    # 1200 * 8 * 7 = 67,200 IDs. The split stops once it passes MAX_UNIVERSE:
    # x1..x1170 hold 1170 * 56 = 65,520 IDs, and clause 3122, the third copy
    # of (x1171 x1172 x1173), adds 4 per variable.
    f = cnf.CnfFormula(num_vars=1200, clauses=tuple(t for k in range(400) for t in [(3 * k + 1, 3 * k + 2, 3 * k + 3)] * 8))
    message = "the grid plus 0 dull IDs exceeds MAX_UNIVERSE = 65536: 65538 IDs once 3123 of 3200 clauses are grouped"
    with pytest.raises(ValueError, match=f"^{message}$"):
        reduction.reduce_to_packing(f, 8, dull_width=0)
    # The split counts the dull block too: two copies of (x1171 x1172 x1173)
    # make a grid of 65,520 + 6 IDs, which leaves room for 10 dull IDs, not 11.
    f = cnf.CnfFormula(num_vars=1200, clauses=f.clauses[:3122])
    assert len(reduction.clause_groups(f, 8, 10)) == 8
    message = "the grid plus 11 dull IDs exceeds MAX_UNIVERSE = 65536: 65537 IDs once 3122 of 3122 clauses are grouped"
    with pytest.raises(ValueError, match=f"^{message}$"):
        reduction.clause_groups(f, 8, 11)
    with pytest.raises(ValueError, match=f"^{message}$"):
        reduction.reduce_to_packing(f, 8, dull_width=11)
    # A variable count above the bound is refused however small the grid.
    f = cnf.CnfFormula(num_vars=MAX_UNIVERSE + 1, clauses=((1, 2, 3),))
    with pytest.raises(ValueError, match=f"got n = {MAX_UNIVERSE + 1}, r = 1"):
        reduction.reduce_to_packing(f, 1)
    with pytest.raises(ValueError, match=f"got n = 3, r = {MAX_UNIVERSE + 1}"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, MAX_UNIVERSE + 1, dull_width=0)


def test_reduce_max_sets_boundary(monkeypatch):
    full, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    total = full.set_count  # 7 + 7 core sets and 4 padding sets
    monkeypatch.setattr(reduction, "MAX_SETS", total)
    inst, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    assert inst == full
    monkeypatch.setattr(reduction, "MAX_SETS", total - 1)
    with pytest.raises(ValueError, match=f"MAX_SETS = {total - 1}: group 1: more than 6 satisfying"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    # The kept split is the only one enumerated: the estimate split's 35 + 6
    # sets fit under 41 and are refused under 40 in its own group 1, though
    # turn-taking's 47 would not fit either way.
    monkeypatch.setattr(reduction, "MAX_SETS", 41)
    assert [len(codes) for codes in reduction.reduce_to_packing(PHI_ESTIMATE_SMALLER, 2, dull_width=0)[1].codes] == [35, 6]
    monkeypatch.setattr(reduction, "MAX_SETS", 40)
    with pytest.raises(ValueError, match="^family refused under MAX_SETS = 40: group 1: more than 5 satisfying"):
        reduction.reduce_to_packing(PHI_ESTIMATE_SMALLER, 2, dull_width=0)
    # check_counts caps d, so the padding sets alone never reach the bound.
    assert 1 << MAX_DULL_WIDTH < MAX_SETS


def split_family(formula, groups):
    """(domains, codes) of the groups of a split, each enumerated under MAX_SETS alone."""
    found = [enumerate_all(tuple(formula.clauses[c] for c in group)) for group in groups]
    return tuple(g.domain for g in found), tuple(g.codes for g in found)


def kept_family(formula, r):
    """The family the reduction should keep: that of the reference's kept split."""
    return split_family(formula, reference_kept_split(formula.clauses, r)[0])


@settings(max_examples=300, deadline=None)
@given(clauses=st.lists(st.lists(literals, min_size=1, max_size=3), max_size=24), r=st.integers(1, 8), d=st.integers(0, 2))
def test_reduce_keeps_the_split_with_the_smaller_estimate(clauses, r, d):
    f = cnf.CnfFormula(num_vars=6, clauses=tuple(map(tuple, clauses)))
    d = d if r > 1 else 0
    inst, wit = reduction.reduce_to_packing(f, r, dull_width=d)
    assert (wit.domains, wit.codes) == kept_family(f, r)
    assert inst.set_count == wit.core_count + wit.pad_count


def test_reduce_keeps_the_predicted_split_on_the_baseline_rows():
    # The estimate split halves the dense rows and the planted n=28 and n=36
    # rows, and turn-taking is kept on planted n=40. The estimate misses on
    # unplanted n=18, m=78, seed 1: it predicts the estimate split smaller,
    # but that family has 2,509 sets against turn-taking's 2,369.
    for n, m, seed, planted, r, sets in [
        (28, 56, 7, True, 5, 21_298),  # 29,408 sets split by turns
        (36, 72, 7, True, 6, 92_312),  # 220,359
        (40, 80, 7, True, 6, 244_804),  # the turn-taking family; 270,990 by estimate
        (20, 95, 2, False, 5, 4_357),  # 6,329
        (18, 78, 1, False, 5, 2_509),  # the estimate split's family, the miss
    ]:
        f = bench.make_formula(n, m, seed, planted)
        inst, wit = reduction.reduce_to_packing(f, r, dull_width=0)
        assert (wit.domains, wit.codes) == kept_family(f, r)
        assert inst.set_count == sets
    f = bench.make_formula(18, 78, 1, False)
    assert sum(map(len, split_family(f, reference_clause_groups(f.clauses, 5))[1])) == 2_369
    # The two walks of this formula differ, with groups of the same domain
    # size and clause counts, so their estimates tie and turn-taking's 25
    # sets are kept over the estimate walk's 24.
    f = cnf.CnfFormula(num_vars=4, clauses=((1, -2, 3), (-3, 2, 1), (1, -2, 3), (4, 1, -3), (-1, 3, -4)))
    turn_taking = split_family(f, reference_clause_groups(f.clauses, 2))
    estimate = split_family(f, reference_clause_groups(f.clauses, 2, True))
    assert turn_taking != estimate
    assert sum(map(len, turn_taking[1])) == 25 and sum(map(len, estimate[1])) == 24
    _, wit = reduction.reduce_to_packing(f, 2, dull_width=0)
    assert (wit.domains, wit.codes) == turn_taking


def test_reduce_enumerates_the_groups_of_one_split_only(monkeypatch):
    calls = []
    enumerate_groups = reduction.enumerate_group_assignments

    def spy(clauses, *, limit):
        calls.append(clauses)
        return enumerate_groups(clauses, limit=limit)

    monkeypatch.setattr(reduction, "enumerate_group_assignments", spy)
    # The two walks differ; the estimate walk's groups alone are enumerated.
    f = PHI_ESTIMATE_SMALLER
    by_estimate = reference_clause_groups(f.clauses, 2, True)
    assert reference_clause_groups(f.clauses, 2) != by_estimate
    reduction.reduce_to_packing(f, 2, dull_width=0)
    assert calls == [tuple(f.clauses[c] for c in group) for group in by_estimate]
    # A family past MAX_SETS costs one split's enumeration at most: here the
    # turn-taking split's groups 0 to 3, the last of which is refused.
    calls.clear()
    with pytest.raises(ValueError, match=f"^family refused under MAX_SETS = {MAX_SETS}: group 3: more than 447768 satisfying"):
        reduction.reduce_to_packing(bench.make_formula(40, 80, 0, True), 4)
    assert len(calls) == 4


def test_reduce_reaches_the_planted_n48_row_through_the_estimate_split():
    # At the paper's r = 6, the estimate walk's family has 568,486 sets; the
    # turn-taking walk's, enumerated as the reduction would, passes MAX_SETS
    # in its group 3.
    f = bench.make_formula(48, 96, 7, True)
    inst, wit = reduction.reduce_to_packing(f, 6, dull_width=0)
    assert inst.set_count == 568_486
    by_estimate = reference_clause_groups(f.clauses, 6, True)
    assert wit.domains == tuple(tuple(sorted({abs(lit) for c in group for lit in f.clauses[c]})) for group in by_estimate)
    allowance = MAX_SETS
    with pytest.raises(ValueError, match="^more than"):
        for g, group in enumerate(reference_clause_groups(f.clauses, 6)):
            allowance -= reduction.enumerate_group_assignments(tuple(f.clauses[c] for c in group), limit=allowance).count
    assert g == 3


def test_reduce_keeps_turn_taking_when_only_the_estimate_grid_overflows(monkeypatch):
    # The estimate walk has fewer sets (59 against 73) but a wider grid (18
    # IDs against 16): with room for 16 grid IDs, turn-taking is kept.
    f = cnf.CnfFormula(num_vars=8, clauses=((-8, 1, -4), (3, -1, -7), (4, 7, 8), (-2, 4, 6), (-8, 3, 6), (1, -7, 3), (-1, 7, 8)))
    turn_taking_groups = reference_clause_groups(f.clauses, 3)
    turn_taking = split_family(f, turn_taking_groups)
    estimate = split_family(f, reference_clause_groups(f.clauses, 3, True))
    assert [reduction.grid_layout(family[0])[1] for family in (turn_taking, estimate)] == [16, 18]
    assert [sum(map(len, family[1])) for family in (turn_taking, estimate)] == [73, 59]
    assert reduction.reduce_to_packing(f, 3, dull_width=0)[1].codes == estimate[1]
    monkeypatch.setattr(reduction, "MAX_UNIVERSE", 16)
    assert reduction.clause_groups(f, 3, 0) == turn_taking_groups
    _, wit = reduction.reduce_to_packing(f, 3, dull_width=0)
    assert (wit.domains, wit.codes) == turn_taking and wit.grid_size == 16


class EstimateWalkStarted:
    """A stand-in for LOG2_8_7 that fails the first estimate walk key taken with it."""

    def __mul__(self, other):
        raise AssertionError("the estimate walk was started")

    __rmul__ = __mul__


def test_reduce_skips_the_estimate_split_once_turn_taking_overflows_its_grid(monkeypatch):
    monkeypatch.setattr(reduction, "LOG2_8_7", EstimateWalkStarted())
    with pytest.raises(AssertionError, match="the estimate walk was started"):
        reduction.clause_groups(PHI_ESTIMATE_SMALLER, 2, 0)
    # The formula of test_reduce_refuses_universe_above_bound, whose
    # turn-taking grid passes MAX_UNIVERSE: its message is raised, and the
    # estimate walk never starts.
    f = cnf.CnfFormula(num_vars=1200, clauses=tuple(t for k in range(400) for t in [(3 * k + 1, 3 * k + 2, 3 * k + 3)] * 8))
    message = "the grid plus 0 dull IDs exceeds MAX_UNIVERSE = 65536: 65538 IDs once 3123 of 3200 clauses are grouped"
    with pytest.raises(ValueError, match=f"^{message}$"):
        reduction.reduce_to_packing(f, 8, dull_width=0)


def test_reduce_family_bits_boundary(monkeypatch):
    full, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    bits = full.set_count * full.universe_size
    monkeypatch.setattr(packing, "MAX_FAMILY_BITS", bits)
    assert reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)[0] == full
    monkeypatch.setattr(packing, "MAX_FAMILY_BITS", bits - 1)
    with pytest.raises(ValueError, match=f"{full.set_count} sets over a universe of {full.universe_size}"):
        reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)


def test_reduce_refuses_search_beyond_allowance(monkeypatch):
    # Few sets, but a search over the 7^5 dead prefixes of x1..x15 ahead of
    # x16, since with x31 false no values of x15 and x16 satisfy the core (as
    # in test_enumerate_bounds_search_work, probing cannot see it): refused
    # under a small cap.
    core = tuple((a, b, 31) for a in (15, -15) for b in (16, -16)) + ((-31, 32), (-31, -32))
    f = cnf.CnfFormula(num_vars=32, clauses=DISJOINT[:10] + core)
    monkeypatch.setattr(reduction, "MAX_SETS", 100)
    with pytest.raises(ValueError, match="MAX_SETS = 100: group 0: search visited more than"):
        reduction.reduce_to_packing(f, 1)
    # A contradiction among x17..x32 alone empties the root table: no sets.
    core = ((31, 32), (31, -32), (-31, 32), (-31, -32))
    f = cnf.CnfFormula(num_vars=32, clauses=DISJOINT[:10] + core)
    assert reduction.reduce_to_packing(f, 1)[0].set_count == 0


def test_reduce_padding_grows_counts():
    base, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    padded, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    assert padded.set_count == base.set_count + 4
    assert padded.universe_size == base.universe_size + 2
    core_size = wit.universe_size - wit.dull_width
    for idx in range(wit.core_count, wit.core_count + wit.pad_count):
        assert set(padded.sets[idx]) >= set(range(core_size))


def test_check_witness_accepts_the_witness_that_builds_the_instance():
    for d in (0, 2):
        inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=d)
        assert reduction.build_instance(wit) == inst
        reduction.check_witness(inst, wit)


def test_check_witness_compares_sizes_before_rebuilding(monkeypatch):
    # 20 bytes of witness that would build 65,536 padding sets over 18 IDs.
    wit = reduction.witness_from_text("w 8187 2 16\ng 0\ng 0\n")
    inst, _ = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)

    def no_rebuild(witness):
        raise AssertionError("build_instance called before the sizes were compared")

    monkeypatch.setattr(reduction, "build_instance", no_rebuild)
    with pytest.raises(ValueError, match="witness universe 18 does not match instance universe 16"):
        reduction.check_witness(inst, wit)


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
        f = bench.make_formula(n, m, rng.randrange(1 << 30), False)
        r = rng.choice(r_choices)
        inst, wit = reduction.reduce_to_packing(f, r, dull_width=0)
        out.append((f, inst, wit))
    return out


def test_size_identities():
    for f, inst, wit in sample_instances(40, seed=5):
        holders = Counter(v for domain in wit.domains for v in domain)  # |G_x| per variable x
        assert inst.universe_size == sum(c * (c - 1) for c in holders.values()) + wit.iss_total + wit.dull_width
        assert wit.core_count == sum(len(codes) for codes in wit.codes)
        assert inst.set_count == wit.core_count + wit.pad_count
        for idx in range(wit.core_count):
            g, _ = wit.entry(idx)
            grid_part = [e for e in inst.sets[idx] if e < wit.grid_size]
            assert len(grid_part) == sum(holders[v] - 1 for v in wit.domains[g])


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
        f = bench.make_formula(n, m, rng.randrange(1 << 30), False)
        r = rng.choice((2, 3))
        plain, _ = reduction.reduce_to_packing(f, r, dull_width=0)
        padded, wit = reduction.reduce_to_packing(f, r, dull_width=2)
        assert solve_exact(plain).verdict == solve_exact(padded).verdict
        # a padding set intersects every other set, so no packing of
        # cardinality >= 2 can contain one
        pad_idx = wit.core_count
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
    # x1 true claims (1, 0) of x1's block; x2 and x3 false claim (0, 1) of theirs; then the tag.
    assert inst.sets[3] == (1, 2, 4, 6, 8, 9)


def test_lower_rejects_non_satisfying():
    _, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    message = "assignment does not satisfy clause group 1 (restriction code 7)"
    with pytest.raises(ValueError) as exc:
        reduction.lower_assignment_to_packing(wit, {1: True, 2: True, 3: True})
    assert str(exc.value) == message
    # set_index_of owns the message: the lowering passes it on unchanged.
    with pytest.raises(ValueError) as exc:
        wit.set_index_of(1, 7)
    assert str(exc.value) == message
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
        reduction.lift_packing_to_assignment(wit, [0, wit.core_count])
    with pytest.raises(ValueError, match="group"):
        reduction.lift_packing_to_assignment(wit, [0, 1])  # both from group 0
    with pytest.raises(ValueError, match="inconsistent"):
        reduction.lift_packing_to_assignment(wit, [0, 13])  # 000 vs 110 disagree on x1
    with pytest.raises(ValueError, match="expected 2"):
        reduction.lift_packing_to_assignment(wit, [0])
    with pytest.raises(ValueError, match="out of range"):
        reduction.lift_packing_to_assignment(wit, [0, 99])


def test_entry_owns_the_set_index_checks():
    # lift_packing_to_assignment reads each index through entry, so both
    # refuse an index outside the family or a padding set with one message.
    inst, wit = reduction.reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=1)
    assert (wit.core_count, wit.set_count) == (inst.set_count - 2, inst.set_count)
    for bad, message in (
        (-1, f"set index -1 out of range [0, {wit.set_count})"),
        (wit.set_count, f"set index {wit.set_count} out of range [0, {wit.set_count})"),
        (wit.core_count, f"set index {wit.core_count} is a padding set and carries no assignment"),
    ):
        for read in (wit.entry, lambda idx: reduction.lift_packing_to_assignment(wit, [0, idx])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read(bad)


@pytest.mark.parametrize("bad", [0.0, "0", None, True])
def test_lift_and_entry_refuse_non_integer_indices(bad):
    # (x1 or x2) and (not x1 or x3) at r = 2, whose least packing is (0, 3).
    formula = cnf.parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")
    inst, wit = reduction.reduce_to_packing(formula, 2, dull_width=0)
    assert solve_exact(inst).packing == (0, 3)
    assert cnf.evaluate(formula, reduction.lift_packing_to_assignment(wit, [0, 3]))
    # A bool is not read as set 0 or 1, nor is a float or a string as set 0.
    with pytest.raises(ValueError, match="non-integer set index"):
        reduction.lift_packing_to_assignment(wit, [bad, 3])
    with pytest.raises(ValueError, match=f"^non-integer set index {re.escape(repr(bad))}$"):
        wit.entry(bad)


# -- witness file format --------------------------------------------------------

def test_witness_map_needs_one_domain_per_group():
    # witness_from_text reads a group's domain and codes from one line, so
    # only a direct construction can give them in different counts.
    with pytest.raises(ValueError, match=r"^need one domain per group, got 1 for 2 groups$"):
        reduction.WitnessMap(num_vars=2, dull_width=0, domains=((1,),), codes=((0,), (1,)))


def test_witness_round_trip_objects():
    for f, inst, wit in sample_instances(10, seed=12):
        text = reduction.witness_to_text(wit)
        assert reduction.witness_from_text(text) == wit
        assert reduction.witness_to_text(reduction.witness_from_text(text)) == text


def test_witness_round_trip_with_padding_and_empty_groups():
    inst, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 2, dull_width=3)
    assert reduction.witness_from_text(reduction.witness_to_text(wit)) == wit
    # Group 0 takes (x1), group 1 the lowest of the two clauses that add one
    # variable, (x2), and group 0 then (not x1), which adds none.
    f = cnf.CnfFormula(num_vars=2, clauses=((1,), (2,), (-1,)))
    assert reduction.clause_groups(f, 2, 0) == ((0, 2), (1,))
    _, wit2 = reduction.reduce_to_packing(f, 2, dull_width=0)
    assert any(not codes for codes in wit2.codes)
    assert reduction.witness_from_text(reduction.witness_to_text(wit2)) == wit2


def test_witness_text_literal_examples():
    # At r = 4, (x1) goes to group 0 and (not x1) to group 1, since group 0
    # has had its one turn; groups 2 and 3 have no clauses and hold the single
    # empty assignment, code 0.
    assert reduction.clause_groups(PHI_CONTRADICTION, 4, 0) == ((0,), (1,), (), ())
    _, wit = reduction.reduce_to_packing(PHI_CONTRADICTION, 4, dull_width=2)
    assert reduction.witness_to_text(wit) == "w 1 4 2\ng 1 1 1\ng 1 1 0\ng 0 0\ng 0 0\n"
    # Group 0 holds (x1) and (not x1) (see the test above): it has no codes
    # but keeps its domain.
    f = cnf.CnfFormula(num_vars=2, clauses=((1,), (2,), (-1,)))
    _, wit2 = reduction.reduce_to_packing(f, 2, dull_width=0)
    assert reduction.witness_to_text(wit2) == "w 2 2 0\ng 1 1\ng 1 2 1\n"
    for w in (wit, wit2):
        assert reduction.witness_from_text(reduction.witness_to_text(w)) == w
    # The same two witnesses in the older grammar, with a bit line per set.
    for old, match in [
        ("w 1 4 2\ng 1 1\n1\ng 1 1\n0\ng 1\n-\ng 1\n-\n", "8 group lines for r = 4"),
        ("w 2 2 0\ng 0 1\ng 1 2\n1\n", "3 group lines for r = 2"),
    ]:
        with pytest.raises(reduction.WitnessFormatError, match=match):
            reduction.witness_from_text(old)


def test_witness_parser_reads_a_line_of_every_code_in_small_memory():
    # One group over 16 variables with all 65,536 codes: 0.38 MB of text.
    # One decimal match of the line's joined fields peaks at 18 MB, 47 times
    # the text; read field by field, the parse peaks near 7.5 MB.
    text = f"w 16 1 0\ng 16 {' '.join(map(str, range(1, 17)))} {' '.join(map(str, range(1 << 16)))}\n"
    tracemalloc.start()
    try:
        wit = reduction.witness_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wit.domains == (tuple(range(1, 17)),) and wit.codes == (tuple(range(1 << 16)),)
    assert peak < 10 << 20


def test_witness_parser_holds_one_line_of_tokens_at_a_time():
    # The planted n=40, r=6 row's witness: 1.62 MB of text over six lines of
    # up to 90,928 codes. Split into token lists all at once, the parse peaked
    # at 25.2 MB; a line at a time, it peaks near 16 MB, most of it the codes.
    _, wit = reduction.reduce_to_packing(bench.make_formula(40, 80, 7, True), 6, dull_width=0)
    text = reduction.witness_to_text(wit)
    del _
    tracemalloc.start()
    try:
        parsed = reduction.witness_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == wit
    assert len(text) > 1_600_000 and peak < 20 << 20


def test_witness_format_errors():
    good = "w 3 2 0\ng 2 1 2 0 3\ng 0 0\n"
    wit = reduction.witness_from_text(good)
    assert wit.domains == ((1, 2), ()) and wit.codes == ((0, 3), (0,))
    bad = [
        ("", "empty"),
        ("x 3 2 0\ng 2 1 2 0 3\ng 0 0\n", "header"),
        ("w 3 2 0\ng 2 1 2 0 3\n", "1 group lines for r = 2"),  # a missing group
        (good + "g 0 0\n", "3 group lines for r = 2"),  # an extra group
        ("w 3 2 0\ng 2 1 2 0 3\n\ng\n", "malformed group line"),
        ("w 3 2 0\ng 2 1 2 0 3\nh 0 0\n", "malformed group line"),
        ("w 3 2 0\ng 2 1 2 0 x\ng 0 0\n", "malformed group line"),
        # A bad field after the first, deep in a long line, is refused as
        # read_int refuses it.
        *[
            (f"w 3 2 0\ng 2 1 2 {' '.join(['0'] * 40)} {bad} 3\ng 0 0\n", "malformed group line")
            for bad in ("+4", "1_0", "\u0663", "--1")
        ],
        ("w 3 2 0\ng 2 1 2 0 4\ng 0 0\n", "out of range for domain size 2"),
        ("w 3 2 0\ng 2 1 2 -1 3\ng 0 0\n", "out of range for domain size 2"),
        ("w 3 2 0\ng 2 1 2 0 3\ng 0 1\n", "out of range for domain size 0"),
        ("w 3 1 0\ng 2 1 2 3 0\n", "codes must be strictly increasing"),
        ("w 3 1 0\ng 2 1 2 3 3\n", "codes must be strictly increasing"),  # a repeated code
        ("w 3 1 0\ng 2 2 1 3\n", "domain must be strictly increasing"),
        # Out of order and out of range at once: the order is checked first.
        ("w 3 1 0\ng 2 9 1 0\n", "domain must be strictly increasing"),
        ("w 3 1 0\ng 2 1 2 9 0\n", "codes must be strictly increasing"),
        ("w 3 1 0\ng -1 1 2\n", r"domain size -1 is not in \[0, 2\]"),
        ("w 3 1 0\ng 3 1 2\n", r"domain size 3 is not in \[0, 2\]"),
        ("w 3 1 0\ng 99999999999999999999 1 2\n", r"domain size 99999999999999999999 is not in \[0, 2\]"),
        # Headers the reduction refuses (check_counts): padding at r = 1, whose
        # padding sets would each be a packing alone, and 2^17 padding sets.
        ("w 3 1 2\ng 0\n", "padding requires r >= 2"),
        ("w 1 2 17\ng 0\ng 0\n", r"dull_width 17 is not in \[0, 16\]"),
        # Older formats: a bit line per set, set-numbered lines, tag widths in
        # the header and a pad line; in the third, group 1's lines come first.
        ("w 3 2 0\ng 2 1 2\n00\n11\ng 1\n-\n", "5 group lines for r = 2"),
        ("w 3 2 0 3 3\n0 0 1 2 01\n1 0 1 2 10\n2 0 1 2 11\n3 1 1 3 01\n4 1 1 3 10\n5 1 1 3 11\npad 6 0\n", "header"),
        ("w 3 2 0 3 3\n0 1 1 3 01\n1 1 1 3 10\n2 1 1 3 11\n3 0 1 2 01\n4 0 1 2 10\n5 0 1 2 11\npad 6 0\n", "header"),
        ("w 1 4 2 1 1 1 1\n0 0 1 1\n1 1 1 0\n2 2 -\n3 3 -\npad 4 4\n", "header"),
        ("w 2 2 0 1 1\ng 0 1\n0 1 2 1\npad 1 0\n", "header"),
    ]
    for text, match in bad:
        with pytest.raises(reduction.WitnessFormatError, match=match):
            reduction.witness_from_text(text)


def _witness_to_text_with_bit_lines(witness):
    """The previous witness grammar: a "g <count> <domain>" line, then one bit line per set."""
    lines = [f"w {witness.num_vars} {witness.r} {witness.dull_width}"]
    for domain, codes in zip(witness.domains, witness.codes):
        lines.append(" ".join(["g", str(len(codes)), *map(str, domain)]))
        if domain:
            spec = f"0{len(domain)}b"
            lines.extend(f"{code:{spec}}" for code in codes)
        else:
            lines.extend("-" for _ in codes)
    return "\n".join(lines) + "\n"


def test_witness_in_the_bit_line_grammar_is_refused_or_read_alike():
    rng = random.Random(13)
    refused = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 10)):
            variables = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        r = rng.randint(1, 5)
        _, wit = reduction.reduce_to_packing(
            cnf.CnfFormula(num_vars=n, clauses=tuple(clauses)), r, dull_width=rng.randint(0, 2) if r > 1 else 0
        )
        try:
            assert reduction.witness_from_text(_witness_to_text_with_bit_lines(wit)) == wit
        except reduction.WitnessFormatError:
            refused += 1
    # Every group keeps at least one bit line or one domain variable, either of
    # which the new grammar cannot read as before.
    assert refused == 400


def test_witness_parser_raises_only_its_error_type():
    bad = [
        "w 1 1 0 1\ng 0\n",  # a tag width in the header
        "w 1 1 x\ng 0\n",  # d is not an integer
        "w 1 1 0\ng 1 a 0\n",  # a domain variable is not an integer
        "w 1 1 0\ng x 1 0\n",  # the domain size is not an integer
        "w 1 1 0\ng\n",
        "w 0 1 0\ng 0\n",  # n = 0 is not a layout
        "w 1 0 0\n",  # r = 0 is not a layout
        "w 1 -1 0\n",
        "w 1 1 -1\ng 0\n",  # negative d
        "w 2 1 0\ng 1 5 1\n",  # domain variable beyond n
        "w 2 1 0\ng 1 0 1\n",  # domain variable 0
        "w 1 257 0\n" + "g 1 1\n" * 257,  # universe above the bound: a grid of 257 * 256 IDs
        f"w {MAX_UNIVERSE + 1} 1 0\ng 0\n",  # n above the bound
        "w 1 1 99999999999\ng 0\n",  # 2^d padding sets, d huge
    ]
    for text in bad:
        with pytest.raises(reduction.WitnessFormatError):
            reduction.witness_from_text(text)


def test_witness_parser_accepts_noncanonical_domain_spelling():
    wit = reduction.witness_from_text("w 2 1 0\n\ng  02 01\t2 00 001 \n")
    assert wit.domains == ((1, 2),) and wit.codes == ((0, 1),)
    assert reduction.witness_to_text(wit) == "w 2 1 0\ng 2 1 2 0 1\n"


def test_group_offsets_cached_and_entry_matches_linear_scan():
    # In the first round group g takes the g-th unit clause. In the second,
    # groups 1, 2 and 4 take its negation, which adds no variable, so they are
    # contradictory and have no sets; groups 0 and 3 take (x1 x2) and
    # (not x1, x2), which add one.
    clauses = ((1,), (3,), (4,), (2,), (5,), (1, 2), (-3,), (-4,), (-1, 2), (-5,))
    assert reduction.clause_groups(cnf.CnfFormula(num_vars=5, clauses=clauses), 5, 0) == tuple(zip(range(5), range(5, 10)))
    _, wit = reduction.reduce_to_packing(cnf.CnfFormula(num_vars=5, clauses=clauses), 5, dull_width=0)
    assert [bool(codes) for codes in wit.codes] == [True, False, False, True, False]
    assert wit.group_offsets is wit.group_offsets
    for idx in range(wit.core_count):
        group = max(g for g in range(wit.r) if wit.group_offsets[g] <= idx)
        assert wit.entry(idx) == (group, wit.codes[group][idx - wit.group_offsets[group]])
        assert wit.set_index_of(*wit.entry(idx)) == idx


def test_witness_bits_match_domain():
    # A code over k domain variables is below 2^k.
    for k, domain in ((0, ""), (1, " 2"), (2, " 1 2")):
        top = 1 << k
        assert reduction.witness_from_text(f"w 2 1 0\ng {k}{domain} {top - 1}\n").codes == ((top - 1,),)
        for code in (top, top + 1, 1 << 100):
            with pytest.raises(reduction.WitnessFormatError, match=f"out of range for domain size {k}"):
                reduction.witness_from_text(f"w 2 1 0\ng {k}{domain} {code}\n")
