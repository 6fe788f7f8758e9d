from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspack import packing
from cspack.cnf import CnfFormula
from cspack.reduction import reduce_to_packing

PHI_TWO_WIDE = CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))


def make_instance(sets, r, universe_size=None):
    if universe_size is None:
        universe_size = 1 + max((e for s in sets for e in s), default=-1)
    return packing.SetPackingInstance.from_sets(
        universe_size=universe_size,
        sets=tuple(tuple(sorted(s)) for s in sets),
        r=r,
    )


def brute_force_packing(instance):
    """Independent oracle: scan all r-subsets in lexicographic index order."""
    as_sets = [set(s) for s in instance.sets]
    for combo in combinations(range(instance.set_count), instance.r):
        if all(not (as_sets[a] & as_sets[b]) for a, b in combinations(combo, 2)):
            return combo
    return None


# -- instance model and format ----------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        packing.SetPackingInstance.from_sets(universe_size=4, sets=((1, 0),), r=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        packing.SetPackingInstance.from_sets(universe_size=4, sets=((1, 1),), r=1)
    with pytest.raises(ValueError, match="out of range"):
        packing.SetPackingInstance.from_sets(universe_size=2, sets=((0, 2),), r=1)
    with pytest.raises(ValueError, match="duplicate"):
        packing.SetPackingInstance.from_sets(universe_size=2, sets=((0,), (0,)), r=1)
    with pytest.raises(ValueError, match="positive"):
        packing.SetPackingInstance.from_sets(universe_size=2, sets=((0,),), r=0)


def test_instance_mask_validation():
    inst = packing.SetPackingInstance(universe_size=4, masks=[0b0011, 0b1100], r=2)
    assert inst.masks == (0b0011, 0b1100)
    assert inst.sets == ((0, 1), (2, 3))
    with pytest.raises(ValueError, match="element ID 4 out of range"):
        packing.SetPackingInstance(universe_size=4, masks=(0b1, 0b10000), r=1)
    with pytest.raises(ValueError, match="nonnegative"):
        packing.SetPackingInstance(universe_size=4, masks=(-1,), r=1)
    with pytest.raises(ValueError, match="duplicate"):
        packing.SetPackingInstance(universe_size=4, masks=(0b101, 0b101), r=1)


def test_universe_bound_in_constructors():
    limit = packing.MAX_UNIVERSE
    assert packing.SetPackingInstance(universe_size=limit, masks=(1 << (limit - 1),), r=1).set_count == 1
    with pytest.raises(ValueError, match="MAX_UNIVERSE"):
        packing.SetPackingInstance(universe_size=limit + 1, masks=(), r=1)
    with pytest.raises(ValueError, match="MAX_UNIVERSE"):
        packing.SetPackingInstance.from_sets(universe_size=10**12, sets=((10**12 - 1,),), r=1)


def test_parse_checks_universe_bound_before_set_lines():
    # The set line would need a 10^12-bit mask; the header is refused first.
    with pytest.raises(packing.InstanceFormatError, match="MAX_UNIVERSE"):
        packing.parse_instance("p sp 99999999999999 1 1\ns 1 999999999999\n")
    with pytest.raises(packing.InstanceFormatError, match="MAX_UNIVERSE"):
        packing.parse_instance(f"p sp {packing.MAX_UNIVERSE + 1} 0 1\n")
    with pytest.raises(packing.InstanceFormatError, match="nonnegative"):
        packing.parse_instance("p sp -1 0 1\n")
    with pytest.raises(packing.InstanceFormatError, match="out of range"):
        packing.parse_instance("p sp 4 1 1\ns 1 999999999999\n")
    with pytest.raises(packing.InstanceFormatError, match="out of range"):
        packing.parse_instance("p sp 4 1 1\ns 1 -1\n")


def test_parse_example():
    inst = packing.parse_instance("p sp 4 2 2\ns 2 0 1\ns 2 2 3\n")
    assert inst.universe_size == 4
    assert inst.sets == ((0, 1), (2, 3))
    assert inst.r == 2


def test_serialize_parse_identity():
    text = "p sp 4 2 2\ns 2 0 1\ns 2 2 3\n"
    assert packing.serialize_instance(packing.parse_instance(text)) == text
    inst = make_instance([{0, 1}, {2}, {1, 3}], r=2)
    assert packing.parse_instance(packing.serialize_instance(inst)) == inst


def test_serialize_empty_set_line():
    inst = make_instance([set(), {0}], r=1, universe_size=1)
    text = packing.serialize_instance(inst)
    assert "s 0\n" in text
    assert packing.parse_instance(text) == inst


def test_parse_errors():
    with pytest.raises(packing.InstanceFormatError, match="header"):
        packing.parse_instance("p xx 4 2 2\n")
    with pytest.raises(packing.InstanceFormatError, match="declares 2 sets"):
        packing.parse_instance("p sp 4 2 2\ns 1 0\n")
    with pytest.raises(packing.InstanceFormatError, match="strictly increasing"):
        packing.parse_instance("p sp 4 1 1\ns 2 1 0\n")
    with pytest.raises(packing.InstanceFormatError, match="declared 3 IDs"):
        packing.parse_instance("p sp 4 1 1\ns 3 0 1\n")
    with pytest.raises(packing.InstanceFormatError, match="out of range"):
        packing.parse_instance("p sp 2 1 1\ns 1 5\n")
    with pytest.raises(packing.InstanceFormatError, match="set line"):
        packing.parse_instance("p sp 2 1 1\nq 1 0\n")
    with pytest.raises(packing.InstanceFormatError, match="strictly increasing"):
        packing.parse_instance("p sp 4 1 1\ns 2 1 1\n")
    with pytest.raises(packing.InstanceFormatError, match="malformed"):
        packing.parse_instance("p sp 4 1 1\ns 1 x\n")
    with pytest.raises(packing.InstanceFormatError, match="duplicate"):
        packing.parse_instance("p sp 4 2 1\ns 1 2\ns 1 2\n")


def test_parse_accepts_noncanonical_ids_and_serializes_them_canonically():
    inst = packing.parse_instance("p sp 300 2 1\ns 2 +1 007\ns 3 1 7 0299\n")
    assert inst.sets == ((1, 7), (1, 7, 299))
    assert packing.serialize_instance(inst) == "p sp 300 2 1\ns 2 1 7\ns 3 1 7 299\n"


def reference_serialize(universe_size, sets, r):
    """The tuple-based serializer the mask-based one must match byte for byte."""
    lines = [f"p sp {universe_size} {len(sets)} {r}"]
    for ids in sets:
        lines.append(" ".join(["s", str(len(ids)), *map(str, ids)]))
    return "\n".join(lines) + "\n"


@st.composite
def id_families(draw):
    universe = draw(st.integers(min_value=0, max_value=600))
    ids = st.integers(min_value=0, max_value=max(universe - 1, 0))
    members = st.sets(ids, max_size=min(universe, 40)) if universe else st.just(set())
    family = draw(st.lists(members.map(lambda m: tuple(sorted(m))), max_size=12, unique=True))
    return universe, tuple(family), draw(st.integers(min_value=1, max_value=4))


@given(id_families())
@settings(max_examples=300)
def test_from_sets_masks_and_text_match_the_tuples(case):
    universe, family, r = case
    inst = packing.SetPackingInstance.from_sets(universe, family, r)
    assert inst.sets == family
    assert [bin(m).count("1") for m in inst.masks] == [len(ids) for ids in family]
    text = packing.serialize_instance(inst)
    assert text == reference_serialize(universe, family, r)
    assert packing.parse_instance(text) == inst


# -- exact solver --------------------------------------------------------------

def test_solve_only_disjoint_pair():
    inst = make_instance([{0, 1}, {2, 3}, {1, 2}], r=2)
    result = packing.solve_exact(inst)
    assert result.verdict == "yes"
    assert result.packing == (0, 1)


def test_solve_no_triple():
    inst = make_instance([{0, 1}, {2, 3}, {1, 2}], r=3)
    assert packing.solve_exact(inst).verdict == "no"


def test_solve_r_exceeds_set_count():
    inst = make_instance([{0}], r=2)
    result = packing.solve_exact(inst)
    assert result.verdict == "no" and result.nodes == 0


def test_solve_refuses_nonpositive_budget():
    # The second instance has r > set count, which the solver answers without a search.
    for inst in (make_instance([{0}, {1}], r=2), make_instance([{0}], r=2)):
        for budget in (0, -5):
            with pytest.raises(ValueError, match="budget must be positive"):
                packing.solve_exact(inst, budget=budget)


def test_solve_reduced_instance():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    assert brute_force_packing(inst) is not None
    result = packing.solve_exact(inst)
    assert result.verdict == "yes"
    assert packing.verify_packing(inst, result.packing).ok


@st.composite
def small_instances(draw):
    universe = draw(st.integers(min_value=1, max_value=8))
    n_sets = draw(st.integers(min_value=1, max_value=10))
    sets = set()
    for _ in range(n_sets):
        ids = draw(st.sets(st.integers(min_value=0, max_value=universe - 1), max_size=universe))
        sets.add(tuple(sorted(ids)))
    r = draw(st.integers(min_value=1, max_value=4))
    return packing.SetPackingInstance.from_sets(universe_size=universe, sets=tuple(sorted(sets)), r=r)


@given(small_instances())
@settings(max_examples=200)
def test_solver_matches_exhaustive_enumeration(inst):
    expected = brute_force_packing(inst)
    result = packing.solve_exact(inst)
    if expected is None:
        assert result.verdict == "no"
    else:
        assert result.verdict == "yes"
        assert result.packing == expected  # lexicographically least
        assert packing.verify_packing(inst, result.packing).ok


def test_solver_determinism():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 3, dull_width=2)
    a = packing.solve_exact(inst)
    b = packing.solve_exact(inst)
    assert a == b


def test_budget_verdict_and_monotonicity():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    full = packing.solve_exact(inst)
    assert full.verdict == "yes"
    starved = packing.solve_exact(inst, budget=1)
    assert starved.verdict == "budget"
    assert starved.packing is None
    for budget in range(full.nodes, full.nodes + 4):
        again = packing.solve_exact(inst, budget=budget)
        assert again.verdict == "yes"
        assert again.packing == full.packing
        assert again.nodes == full.nodes


def test_budget_exhaustion_is_not_no():
    # unsat instance, starved solver must answer "budget", never "no"
    inst = make_instance([{0, 1}, {1, 2}, {0, 2}], r=2)
    assert packing.solve_exact(inst).verdict == "no"
    assert packing.solve_exact(inst, budget=1).verdict == "budget"


# -- verifier -------------------------------------------------------------------

def test_verify_valid():
    inst = make_instance([{0, 1}, {2, 3}, {1, 2}], r=2)
    assert packing.verify_packing(inst, [0, 1]).ok


def test_verify_duplicate_index():
    inst = make_instance([{0, 1}, {2, 3}], r=2)
    result = packing.verify_packing(inst, [0, 0])
    assert not result.ok and "duplicate index 0" in result.reason


def test_verify_reports_shared_element():
    inst = make_instance([{0, 1}, {1, 2}], r=2)
    result = packing.verify_packing(inst, [0, 1])
    assert not result.ok and "share element 1" in result.reason


def test_verify_wrong_count_and_range():
    inst = make_instance([{0}, {1}, {2}], r=2)
    assert "expected 2 indices" in packing.verify_packing(inst, [0]).reason
    assert "out of range" in packing.verify_packing(inst, [0, 7]).reason
    assert not packing.verify_packing(inst, [0, "x"]).ok


# -- compactness audit -----------------------------------------------------------

def test_audit_two_wide_fixture():
    inst, wit = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    report = packing.audit_compactness(inst, wit)
    assert report.universe_size == 22 and report.set_count == 14
    assert report.ratio == pytest.approx(0.7223, abs=1e-4)
    assert (report.grid_width, report.iss_width, report.dull_width) == (12, 10, 0)


def test_audit_contradiction_fixture():
    inst = packing.parse_instance("p sp 6 2 2\ns 3 0 2 4\ns 3 2 3 5\n")
    report = packing.audit_compactness(inst)
    assert report.ratio == pytest.approx(0.75)
    assert report.grid_width is None


def test_audit_rejects_single_set():
    inst = make_instance([{0}], r=1)
    with pytest.raises(ValueError, match="at least 2"):
        packing.audit_compactness(inst)


def test_audit_rejects_mismatched_witness():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    _, other = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=2)
    with pytest.raises(ValueError, match="does not match"):
        packing.audit_compactness(inst, other)


def test_audit_rejects_witness_of_another_r():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    _, other = reduce_to_packing(PHI_TWO_WIDE, 1, dull_width=0)
    with pytest.raises(ValueError, match="witness r 1 does not match instance r 2"):
        packing.audit_compactness(inst, other)


def test_audit_log2():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    report = packing.audit_compactness(inst)
    assert report.log2_set_count == pytest.approx(math.log2(14))
