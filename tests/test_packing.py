from __future__ import annotations

import math
import random
import sys
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cspack import bench, cnf, packing
from cspack.cnf import CnfFormula
from cspack.reduction import check_witness, lift_packing_to_assignment, reduce_to_packing

PHI_TWO_WIDE = CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))


def masks_of(sets):
    return tuple(sum(1 << e for e in s) for s in sets)


def make_instance(sets, r, universe_size=None):
    if universe_size is None:
        universe_size = 1 + max((e for s in sets for e in s), default=-1)
    return packing.SetPackingInstance(universe_size=universe_size, masks=masks_of(sets), r=r)


def brute_force_packing(instance):
    """Independent oracle: scan all r-subsets in lexicographic index order."""
    as_sets = [set(s) for s in instance.sets]
    for combo in combinations(range(instance.set_count), instance.r):
        if all(not (as_sets[a] & as_sets[b]) for a, b in combinations(combo, 2)):
            return combo
    return None


def reference_solve(instance, budget=packing.DEFAULT_NODE_BUDGET):
    """Plain ordered DFS: the solver's reference for verdicts and first packings.

    Branches on set indices in ascending order, keeps the union of chosen
    sets as a bit-vector, skips candidates that intersect it, and cuts a
    level short once too few indices remain. Its node counts differ from
    solve_exact's: here a node is one index examined.
    """
    r = instance.r
    masks = instance.masks
    count = len(masks)
    if r > count:
        return packing.SolveResult(verdict="no", packing=None, nodes=0)

    nodes = 0
    chosen = []

    def extend(start, union):
        nonlocal nodes
        need = r - len(chosen)
        if need == 0:
            return "yes"
        for i in range(start, count - need + 1):
            nodes += 1
            if nodes > budget:
                return "budget"
            if masks[i] & union:
                continue
            chosen.append(i)
            status = extend(i + 1, union | masks[i])
            if status != "no":
                return status
            chosen.pop()
        return "no"

    verdict = extend(0, 0)
    return packing.SolveResult(verdict=verdict, packing=tuple(chosen) if verdict == "yes" else None, nodes=nodes)


# -- instance model and format ----------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError, match="out of range"):
        packing.SetPackingInstance(universe_size=2, masks=masks_of(((0, 2),)), r=1)
    with pytest.raises(ValueError, match="duplicate"):
        packing.SetPackingInstance(universe_size=2, masks=masks_of(((0,), (0,))), r=1)
    with pytest.raises(ValueError, match="positive"):
        packing.SetPackingInstance(universe_size=2, masks=masks_of(((0,),)), r=0)


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
        packing.SetPackingInstance(universe_size=10**12, masks=(1,), r=1)


def test_family_bound_in_constructor():
    # 2^15 sets under a universe of 2^16 sit exactly at the bound; one more is refused.
    count = packing.MAX_FAMILY_BITS // packing.MAX_UNIVERSE
    masks = tuple(range(count))
    assert packing.SetPackingInstance(universe_size=packing.MAX_UNIVERSE, masks=masks, r=1).set_count == count
    with pytest.raises(ValueError, match="above MAX_FAMILY_BITS"):
        packing.SetPackingInstance(universe_size=packing.MAX_UNIVERSE, masks=masks + (count,), r=1)


def test_parse_checks_family_bound_before_set_lines():
    count = packing.MAX_FAMILY_BITS // packing.MAX_UNIVERSE + 1
    with pytest.raises(packing.InstanceFormatError, match="above MAX_FAMILY_BITS"):
        packing.parse_instance(f"p sp {packing.MAX_UNIVERSE} {count} 1\n")


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
    # IDs on both sides of the parser's table of canonical IDs, which ends at 4096.
    assert packing._CACHED_IDS == 4096
    text = "p sp 5000 2 1\ns 3 0 4095 4096\ns 2 4096 4999\n"
    inst = packing.parse_instance(text)
    assert inst.sets == ((0, 4095, 4096), (4096, 4999))
    assert packing.serialize_instance(inst) == text


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
    # A line with two faults reports the first in this order: every field's
    # syntax, then the count, then each ID's range, then strict increase.
    for line, message in (
        ("s 3 1 x", "malformed set line"),
        ("s 2 99 x", "malformed set line"),
        ("s 3 1 2", "declared 3 IDs but found 2"),
        ("s 2 99 3", r"element ID 99 out of range \[0, 10\)"),
        ("s 3 2 1 99", r"element ID 99 out of range \[0, 10\)"),
    ):
        with pytest.raises(packing.InstanceFormatError, match=f"^line 2: {message}$"):
            packing.parse_instance(f"p sp 10 1 1\n{line}\n")


def test_parse_checks_the_set_count_once_the_set_lines_end():
    # A count mismatch alone, with fewer and with more set lines than declared.
    with pytest.raises(packing.InstanceFormatError, match="^header declares 3 sets but found 2 set lines$"):
        packing.parse_instance("p sp 4 3 1\ns 1 0\ns 1 1\n")
    with pytest.raises(packing.InstanceFormatError, match="^header declares 1 sets but found 3 set lines$"):
        packing.parse_instance("p sp 4 1 1\ns 1 0\ns 1 1\ns 1 2\n")
    # Lines beyond the declared count are only counted, not read.
    with pytest.raises(packing.InstanceFormatError, match="^header declares 1 sets but found 3 set lines$"):
        packing.parse_instance("p sp 4 1 1\ns 1 0\ns 1 x\nq\n")
    # A fault in one of the declared lines comes before the count.
    with pytest.raises(packing.InstanceFormatError, match="^line 3: malformed set line$"):
        packing.parse_instance("p sp 4 3 1\ns 1 0\ns 1 x\n")
    # A negative or zero count reads no set line, and every line is counted.
    for text, declared, found in (
        ("p sp 4 -1 1\n", -1, 0),
        ("p sp 4 -1 1\ns 1 0\n", -1, 1),
        ("p sp 4 0 1\ns 1 0\n", 0, 1),
    ):
        with pytest.raises(packing.InstanceFormatError, match=f"^header declares {declared} sets but found {found} set lines$"):
            packing.parse_instance(text)


def _numbered_lines(count, bad):
    """An instance text of count singleton set lines, with line bad made malformed."""
    lines = [f"p sp {count} {count} 1", *(f"s 1 {e}" for e in range(count))]
    lines[bad - 1] = "s 1 x"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_fault_after_a_block_edge_reports_its_line_number(newline):
    text = _numbered_lines(4000, 3002).replace("\n", newline)
    assert text.index("x") > packing._READ_CHARS  # past the first block
    pieces = [text[i : i + 7] for i in range(0, len(text), 7)]  # edges inside "\r\n" too
    for source in (text, [text], pieces, iter(text)):
        with pytest.raises(packing.InstanceFormatError, match="^line 3002: malformed set line$"):
            packing.parse_instance(source)


def test_parse_accepts_noncanonical_ids_and_serializes_them_canonically():
    inst = packing.parse_instance("p sp 300 2 1\ns 2 01 007\ns 3 1 7 0299\n")
    assert inst.sets == ((1, 7), (1, 7, 299))
    assert packing.serialize_instance(inst) == "p sp 300 2 1\ns 2 1 7\ns 3 1 7 299\n"
    # A set-line count spelled other than str(k) is read, not just compared.
    assert packing.parse_instance("p sp 300 1 1\ns 02 1 7\n").sets == ((1, 7),)
    with pytest.raises(packing.InstanceFormatError, match="declared 3 IDs but found 2"):
        packing.parse_instance("p sp 300 1 1\ns 03 1 7\n")


# int() reads each of these as a number that the text does not spell in decimal.
NON_DECIMAL_INTEGERS = ["1_0", "+3", "\u0663", "\uff13", "1" * 5000]


@pytest.mark.parametrize("token", NON_DECIMAL_INTEGERS)
def test_parse_rejects_non_decimal_ids(token):
    with pytest.raises(packing.InstanceFormatError, match="line 2: malformed set line"):
        packing.parse_instance(f"p sp 12 1 1\ns 2 2 {token}\n")
    # Canonical IDs in the parser's ID table do not let another spelling through.
    with pytest.raises(packing.InstanceFormatError, match="line 3: malformed set line"):
        packing.parse_instance(f"p sp 12 2 1\ns 2 3 10\ns 1 {token}\n")


@pytest.mark.parametrize("token", NON_DECIMAL_INTEGERS)
@pytest.mark.parametrize("field", range(3))
def test_parse_rejects_non_decimal_header_fields(token, field):
    head = ["12", "1", "1"]
    head[field] = token
    with pytest.raises(packing.InstanceFormatError, match="malformed header"):
        packing.parse_instance(f"p sp {' '.join(head)}\ns 1 2\n")


def reference_serialize(universe_size, sets, r):
    """The tuple-based serializer the mask-based one must match byte for byte."""
    lines = [f"p sp {universe_size} {len(sets)} {r}"]
    for ids in sets:
        lines.append(" ".join(["s", str(len(ids)), *map(str, ids)]))
    return "\n".join(lines) + "\n"


def _wide_family():
    """300 draws of 5 of IDs 0-15, so that byte columns 0 and 1 hold at least
    256 nonzero bytes (full tables), plus a few IDs from 16-39 (sparse tables)."""
    rng = random.Random(5)
    sets = (
        tuple(sorted({*rng.sample(range(16), 5), *([16 + i % 24] if i % 50 == 0 else [])}))
        for i in range(300)
    )
    return 40, (*dict.fromkeys(sets), (17, 39)), 2


@st.composite
def id_families(draw):
    universe = draw(st.integers(min_value=0, max_value=600))
    ids = st.integers(min_value=0, max_value=max(universe - 1, 0))
    members = st.sets(ids, max_size=min(universe, 40)) if universe else st.just(set())
    family = draw(st.lists(members.map(lambda m: tuple(sorted(m))), max_size=12, unique=True))
    return universe, tuple(family), draw(st.integers(min_value=1, max_value=4))


@given(id_families())
@settings(max_examples=300)
# serialize_instance writes a mask a byte at a time, through a full table for
# a column of at least 256 nonzero bytes and a table of the values that occur
# for any other; id_families draws too few sets for a full table.
@example(_wide_family())
@example((24, ((7, 8), (15, 16), (7, 8, 15, 16), (0, 23), ()), 1))  # IDs on byte edges
@example((13, ((12,), (0, 7, 8, 12), (1, 2, 3)), 1))  # a partial top byte with its top ID set
@example((0, ((),), 1))
@example((0, (), 1))
@example((65536, ((65535,), (0, 8, 65528, 65535), ()), 2))
def test_masks_and_text_match_the_tuples(case):
    universe, family, r = case
    inst = packing.SetPackingInstance(universe, masks_of(family), r)
    assert inst.sets == family
    assert [bin(m).count("1") for m in inst.masks] == [len(ids) for ids in family]
    text = packing.serialize_instance(inst)
    assert text == reference_serialize(universe, family, r)
    assert packing.parse_instance(text) == inst
    # Once more with one set line per written block and one character per read block.
    with mock.patch.multiple(packing, _WRITE_BYTES=1, _READ_CHARS=1):
        assert len(list(packing.instance_blocks(inst))) == 1 + len(family)
        assert packing.serialize_instance(inst) == text
        assert packing.parse_instance(text) == inst


def test_the_wide_family_holds_both_table_kinds():
    universe, family, _ = _wide_family()
    width = (universe + 7) // 8
    rows = b"".join(m.to_bytes(width, "little") for m in masks_of(family))
    nonzero = [len(rows[j::width]) - rows[j::width].count(0) for j in range(width)]
    assert min(nonzero[:2]) >= 256 and max(nonzero[2:]) < 256


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serialize_memory_stays_bounded_at_max_universe():
    # Two sets over the largest universe: full tables for all 8192 byte
    # columns would take about 165 MB; with tables of only the values that
    # occur, the whole call peaks near 9.5 MB.
    inst = packing.SetPackingInstance(packing.MAX_UNIVERSE, (1, (1 << packing.MAX_UNIVERSE) - 1), 1)
    text, peak = _traced_peak(packing.serialize_instance, inst)
    assert text == reference_serialize(packing.MAX_UNIVERSE, ((0,), tuple(range(packing.MAX_UNIVERSE))), 1)
    assert peak < 16 << 20


def _size_of_ints(ints):
    return sys.getsizeof(ints) + sum(map(sys.getsizeof, ints))


def _random_family(count=6000, universe=160):
    """About count distinct sets of about a quarter of a 160-ID universe."""
    rng = random.Random(3)
    masks = {rng.getrandbits(universe) & rng.getrandbits(universe) for _ in range(count)}
    return packing.SetPackingInstance(universe, tuple(sorted(masks)), 2)


# The bounds below sit between the peaks measured before and after the
# instance path went to blocks (text and rows as in each test):
# parse beyond its masks 2.33x the text before, 0.93x after (most of that is
# the constructor's duplicate check); serialize 3.45x the text before, 2.00x
# after (the blocks and their join); the transpose beyond its result 16x the
# rows before, 4.0x after, 3.7x with the columns from _byte_columns (most of
# it one slice's rows, half of this family), and 0.43x with each slice's rows
# grown in one bytearray instead of joined from per-set bytes objects (the
# bound was 8x the rows before that). instance_blocks up to its first
# set-line block peaked at 8.1x the rows when it joined every set's row
# before slicing out its byte columns, and at 4.9x (the columns and their
# tables) with the columns from _byte_columns.


def test_parse_holds_a_block_of_lines_not_the_whole_text():
    text = packing.serialize_instance(_random_family())
    parsed, peak = _traced_peak(packing.parse_instance, text)
    assert packing.serialize_instance(parsed) == text
    beyond_masks = peak - _size_of_ints(parsed.masks)
    assert beyond_masks < 1.5 * len(text)


def test_parse_holds_one_full_width_line_as_small_ints():
    # A set of every ID of the largest universe, plus {0}: 382 KB of text.
    # Holding one big int per ID of that line peaked at 295 MB, and reading
    # it with one decimal match of the joined line at 20 MB (most of it the
    # match's backtracking stack); its IDs as small ints peak near 9 MB.
    full = (1 << packing.MAX_UNIVERSE) - 1
    text = reference_serialize(packing.MAX_UNIVERSE, (tuple(range(packing.MAX_UNIVERSE)), (0,)), 1)
    parsed, peak = _traced_peak(packing.parse_instance, text)
    assert parsed.masks == (full, 1)
    assert peak < 16 << 20


def test_serialize_peaks_at_the_blocks_and_their_join():
    inst = _random_family()
    text, peak = _traced_peak(packing.serialize_instance, inst)
    assert peak < 2.5 * len(text)


def test_the_writer_holds_its_columns_not_every_row_before_its_first_set_line():
    inst = _random_family()
    rows = inst.set_count * 20

    def first_set_lines(inst):
        blocks = packing.instance_blocks(inst)
        return next(blocks) + next(blocks)

    text, peak = _traced_peak(first_set_lines, inst)
    assert packing.serialize_instance(inst).startswith(text) and text.count("\n") > 1
    assert peak < 6.5 * rows


def test_transpose_works_a_slice_of_rows_at_a_time():
    inst = _random_family()
    rows = inst.set_count * 20
    assert rows > packing._TRANSPOSE_BYTES  # two slices
    occ, peak = _traced_peak(packing._occurrence_masks, inst.masks, inst.universe_size)
    assert occ == [sum(1 << i for i, m in enumerate(inst.masks) if m >> e & 1) for e in range(160)]
    beyond_result = peak - _size_of_ints(occ)
    assert beyond_result < rows


def test_blocks_give_the_whole_text_on_the_n20_row(tmp_path):
    # The n=20, r=5 row of 49,096 sets: the blocks written to a file and read
    # back in blocks that end mid-line give the whole-string text and masks.
    inst, _ = reduce_to_packing(bench.make_formula(20, 40, 7, True), 5, dull_width=0)
    blocks = list(packing.instance_blocks(inst))
    text = "".join(blocks)
    assert text == reference_serialize(inst.universe_size, inst.sets, inst.r)
    # At most 48 characters of IDs per mask byte, and a head per line.
    assert max(map(len, blocks[1:])) <= 56 * packing._WRITE_BYTES
    path = tmp_path / "row.sp"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(packing.instance_blocks(inst))
    assert path.read_text(encoding="utf-8") == text
    with open(path, encoding="utf-8") as fh:
        read = packing.parse_instance(iter(lambda: fh.read(4093), ""))
    assert read.masks == packing.parse_instance(text).masks == inst.masks


@given(id_families())
@settings(max_examples=200)
def test_occurrence_masks_transpose_the_family(case):
    universe, family, r = case
    inst = packing.SetPackingInstance(universe, masks_of(family), r)
    expected = [sum(1 << i for i, ids in enumerate(family) if e in ids) for e in range(universe)]
    assert packing._occurrence_masks(inst.masks, universe) == expected
    # A slice of one set each, so a family of two or more spans as many slices.
    with mock.patch.object(packing, "_TRANSPOSE_BYTES", 1):
        assert packing._occurrence_masks(inst.masks, universe) == expected


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


def test_solve_pigeonhole_bound_on_r():
    # Of r disjoint sets at most one is empty, so r <= universe_size + 1.
    sets = [(), (0,), (1,), (0, 1)]
    result = packing.solve_exact(packing.SetPackingInstance(2, masks_of(sets), 3))
    assert result.verdict == "yes" and result.packing == (0, 1, 2)
    result = packing.solve_exact(packing.SetPackingInstance(2, masks_of(sets), 4))
    assert result.verdict == "no" and result.nodes == 0


def test_solve_packing_deeper_than_the_recursion_limit():
    inst = packing.SetPackingInstance(1200, tuple(1 << e for e in range(1200)), 1200)
    result = packing.solve_exact(inst)
    assert result.verdict == "yes" and result.nodes == 1200
    assert result.packing == tuple(range(1200))


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
    return packing.SetPackingInstance(universe_size=universe, masks=masks_of(sorted(sets)), r=r)


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


@given(small_instances())
@settings(max_examples=300)
def test_solver_matches_reference_dfs(inst):
    expected = reference_solve(inst)
    result = packing.solve_exact(inst)
    assert (result.verdict, result.packing) == (expected.verdict, expected.packing)


def test_solver_matches_reference_dfs_on_reductions():
    # 952 reductions, random ones at m = 5n mostly unsatisfiable. Where the
    # reference decides within its budget (all but a few), verdict and first
    # packing must agree; the solver itself must decide every case.
    compared = decided = 0
    for n in range(5, 11):
        for m in (2 * n, 5 * n):
            for seed in range(3 if n < 9 else 1):
                for planted in (False, True):
                    formula = bench.make_formula(n, m, seed, planted)
                    for r in range(1, 6):
                        for dull_width in (0, 1, 3, None) if r > 1 else (0,):
                            inst, witness = reduce_to_packing(formula, r, dull_width=dull_width)
                            result = packing.solve_exact(inst)
                            assert result.verdict != "budget"
                            if result.verdict == "yes":
                                assert packing.verify_packing(inst, result.packing).ok
                                assert cnf.evaluate(formula, lift_packing_to_assignment(witness, list(result.packing)))
                            expected = reference_solve(inst, budget=200_000)
                            compared += 1
                            if expected.verdict != "budget":
                                decided += 1
                                assert (result.verdict, result.packing) == (expected.verdict, expected.packing)
    assert compared >= 500
    assert decided >= 0.9 * compared


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


def test_verify_refuses_bool_indices():
    inst = make_instance([{0, 1}, {2, 3}, {1, 2}], r=2)
    result = packing.verify_packing(inst, [True, False])
    assert not result.ok and result.reason == "non-integer index True"


# -- compactness audit -----------------------------------------------------------

def test_audit_two_wide_fixture():
    inst, wit = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    report = packing.audit_compactness(inst, wit)
    assert report.universe_size == 16 and report.set_count == 14
    assert report.ratio == pytest.approx(0.5253, abs=1e-4)
    assert (report.grid_width, report.iss_width, report.dull_width) == (6, 10, 0)


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
        check_witness(inst, other)


def test_audit_rejects_witness_of_another_r():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    _, other = reduce_to_packing(PHI_TWO_WIDE, 1, dull_width=0)
    with pytest.raises(ValueError, match="witness r 1 does not match instance r 2"):
        check_witness(inst, other)


def test_audit_log2():
    inst, _ = reduce_to_packing(PHI_TWO_WIDE, 2, dull_width=0)
    report = packing.audit_compactness(inst)
    assert report.log2_set_count == pytest.approx(math.log2(14))
