from __future__ import annotations

import random
import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cspack import bench, cnf


def formula_strategy(max_vars: int = 6, max_clauses: int = 8, clauses_per_var: int | None = None):
    """Formulas over 1..max_vars variables with up to max_clauses clauses, or
    up to clauses_per_var * n when that is given. Besides clauses of 1-3 drawn
    literals, some clauses repeat a literal and some hold a literal and its
    complement."""
    def build(nvars):
        var_ids = st.integers(min_value=1, max_value=nvars)
        lit = st.builds(lambda v, sign: v if sign else -v, var_ids, st.booleans())
        clause = st.one_of(
            st.lists(lit, min_size=1, max_size=3).map(tuple),
            st.tuples(lit, lit).map(lambda p: (p[0], p[1], p[0])),
            st.tuples(lit, lit).map(lambda p: (p[0], p[1], -p[0])),
        )
        most = max_clauses if clauses_per_var is None else clauses_per_var * nvars
        clauses = st.lists(clause, min_size=0, max_size=most).map(tuple)
        return clauses.map(lambda cs: cnf.CnfFormula(num_vars=nvars, clauses=cs))

    return st.integers(min_value=1, max_value=max_vars).flatmap(build)


def all_total_assignments(n: int):
    """Every total assignment, in encoding order (variable 1 = most significant bit)."""
    for bits in product([False, True], repeat=n):
        yield {v: bits[v - 1] for v in range(1, n + 1)}


def satisfies(clauses, alpha) -> bool:
    return all(any(alpha[abs(l)] == (l > 0) for l in c) for c in clauses)


def assignment_from_code(num_vars: int, code: int) -> dict[int, bool]:
    """Decode a total assignment from its binary encoding (variable 1 is the most significant bit)."""
    return {v: bool((code >> (num_vars - v)) & 1) for v in range(1, num_vars + 1)}


def reference_sat(formula):
    """The scalar oracle: test every clause on one assignment at a time, in encoding order."""
    n = formula.num_vars
    clause_masks = []
    for clause in formula.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            bit = 1 << (n - abs(lit))
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        clause_masks.append((pos, neg))
    # A clause is falsified iff all its positive vars are 0 and all its negated vars are 1.
    for code in range(1 << n):
        for pos, neg in clause_masks:
            if not (code & pos) and (code & neg) == neg:
                break
        else:
            return assignment_from_code(n, code)
    return None


# -- parsing ---------------------------------------------------------------

def test_parse_basic():
    f = cnf.parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
    assert f.num_vars == 2
    assert f.clauses == ((1, 2), (-1,))


def test_parse_skips_comments():
    f = cnf.parse_dimacs("c note\np cnf 1 1\n1 0\n")
    assert f.num_vars == 1
    assert f.clauses == ((1,),)


def test_parse_clause_spanning_lines():
    f = cnf.parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert f.clauses == ((1, 2, 3),)


def test_parse_variable_out_of_range():
    with pytest.raises(cnf.DimacsError, match="^clause 0: literal 3 out of range for n=2$"):
        cnf.parse_dimacs("p cnf 2 1\n1 2 3 0\n")


def test_parse_rejects_wide_clause():
    with pytest.raises(cnf.DimacsError, match=r"^clause 0 has 4 literals, expected 1\.\.3$"):
        cnf.parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


def test_parse_rejects_empty_clause():
    with pytest.raises(cnf.DimacsError, match=r"^clause 1 has 0 literals, expected 1\.\.3$"):
        cnf.parse_dimacs("p cnf 2 2\n1 0\n0\n")


def test_parse_rejects_bad_header():
    with pytest.raises(cnf.DimacsError, match="header"):
        cnf.parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(cnf.DimacsError, match="header"):
        cnf.parse_dimacs("1 2 0\n")


def test_parse_rejects_clause_count_mismatch():
    with pytest.raises(cnf.DimacsError, match="declares 2 clauses"):
        cnf.parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(cnf.DimacsError, match="declares 1 clauses"):
        cnf.parse_dimacs("p cnf 2 1\n1 0\n2 0\n")


def test_parse_rejects_unterminated_clause():
    with pytest.raises(cnf.DimacsError, match="zero-terminated"):
        cnf.parse_dimacs("p cnf 2 1\n1 2\n")
    # The grammar is checked before CnfFormula checks the literals.
    with pytest.raises(cnf.DimacsError, match="^final clause is not zero-terminated$"):
        cnf.parse_dimacs("p cnf 2 1\n3 1\n")


# int() reads each of these as a number that the text does not spell in DIMACS.
NON_DIMACS_INTEGERS = ["1_0", "+2", "-\u0663", "\u0663", "\uff13", "1" * 5000]


@pytest.mark.parametrize("token", NON_DIMACS_INTEGERS)
def test_parse_rejects_non_dimacs_literal(token):
    with pytest.raises(cnf.DimacsError, match="non-integer token"):
        cnf.parse_dimacs(f"p cnf 10 1\n{token} 1 0\n")


# The integer rule as a pattern: the reference for read_int's character checks.
DECIMAL = re.compile(r"-?[0-9]+")


@given(st.lists(st.sampled_from([
    "0", "7", "-1", "007", "--1", "+4", "1_0", "\u0663", "", " ", "1 2", " 3", "4\n",
    "-", "-0", "1-2", "\u00b2", "\uff13",
]), min_size=1, max_size=4).map("".join))
@settings(max_examples=300)
def test_read_int_accepts_what_the_decimal_pattern_matches(token):
    # read_int accepts exactly the tokens -?[0-9]+ matches in full, with the
    # value int() gives them, and refuses every other one with its message.
    if DECIMAL.fullmatch(token):
        assert cnf.read_int(token) == int(token)
    else:
        with pytest.raises(ValueError, match="^not an ASCII decimal integer: "):
            cnf.read_int(token)


@pytest.mark.parametrize("token", NON_DIMACS_INTEGERS)
def test_parse_rejects_non_dimacs_header_field(token):
    with pytest.raises(cnf.DimacsError, match="header"):
        cnf.parse_dimacs(f"p cnf {token} 1\n1 0\n")
    with pytest.raises(cnf.DimacsError, match="header"):
        cnf.parse_dimacs(f"p cnf 3 {token}\n1 0\n")


@given(formula_strategy())
@settings(max_examples=100)
def test_dimacs_round_trip(formula):
    assert cnf.parse_dimacs(cnf.to_dimacs(formula)) == formula


def test_serialize_round_trip_on_text():
    text = "p cnf 2 2\n1 2 0\n-1 0\n"
    assert cnf.to_dimacs(cnf.parse_dimacs(text)) == text


# -- formula invariants ----------------------------------------------------

def test_formula_rejects_bad_literals():
    with pytest.raises(ValueError):
        cnf.CnfFormula(num_vars=2, clauses=((3,),))
    with pytest.raises(ValueError):
        cnf.CnfFormula(num_vars=2, clauses=((0,),))
    with pytest.raises(ValueError):
        cnf.CnfFormula(num_vars=2, clauses=((1, 2, 1, 2),))
    with pytest.raises(ValueError):
        cnf.CnfFormula(num_vars=0, clauses=())


# -- evaluation ------------------------------------------------------------

def test_evaluate_simple():
    f = cnf.CnfFormula(num_vars=2, clauses=((1, 2),))
    assert cnf.evaluate(f, {1: False, 2: True}) is True


def test_evaluate_contradiction():
    f = cnf.CnfFormula(num_vars=1, clauses=((1,), (-1,)))
    assert cnf.evaluate(f, {1: True}) is False
    assert cnf.evaluate(f, {1: False}) is False


def test_evaluate_empty_clause_list():
    f = cnf.CnfFormula(num_vars=2, clauses=())
    assert cnf.evaluate(f, {}) is True


def test_evaluate_unassigned_variable():
    f = cnf.CnfFormula(num_vars=2, clauses=((1, 2),))
    with pytest.raises(ValueError, match="unassigned"):
        cnf.evaluate(f, {1: True})


def test_evaluate_tautological_clause():
    f = cnf.CnfFormula(num_vars=2, clauses=((1, -1, 2),))
    for alpha in all_total_assignments(2):
        assert cnf.evaluate(f, alpha) is True


# -- brute-force oracle ----------------------------------------------------

def test_oracle_unsat():
    f = cnf.CnfFormula(num_vars=1, clauses=((1,), (-1,)))
    assert cnf.brute_force_sat(f) is None
    all_signs = tuple((a, 2 * b, 3 * c) for a in (1, -1) for b in (1, -1) for c in (1, -1))
    assert cnf.brute_force_sat(cnf.CnfFormula(num_vars=3, clauses=all_signs)) is None


def test_oracle_n1():
    assert cnf.brute_force_sat(cnf.CnfFormula(num_vars=1, clauses=())) == {1: False}
    assert cnf.brute_force_sat(cnf.CnfFormula(num_vars=1, clauses=((-1,),))) == {1: False}
    assert cnf.brute_force_sat(cnf.CnfFormula(num_vars=1, clauses=((1,),))) == {1: True}
    assert cnf.brute_force_sat(cnf.CnfFormula(num_vars=1, clauses=((1, -1),))) == {1: False}


@pytest.mark.parametrize("n", [2, 7, 20, 21, 24, 28])
def test_oracle_model_at_first_and_last_code(n):
    # All-negative units: only code 0; all-positive units: only code 2^n - 1.
    negative = cnf.CnfFormula(num_vars=n, clauses=tuple((-v,) for v in range(1, n + 1)))
    assert cnf.brute_force_sat(negative) == {v: False for v in range(1, n + 1)}
    positive = cnf.CnfFormula(num_vars=n, clauses=tuple((v,) for v in range(1, n + 1)))
    assert cnf.brute_force_sat(positive) == {v: True for v in range(1, n + 1)}


def test_oracle_returns_minimal_encoding():
    # Independent check: the first satisfying assignment in encoding order
    # over (x1, x2, x3) is x1=0, x2=0, x3=1.
    clauses = ((1, 2, 3), (-1, -2, -3))
    expected = None
    for alpha in all_total_assignments(3):
        if satisfies(clauses, alpha):
            expected = alpha
            break
    assert expected == {1: False, 2: False, 3: True}
    f = cnf.CnfFormula(num_vars=3, clauses=clauses)
    assert cnf.brute_force_sat(f) == expected


def test_oracle_empty_formula_all_false():
    f = cnf.CnfFormula(num_vars=2, clauses=())
    assert cnf.brute_force_sat(f) == {1: False, 2: False}


def test_oracle_cap(monkeypatch):
    # x4 and x5 admit no values, and x1..x3 are free, so each of the 8
    # prefixes of x1..x3 visits the 4 clauses of the core: 2 with x4 false
    # and 2 with x4 true. The work is counted in clause visits, not in n.
    f = cnf.CnfFormula(num_vars=5, clauses=((4, 5), (4, -5), (-4, 5), (-4, -5)))
    assert cnf.brute_force_sat(f) is None
    monkeypatch.setattr(cnf, "ORACLE_WORK_CAP", 32)
    assert cnf.brute_force_sat(f) is None
    monkeypatch.setattr(cnf, "ORACLE_WORK_CAP", 31)
    with pytest.raises(ValueError, match="^oracle search visited more than ORACLE_WORK_CAP = 31 clauses$"):
        cnf.brute_force_sat(f)


@given(formula_strategy(max_vars=8, max_clauses=24))
@settings(max_examples=150)
def test_oracle_agrees_with_enumeration(formula):
    witnesses = [a for a in all_total_assignments(formula.num_vars)
                 if satisfies(formula.clauses, a)]
    result = cnf.brute_force_sat(formula)
    if witnesses:
        assert result == witnesses[0]
        assert cnf.evaluate(formula, result) is True
    else:
        assert result is None


def near_threshold_strategy():
    """make_formula formulas with 3 <= n <= 16 and m within 3 of 4.26n, the
    hardest density for random 3-SAT, each with up to three extra unit or
    binary clauses."""
    def build(n):
        lit = st.builds(lambda v, sign: v if sign else -v, st.integers(1, n), st.booleans())
        extra = st.lists(st.lists(lit, min_size=1, max_size=2).map(tuple), max_size=3)
        drawn = st.builds(bench.make_formula, st.just(n), st.integers(-3, 3).map(lambda d: round(4.26 * n) + d),
                          st.integers(0, 2**32), st.just(False))
        return st.builds(lambda f, more: cnf.CnfFormula(n, f.clauses + tuple(more)), drawn, extra)

    return st.integers(min_value=3, max_value=16).flatmap(build)


# x1, the most significant code bit, must be true, and x22 false: the least
# model lies past the first half of the 2^22 codes.
@example(cnf.CnfFormula(num_vars=22, clauses=((1,), (-22,), (2, 3))))
@given(st.one_of(formula_strategy(max_vars=12, clauses_per_var=5), near_threshold_strategy()))
@settings(max_examples=300, deadline=None)
def test_oracle_agrees_with_reference(formula):
    assert cnf.brute_force_sat(formula) == reference_sat(formula)


# -- random generation (bench.make_formula) ---------------------------------

def drawn_assignment(n, seed):
    """The assignment make_formula plants: n bits drawn first from Random(seed)."""
    rng = random.Random(seed)
    return {v: bool(rng.getrandbits(1)) for v in range(1, n + 1)}


def test_gen_shape_and_determinism():
    f = bench.make_formula(5, 10, 7, False)
    assert f.num_vars == 5 and f.num_clauses == 10
    for clause in f.clauses:
        assert len(clause) == 3
        assert len({abs(l) for l in clause}) == 3
    assert bench.make_formula(5, 10, 7, False) == f
    assert bench.make_formula(5, 10, 8, False) != f


def test_gen_planted_is_satisfied():
    f = bench.make_formula(5, 10, 7, True)
    assert cnf.evaluate(f, drawn_assignment(5, 7)) is True


def test_gen_planted_random_assignments():
    planted = set()
    for seed in range(20):
        alpha = drawn_assignment(5, seed)
        assert cnf.evaluate(bench.make_formula(5, 12, seed, True), alpha) is True
        planted.add(tuple(alpha.values()))
    assert len(planted) > 1


def test_gen_rejects_small_n():
    with pytest.raises(ValueError, match="need n >= 3"):
        bench.make_formula(2, 5, 0, False)
