from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspack import cnf


def formula_strategy(max_vars: int = 6, max_clauses: int = 8):
    def build(nvars):
        var_ids = st.integers(min_value=1, max_value=nvars)
        lit = st.builds(lambda v, sign: v if sign else -v, var_ids, st.booleans())
        clause = st.lists(lit, min_size=1, max_size=3).map(tuple)
        clauses = st.lists(clause, min_size=0, max_size=max_clauses).map(tuple)
        return clauses.map(lambda cs: cnf.CnfFormula(num_vars=nvars, clauses=cs))

    return st.integers(min_value=1, max_value=max_vars).flatmap(build)


def all_total_assignments(n: int):
    """Every total assignment, in encoding order (variable 1 = most significant bit)."""
    for bits in product([False, True], repeat=n):
        yield {v: bits[v - 1] for v in range(1, n + 1)}


def satisfies(clauses, alpha) -> bool:
    return all(any(alpha[abs(l)] == (l > 0) for l in c) for c in clauses)


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
    with pytest.raises(cnf.DimacsError, match="out of range"):
        cnf.parse_dimacs("p cnf 2 1\n1 2 3 0\n")


def test_parse_rejects_wide_clause():
    with pytest.raises(cnf.DimacsError, match="limit is 3"):
        cnf.parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")


def test_parse_rejects_empty_clause():
    with pytest.raises(cnf.DimacsError, match="empty"):
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


def test_oracle_cap():
    f = cnf.CnfFormula(num_vars=5, clauses=((1,),))
    with pytest.raises(ValueError, match="cap"):
        cnf.brute_force_sat(f, cap=4)


@given(formula_strategy(max_vars=5, max_clauses=10))
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


# -- random generation -----------------------------------------------------

def test_gen_shape_and_determinism():
    f = cnf.gen_random_3cnf(5, 10, seed=7)
    assert f.num_vars == 5 and f.num_clauses == 10
    for clause in f.clauses:
        assert len(clause) == 3
        assert len({abs(l) for l in clause}) == 3
    assert cnf.gen_random_3cnf(5, 10, seed=7) == f
    assert cnf.gen_random_3cnf(5, 10, seed=8) != f


def test_gen_planted_is_satisfied():
    planted = {v: True for v in range(1, 6)}
    f = cnf.gen_random_3cnf(5, 10, seed=7, planted=planted)
    assert cnf.evaluate(f, planted) is True


def test_gen_planted_random_assignments():
    for seed in range(20):
        planted = {v: bool((seed >> (v - 1)) & 1) for v in range(1, 6)}
        f = cnf.gen_random_3cnf(5, 12, seed=seed, planted=planted)
        assert cnf.evaluate(f, planted) is True


def test_gen_rejects_small_n():
    with pytest.raises(ValueError):
        cnf.gen_random_3cnf(2, 5, seed=0)


def test_gen_rejects_partial_planted():
    with pytest.raises(ValueError, match="total"):
        cnf.gen_random_3cnf(4, 5, seed=0, planted={1: True})
