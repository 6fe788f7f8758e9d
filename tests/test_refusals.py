"""Inputs the reduction must refuse or finish quickly, instances the solver
must decide within its default budget, and formulas the SAT oracle must
decide or refuse under its default work cap, each run in a child process.

A regression to scanning all 2^|domain| codes of a group, or to an oracle
that tests one assignment at a time or searches without a bound on its work,
would make these cases run for minutes to hours or exhaust memory. The child
has a wall-clock timeout and an address-space limit, so such a regression
fails the test in seconds instead of stalling or killing the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cspack
from cspack import bench, cnf

TIMEOUT_S = 30
MEMORY_LIMIT = 1 << 30
SRC = str(Path(cspack.__file__).resolve().parent.parent)

PRELUDE = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT}))
from cspack import bench, cnf, packing, reduction
"""


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def run_python(code: str) -> str:
    done = run_child(["-c", PRELUDE + code])
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dense_planted_formula_refused_under_default_cap(tmp_path):
    # Uncapped, this family has 1,136,482 sets: 1,070,946 core sets in its
    # four groups and 2^16 padding sets (the default width at n = 40, r = 4).
    out = run_python(
        "try:\n"
        "    reduction.reduce_to_packing(bench.make_formula(40, 80, 0, True), 4)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert f"MAX_SETS = {1 << 20}" in out
    path = tmp_path / "dense.cnf"
    path.write_text(cnf.to_dimacs(bench.make_formula(40, 80, 0, True)))
    done = run_child(["-m", "cspack", "reduce", str(path), "--r", "4", "--output", str(tmp_path / "dense.sp")])
    assert done.returncode == 1
    assert "MAX_SETS" in done.stderr
    assert not (tmp_path / "dense.sp").exists()


def test_oversize_grid_refused_before_enumeration():
    # 1200 variables, each in all 8 groups: a grid of 1200 * 8 * 7 = 67,200
    # IDs. Each group holds 400 disjoint clauses, 7^400 sets uncapped.
    out = run_python(
        "clauses = tuple(t for k in range(400) for t in [(3 * k + 1, 3 * k + 2, 3 * k + 3)] * 8)\n"
        "try:\n"
        "    reduction.reduce_to_packing(cnf.CnfFormula(num_vars=1200, clauses=clauses), 8)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert "exceeds MAX_UNIVERSE" in out


# 14 disjoint 3-clauses over x1..x42, whose 7^14 prefixes all satisfy them.
DISJOINT = "tuple((3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(14))"


def test_contradictory_unit_clauses_past_a_wide_prefix_give_no_sets():
    out = run_python(
        f"f = cnf.CnfFormula(num_vars=45, clauses={DISJOINT} + ((45,), (-45,)))\n"
        "inst, wit = reduction.reduce_to_packing(f, 1)\n"
        "print(inst.set_count, wit.codes)\n"
    )
    assert out.split() == ["0", "((),)"]


def test_contradictory_low_clauses_past_a_wide_prefix_give_no_sets():
    # x44 and x45 admit no value, which the table of the low variables shows
    # before any prefix of x1..x28 is searched. In the second core, x28 false
    # leaves x44 no value, so probing at the root forces x28 true, which
    # leaves x45 none.
    out = run_python(
        "for core in (((44, 45), (44, -45), (-44, 45), (-44, -45)), ((28, 44), (28, -44), (-28, 45), (-28, -45))):\n"
        f"    f = cnf.CnfFormula(num_vars=45, clauses={DISJOINT} + core)\n"
        "    inst, wit = reduction.reduce_to_packing(f, 1)\n"
        "    print(inst.set_count, wit.codes)\n"
    )
    assert out.split() == ["0", "((),)"] * 2


def test_search_that_outruns_the_allowance_is_refused():
    # No unit clause, but the low clauses make x44 false, and then no values
    # of x27 and x28, the last two searched variables, satisfy the core. Each
    # of its clauses holds two searched literals, which probing a single
    # literal at the root cannot see, so without a work bound every prefix of
    # x1..x27 would be extended.
    out = run_python(
        "core = tuple((a, b, 44) for a in (27, -27) for b in (28, -28)) + ((-44, 45), (-44, -45))\n"
        f"f = cnf.CnfFormula(num_vars=45, clauses={DISJOINT} + core)\n"
        "try:\n"
        "    reduction.reduce_to_packing(f, 1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert f"MAX_SETS = {1 << 20}: group 0: search visited more than" in out


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """The command line in a child under the same address-space limit."""
    return run_child(["-c", PRELUDE + f"from cspack import cli\nraise SystemExit(cli.main({args!r}))\n"])


def test_instance_header_above_the_family_bound_is_refused(tmp_path):
    # 40k two-element sets under a universe of 2^16: 2.6e9 mask bits, which
    # the parser would hold and the solver transpose.
    path = tmp_path / "wide.sp"
    lines = ["p sp 65536 40000 2"] + [f"s 2 {i} 65535" for i in range(40000)]
    path.write_text("\n".join(lines) + "\n")
    done = run_cli(["solve", str(path)])
    assert done.returncode == 1, done.stderr
    assert "above MAX_FAMILY_BITS" in done.stderr


def test_reduction_above_the_family_bound_is_refused(tmp_path):
    # r = 8 groups, each of the unit clauses (x1) ... (x1100) and five disjoint
    # clauses over fifteen fresh variables: 8 * 7^5 sets over a grid of
    # 1100 * 8 * 7 IDs, 8.3e9 mask bits.
    units = tuple((v,) for v in range(1, 1101) for _ in range(8))
    clauses = units + tuple((1100 + 3 * i + 1, 1100 + 3 * i + 2, 1100 + 3 * i + 3) for i in range(40))
    path = tmp_path / "wide.cnf"
    path.write_text(cnf.to_dimacs(cnf.CnfFormula(num_vars=1220, clauses=clauses)))
    done = run_cli(["reduce", str(path), "--r", "8", "--pad", "0", "--output", str(tmp_path / "wide.sp")])
    assert done.returncode == 1, done.stderr
    assert "134456 sets over a universe of 61736" in done.stderr
    assert not (tmp_path / "wide.sp").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "20", "--m", "30000000"],
        ["--n", "300000000", "--m", "1", "--planted"],
    ],
)
def test_oversize_formula_is_refused_before_drawing(argv):
    # Drawn, 3e7 clauses or 3e8 planted values would exhaust the address space.
    done = run_cli(["gen-cnf", *argv])
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("cspack: ") and done.stderr.count("\n") == 1, done.stderr
    assert done.stdout == ""


def test_deep_domain_of_unit_clauses_gives_one_set():
    out = run_python(
        "f = cnf.CnfFormula(num_vars=1500, clauses=tuple((v,) for v in range(1, 1501)))\n"
        "inst, wit = reduction.reduce_to_packing(f, 1)\n"
        "print(inst.set_count, len(wit.domains[0]), wit.codes[0] == ((1 << 1500) - 1,))\n"
    )
    assert out.split() == ["1", "1500", "True"]


# (clauses, codes of the one group at r = 1) of implication chains over
# x1..x5000, each link forcing the next:
# - up: (x1), (not x1 or x2), ..., (not x4999 or x5000);
# - down: the same chain forced from (x5000) down;
# - probed: (x1), then (not xv or xv+1 or y) and (not xv or xv+1 or not y)
#   with y = x5001, a low variable left free: no clause becomes a unit, and
#   only probing forces the next link;
# - shrinking: up, where each link also holds (not xv or ya or yb), for the
#   pairs of the 16 low variables x5001..x5016 in turn, so the forced chain
#   shrinks the root 120 times; the literals are rechecked once the
#   worklist drains, not on each shrink.
# On a 2-core Xeon, up and down reduce in about 0.1 s, and probed and
# shrinking in 0.2 s (shrinking took 1.0-1.3 s when every shrink rechecked
# every literal). Propagation that rewrites and re-files the group until
# nothing new is forced takes one round per link, and ran past 60 s on the
# same machine.
CHAINS = {
    "up": ("((1,),) + tuple((-v, v + 1) for v in range(1, 5000))", "((1 << 5000) - 1,)"),
    "down": ("((5000,),) + tuple((v, -(v + 1)) for v in range(4999, 0, -1))", "((1 << 5000) - 1,)"),
    "probed": (
        "((1,),) + tuple((-v, v + 1, y) for v in range(1, 5000) for y in (5001, -5001))",
        "((1 << 5001) - 2, (1 << 5001) - 1)",
    ),
    "shrinking": (
        "((1,),) + tuple(c for v, (a, b) in zip(range(1, 5000), cycle(combinations(range(5001, 5017), 2)))"
        " for c in ((-v, v + 1), (-v, a, b)))",
        "tuple(sorted((1 << 5016) - 1 - bit for bit in (0, *(1 << i for i in range(16)))))",
    ),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_implication_chain_propagates_in_linear_time(chain):
    clauses, codes = CHAINS[chain]
    out = run_python(
        "from itertools import combinations, cycle\n"
        f"clauses = {clauses}\n"
        "f = cnf.CnfFormula(num_vars=max(abs(lit) for clause in clauses for lit in clause), clauses=clauses)\n"
        "inst, wit = reduction.reduce_to_packing(f, 1)\n"
        f"print(wit.codes[0] == {codes})\n"
    )
    assert out.split() == ["True"]


@pytest.mark.parametrize(
    "n, m, seed, planted, r, dull_width, verdict",
    [
        (14, 60, 5, False, 4, 4, "no"),
        (14, 60, 6, False, 4, 4, "no"),
        (20, 40, 7, True, 5, 0, "yes"),
    ],
)
def test_solver_decides_rows_within_default_budget(n, m, seed, planted, r, dull_width, verdict):
    # A plain ordered DFS spends its whole budget on each of these rows.
    out = run_python(
        f"f = bench.make_formula({n}, {m}, {seed}, {planted})\n"
        f"inst, wit = reduction.reduce_to_packing(f, {r}, dull_width={dull_width})\n"
        "res = packing.solve_exact(inst, budget=packing.DEFAULT_NODE_BUDGET)\n"
        "lifted = res.verdict == 'yes' and packing.verify_packing(inst, res.packing).ok and "
        "cnf.evaluate(f, reduction.lift_packing_to_assignment(wit, list(res.packing)))\n"
        "print(res.verdict, lifted, res.nodes)\n"
    )
    assert out.split()[:2] == [verdict, str(verdict == "yes")]


@pytest.mark.parametrize(
    "formula",
    [
        "bench.make_formula(28, 140, 3, False)",
        "cnf.CnfFormula(28, ((28,), (-28,)))",
        # No assignment falsifies a tautology, so an oracle that tests one
        # assignment at a time checks all 58 clauses on each of 2^28 codes.
        "cnf.CnfFormula(28, tuple((v, -v) for v in range(1, 29)) * 2 + ((28,), (-28,)))",
    ],
)
def test_oracle_scans_unsat_formulas_at_the_default_cap(formula):
    out = run_python(
        f"f = {formula}\n"
        "print(cnf.brute_force_sat(f))\n"
    )
    assert out.split() == ["None"]


# x27 and x28 admit no values, but no clause on them is a unit, so each of
# the 8,646,064 assignments of x1..x26 that the chain (xv or xv+1 or xv+2)
# allows is extended to x27 before it fails. Uncapped, the search returns
# None after 34 s, past the child's timeout; under the default cap it stops
# in about 1.2 s (2-core Xeon). At r = 1 the reduction finds no sets at
# once, so the round trip reaches the oracle.
CORE_AND_CHAIN = cnf.CnfFormula(
    28, tuple((v, v + 1, v + 2) for v in range(1, 25)) + ((27, 28), (27, -28), (-27, 28), (-27, -28))
)


def test_oracle_search_past_the_default_cap_is_refused(tmp_path):
    message = f"oracle search visited more than ORACLE_WORK_CAP = {cnf.ORACLE_WORK_CAP} clauses"
    out = run_python(
        f"f = cnf.parse_dimacs({cnf.to_dimacs(CORE_AND_CHAIN)!r})\n"
        "try:\n"
        "    cnf.brute_force_sat(f)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert out == message + "\n"
    path = tmp_path / "core.cnf"
    path.write_text(cnf.to_dimacs(CORE_AND_CHAIN))
    done = run_cli(["roundtrip", str(path), "--r", "1", "--pad", "0"])
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"cspack: {message}\n"
    assert done.stdout == ""
