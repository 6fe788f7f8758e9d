from __future__ import annotations

import json
import random

import pytest

from cspack import bench, cnf, packing, reduction


def strip_timing(csv_text: str) -> list[str]:
    out = []
    for line in csv_text.splitlines():
        cols = line.split(",")
        out.append(",".join(cols[:6] + cols[8:]))
    return out


def test_r_rule_log2():
    assert bench.r_for(6, "log2") == 3
    assert bench.r_for(9, "log2") == 4
    assert bench.r_for(12, "log2") == 4
    assert bench.r_for(8, "log2") == 3
    assert bench.r_for(5, 2) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=())
    with pytest.raises(ValueError, match="need n >= 3 to draw 3 distinct variables per clause, got 2"):
        bench.SweepConfig(n_values=(6, 2))
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(6,), r_rule="cubed")
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(6,), padding="lots")
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(6,), instances=0)
    for r in (0, -1):
        with pytest.raises(ValueError, match=f"fixed r must be positive, got {r}"):
            bench.SweepConfig(n_values=(6,), r_rule=r)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget must be positive"):
            bench.SweepConfig(n_values=(6,), budget=budget)
    assert bench.SweepConfig(n_values=(6, 29)).n_values == (6, 29)


def test_load_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"n_values": [6, 9], "r_rule": "log2", "instances": 2, "seed": 3}))
    config = bench.load_sweep_config(str(path))
    assert config.n_values == (6, 9)
    assert config.instances == 2
    path.write_text(json.dumps({"r_rule": 2}))
    with pytest.raises(ValueError, match="sweep config must list n_values"):
        bench.load_sweep_config(str(path))


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"n_values": [6], "typo": 1}))
    with pytest.raises(ValueError, match="unknown"):
        bench.load_sweep_config(str(path))


def test_sweep_row_count_and_agreement():
    config = bench.SweepConfig(n_values=(6,), r_rule=2, instances=5, seed=42, density=2.0)
    rows = bench.run_sweep(config)
    assert len(rows) == 5
    for row in rows:
        assert row.n == 6 and row.m == 12 and row.r == 2
        assert row.verdict in ("yes", "no", "budget")
        if row.verdict != "budget":
            assert (row.verdict == "yes") == (row.oracle_verdict == "sat")


def test_sweep_planted_rows_are_sat():
    config = bench.SweepConfig(n_values=(6, 8), r_rule=2, instances=3, seed=7,
                               density=2.0, planted=True)
    rows = bench.run_sweep(config)
    assert len(rows) == 6
    assert all(row.oracle_verdict == "sat" for row in rows)
    assert all(row.verdict == "yes" for row in rows)


def test_sweep_stops_when_the_oracle_outruns_its_work_cap(monkeypatch):
    # Every row is judged: the first row whose oracle search passes the cap
    # raises the oracle's ValueError, and the sweep returns no rows.
    monkeypatch.setattr(bench.cnf, "ORACLE_WORK_CAP", 0)
    with pytest.raises(ValueError, match="^oracle search visited more than ORACLE_WORK_CAP = 0 clauses$"):
        bench.run_sweep(bench.SweepConfig(n_values=(6, 8), r_rule=2, instances=2, seed=1, density=1.0))


def test_csv_deterministic_outside_timing():
    config = bench.SweepConfig(n_values=(5, 6), r_rule=2, instances=3, seed=9, density=2.5)
    first = bench.rows_to_csv(bench.run_sweep(config))
    second = bench.rows_to_csv(bench.run_sweep(config))
    assert strip_timing(first) == strip_timing(second)
    header = first.splitlines()[0]
    assert header == ",".join(bench.CSV_COLUMNS)


def test_csv_text_pinned_outside_timing():
    config = bench.SweepConfig(n_values=(5, 7), r_rule=2, instances=3, seed=9, density=4.0,
                               padding="default")
    lines = bench.rows_to_csv(bench.run_sweep(config)).splitlines()
    for i in range(1, len(lines)):
        cols = lines[i].split(",")
        cols[6] = cols[7] = ""  # reduce_time and solve_time
        lines[i] = ",".join(cols)
    assert lines == [
        "n,m,r,universe_size,set_count,log2_set_count,reduce_time,solve_time,solver_nodes,verdict,oracle_verdict",
        "5,20,2,18,20,4.321928,,,19,no,unsat",
        "5,20,2,18,20,4.321928,,,19,no,unsat",
        "5,20,2,20,22,4.459432,,,2,yes,sat",
        "7,28,2,22,36,5.169925,,,7,yes,sat",
        "7,28,2,24,31,4.954196,,,2,yes,sat",
        "7,28,2,26,41,5.357552,,,10,yes,sat",
    ]


def test_padding_modes():
    def row(padding):
        config = bench.SweepConfig(n_values=(5,), r_rule=2, instances=1, seed=0, density=1.0, padding=padding)
        return bench.run_sweep(config)[0]

    assert bench.SweepConfig(n_values=(5,)).padding == 0
    no_pad, padded, default = row(0), row(2), row("default")
    assert padded.set_count == no_pad.set_count + 4
    assert padded.universe_size == no_pad.universe_size + 2
    assert padded.verdict == no_pad.verdict
    assert default.universe_size == no_pad.universe_size + reduction.default_dull_width(5, 2)
    with pytest.raises(ValueError, match="padding other than 'default' must be an integer, got 'none'"):
        bench.SweepConfig(n_values=(5,), padding="none")


def test_make_formula_refuses_oversize_inputs_before_drawing(monkeypatch):
    monkeypatch.setattr(bench.random, "Random", None)  # any draw would raise TypeError
    for planted in (False, True):
        with pytest.raises(ValueError, match="exceeds MAX_UNIVERSE"):
            bench.make_formula(packing.MAX_UNIVERSE + 1, 1, 0, planted)
        for m in (-1, bench.MAX_CLAUSES + 1):
            with pytest.raises(ValueError, match=f"MAX_CLAUSES = {bench.MAX_CLAUSES}], got {m}"):
                bench.make_formula(20, m, 0, planted)
    # A sweep refuses an n that make_formula refuses, with its message, before
    # density * n is formed: 3.0 * 10**400 would overflow a float.
    for n in (packing.MAX_UNIVERSE + 1, 10**400):
        with pytest.raises(ValueError, match=f"^n = {n} exceeds MAX_UNIVERSE = {packing.MAX_UNIVERSE}, so no r"):
            bench.SweepConfig(n_values=(3, n))
    with pytest.raises(ValueError, match="above MAX_CLAUSES"):
        bench.SweepConfig(n_values=(4, 3), density=(bench.MAX_CLAUSES + 1) / 4)
    # The largest row at the bounds is accepted: int(density * n) = MAX_CLAUSES.
    n = packing.MAX_UNIVERSE
    bench.SweepConfig(n_values=(4, n), density=(bench.MAX_CLAUSES + 0.5) / n)


def reference_gen_random_3cnf(n, m, seed, planted=None):
    """A copy of the former cnf.gen_random_3cnf, which make_formula called before it drew clauses itself."""
    if n < 3:
        raise ValueError(f"need n >= 3 to draw 3 distinct variables per clause, got {n}")
    if m < 0:
        raise ValueError(f"clause count must be nonnegative, got {m}")
    if planted is not None and set(planted) != set(range(1, n + 1)):
        raise ValueError("planted assignment must be total over variables 1..n")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        while True:
            variables = rng.sample(range(1, n + 1), 3)
            clause = tuple(v if rng.getrandbits(1) else -v for v in variables)
            if planted is None or any(planted[abs(lit)] == (lit > 0) for lit in clause):
                break
        clauses.append(clause)
    return cnf.CnfFormula(num_vars=n, clauses=tuple(clauses))


def reference_make_formula(n, m, seed, planted):
    """A copy of the former make_formula."""
    if not planted:
        return reference_gen_random_3cnf(n, m, seed)
    rng = random.Random(seed)
    alpha = {v: bool(rng.getrandbits(1)) for v in range(1, n + 1)}
    return reference_gen_random_3cnf(n, m, rng.randrange(2**62), planted=alpha)


def test_make_formula_matches_the_two_generator_reference():
    grid = [(n, m, seed, planted) for n in (3, 5, 12, 16, 30) for m in (0, 1, 24, 69)
            for seed in range(40) for planted in (False, True)]
    assert len(grid) == 1600
    for args in grid:
        assert cnf.to_dimacs(bench.make_formula(*args)) == cnf.to_dimacs(reference_make_formula(*args)), args


def test_sweep_aborts_on_disagreement(monkeypatch):
    # force the oracle to lie so the cross-check must trip
    monkeypatch.setattr(bench.cnf, "brute_force_sat", lambda f: None)
    config = bench.SweepConfig(n_values=(6,), r_rule=2, instances=3, seed=7,
                               density=2.0, planted=True)
    with pytest.raises(RuntimeError, match="packing verdict yes but oracle says unsat"):
        bench.run_sweep(config)


def test_roundtrip_row_budget_is_inconclusive():
    formula = bench.make_formula(8, 16, 3, False)
    row = bench.run_roundtrip_row(formula, 2, dull_width=0, budget=1)
    # The row is written unjudged: the oracle still judges the formula, and its verdict says budget.
    assert (row.verdict, row.oracle_verdict) == ("budget", "sat")
