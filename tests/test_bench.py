from __future__ import annotations

import json

import pytest

from cspack import bench, cnf


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
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(2,))
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(6,), r_rule="cubed")
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(6,), padding="lots")
    with pytest.raises(ValueError):
        bench.SweepConfig(n_values=(6,), instances=0)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget must be positive"):
            bench.SweepConfig(n_values=(6,), budget=budget)
    with pytest.raises(ValueError, match="oracle_cap must be nonnegative, got -3"):
        bench.SweepConfig(n_values=(6,), oracle_cap=-3)


def test_load_config(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"n_values": [6, 9], "r_rule": "log2", "instances": 2, "seed": 3}))
    config = bench.load_sweep_config(str(path))
    assert config.n_values == (6, 9)
    assert config.instances == 2


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
            assert row.agreement == "agree"
            assert (row.verdict == "yes") == (row.oracle_verdict == "sat")


def test_sweep_planted_rows_are_sat():
    config = bench.SweepConfig(n_values=(6, 8), r_rule=2, instances=3, seed=7,
                               density=2.0, planted=True)
    rows = bench.run_sweep(config)
    assert len(rows) == 6
    assert all(row.oracle_verdict == "sat" for row in rows)
    assert all(row.verdict == "yes" for row in rows)


def test_sweep_skips_oracle_above_cap():
    config = bench.SweepConfig(n_values=(8,), r_rule=2, instances=2, seed=1,
                               density=1.0, oracle_cap=6)
    rows = bench.run_sweep(config)
    assert all(row.oracle_verdict == "skip" and row.agreement == "na" for row in rows)


def test_csv_deterministic_outside_timing():
    config = bench.SweepConfig(n_values=(5, 6), r_rule=2, instances=3, seed=9, density=2.5)
    first = bench.rows_to_csv(bench.run_sweep(config))
    second = bench.rows_to_csv(bench.run_sweep(config))
    assert strip_timing(first) == strip_timing(second)
    header = first.splitlines()[0]
    assert header == ",".join(bench.CSV_COLUMNS)


def test_csv_text_pinned_outside_timing():
    config = bench.SweepConfig(n_values=(5, 7), r_rule=2, instances=3, seed=9, density=4.0,
                               padding="default", oracle_cap=6)
    lines = bench.rows_to_csv(bench.run_sweep(config)).splitlines()
    for i in range(1, len(lines)):
        cols = lines[i].split(",")
        cols[6] = cols[7] = ""  # reduce_time and solve_time
        lines[i] = ",".join(cols)
    assert lines == [
        "n,m,r,universe_size,set_count,log2_set_count,reduce_time,solve_time,solver_nodes,verdict,oracle_verdict,agreement",
        "5,20,2,33,26,4.700440,,,25,no,unsat,agree",
        "5,20,2,33,25,4.643856,,,24,no,unsat,agree",
        "5,20,2,33,23,4.523562,,,2,yes,sat,agree",
        "7,28,2,45,46,5.523562,,,6,yes,skip,na",
        "7,28,2,45,56,5.807355,,,3,yes,skip,na",
        "7,28,2,46,56,5.807355,,,6,yes,skip,na",
    ]


def test_padding_modes():
    assert bench.dull_width_arg("none") == 0
    assert bench.dull_width_arg("default") is None
    assert bench.dull_width_arg(3) == 3
    config = bench.SweepConfig(n_values=(5,), r_rule=2, instances=1, seed=0,
                               density=1.0, padding=2)
    row = bench.run_sweep(config)[0]
    no_pad = bench.run_sweep(bench.SweepConfig(
        n_values=(5,), r_rule=2, instances=1, seed=0, density=1.0, padding="none"))[0]
    assert row.set_count == no_pad.set_count + 4
    assert row.universe_size == no_pad.universe_size + 2
    assert row.verdict == no_pad.verdict


def test_sweep_aborts_on_disagreement(monkeypatch):
    # force the oracle to lie so the cross-check must trip
    monkeypatch.setattr(bench.cnf, "brute_force_sat", lambda f, cap=24: None)
    config = bench.SweepConfig(n_values=(6,), r_rule=2, instances=3, seed=7,
                               density=2.0, planted=True)
    with pytest.raises(bench.SweepDisagreement):
        bench.run_sweep(config)


def test_roundtrip_row_budget_is_inconclusive():
    formula = cnf.gen_random_3cnf(8, 16, seed=3)
    row = bench.run_roundtrip_row(formula, 2, dull_width=0, budget=1, oracle_cap=24)
    assert row.verdict == "budget"
    assert row.agreement == "na"
