from __future__ import annotations

import json

import pytest

from cspack import bench, cli, packing, reduction
from cspack.cnf import gen_random_3cnf, parse_dimacs, to_dimacs

PHI1 = "p cnf 1 2\n1 0\n-1 0\n"
PHI2 = "p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def test_gen_cnf_writes_file(tmp_path, capsys):
    out = tmp_path / "f.cnf"
    rc = cli.main(["gen-cnf", "--n", "5", "--m", "10", "--seed", "3", "--output", str(out)])
    assert rc == 0
    formula = parse_dimacs(out.read_text())
    assert formula.num_vars == 5 and formula.num_clauses == 10


def test_gen_cnf_planted_deterministic(tmp_path):
    a = tmp_path / "a.cnf"
    b = tmp_path / "b.cnf"
    assert cli.main(["gen-cnf", "--n", "6", "--m", "9", "--seed", "4", "--planted", "--output", str(a)]) == 0
    assert cli.main(["gen-cnf", "--n", "6", "--m", "9", "--seed", "4", "--planted", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_cnf_prints_make_formula(capsys):
    for planted in (False, True):
        argv = ["gen-cnf", "--n", "7", "--m", "12", "--seed", "9"] + (["--planted"] if planted else [])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == to_dimacs(bench.make_formula(7, 12, 9, planted))


def test_reduce_writes_instance_and_witness(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi1.cnf", PHI1)
    out = tmp_path / "phi1.sp"
    rc = cli.main(["reduce", cnf_path, "--r", "2", "--no-pad", "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == "p sp 6 2 2"
    inst = packing.parse_instance(text)
    wit = reduction.witness_from_text((tmp_path / "phi1.sp.wit").read_text())
    assert inst.universe_size == wit.layout.universe_size
    printed = capsys.readouterr().out
    assert "universe 6" in printed and "core 2" in printed


def test_reduce_reparse_matches_in_memory(tmp_path):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    assert cli.main(["reduce", cnf_path, "--r", "2", "--pad", "2", "--output", str(out)]) == 0
    formula = parse_dimacs(PHI2)
    inst, _ = reduction.reduce_to_packing(formula, 2, dull_width=2)
    assert packing.parse_instance(out.read_text()) == inst


@pytest.mark.parametrize("m, warning", [
    (24, ""),  # m = 8n is within the bound
    (30, "warning: density m/n = 10.00 exceeds bound 8\n"),
], ids=["at-bound", "above-bound"])
def test_reduce_density_warning(tmp_path, capsys, m, warning):
    cnf_path = write(tmp_path / "dense.cnf", f"p cnf 3 {m}\n" + "1 2 3 0\n" * m)
    assert cli.main(["reduce", cnf_path, "--r", "2", "--no-pad", "--output", str(tmp_path / "x.sp")]) == 0
    assert capsys.readouterr().err == warning


def test_reduce_r1_with_padding_fails(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    rc = cli.main(["reduce", cnf_path, "--r", "1", "--pad", "1", "--output", str(tmp_path / "x.sp")])
    assert rc == 1
    assert "padding requires r >= 2" in capsys.readouterr().err


def test_universe_above_bound_exits_1(tmp_path, capsys):
    r = 8
    n = packing.MAX_UNIVERSE // (r * r) + 1
    cnf_path = write(tmp_path / "wide.cnf", f"p cnf {n} 1\n1 2 3 0\n")
    out = tmp_path / "wide.sp"
    assert cli.main(["reduce", cnf_path, "--r", str(r), "--no-pad", "--output", str(out)]) == 1
    assert "MAX_UNIVERSE" in capsys.readouterr().err
    assert not out.exists()
    huge = write(tmp_path / "huge.sp", "p sp 99999999999999 1 1\ns 1 999999999999\n")
    assert cli.main(["solve", huge]) == 1
    assert "MAX_UNIVERSE" in capsys.readouterr().err


def test_missing_input_file(tmp_path, capsys):
    rc = cli.main(["reduce", str(tmp_path / "nope.cnf"), "--r", "2", "--output", str(tmp_path / "x.sp")])
    assert rc == 1
    assert "nope.cnf" in capsys.readouterr().err


def test_solve_and_verify(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--no-pad", "--output", str(out)])
    capsys.readouterr()

    rc = cli.main(["solve", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "verdict yes" in printed
    indices = printed.splitlines()[1].split()[1:]

    rc = cli.main(["verify", str(out), *indices])
    assert rc == 0
    assert "valid" in capsys.readouterr().out

    rc = cli.main(["verify", str(out), indices[0], indices[0]])
    assert rc == 2
    assert "duplicate" in capsys.readouterr().out


def test_solve_budget_exit_code(tmp_path, capsys):
    gen = tmp_path / "g.cnf"
    cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--output", str(gen)])
    out = tmp_path / "g.sp"
    cli.main(["reduce", str(gen), "--r", "2", "--no-pad", "--output", str(out)])
    capsys.readouterr()
    rc = cli.main(["solve", str(out), "--budget", "1"])
    assert rc == 3
    assert "verdict budget" in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonpositive_budget_exits_1(tmp_path, capsys, budget):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--no-pad", "--output", str(out)])
    capsys.readouterr()
    for argv in (["solve", str(out)], ["roundtrip", cnf_path, "--r", "2", "--no-pad"]):
        assert cli.main([*argv, "--budget", budget]) == 1
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert captured.err == f"cspack: node budget must be positive, got {budget}\n"


def test_roundtrip_unsat_agrees(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi1.cnf", PHI1)
    rc = cli.main(["roundtrip", cnf_path, "--r", "2", "--no-pad"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "packing verdict: no" in printed
    assert "oracle verdict:  unsat" in printed
    assert "AGREE" in printed


def test_roundtrip_sat_agrees(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    rc = cli.main(["roundtrip", cnf_path, "--r", "2"])
    assert rc == 0
    assert "AGREE" in capsys.readouterr().out


def test_roundtrip_planted_instance(tmp_path, capsys):
    gen = tmp_path / "g.cnf"
    cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--planted", "--output", str(gen)])
    rc = cli.main(["roundtrip", str(gen), "--r", "2", "--no-pad"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "packing verdict: yes" in printed and "AGREE" in printed


def test_roundtrip_budget_inconclusive(tmp_path, capsys):
    gen = tmp_path / "g.cnf"
    cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--output", str(gen)])
    rc = cli.main(["roundtrip", str(gen), "--r", "2", "--no-pad", "--budget", "1"])
    assert rc == 3
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_audit_with_witness(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--no-pad", "--output", str(out)])
    capsys.readouterr()
    rc = cli.main(["audit", str(out), "--witness", str(out) + ".wit"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ratio" in printed and "breakdown: grid 12 iss 10 dull 0" in printed


def test_audit_refuses_witness_of_another_r(tmp_path, capsys):
    cnf_path = write(tmp_path / "f.cnf", to_dimacs(gen_random_3cnf(6, 8, seed=1)))
    out = tmp_path / "f.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--no-pad", "--output", str(out)])
    assert "universe 39 " in capsys.readouterr().out
    # One group of 72 sets over 30 variables: universe 30 + 9 = 39 and 72
    # sets, like the r = 2 instance, whose grid is 6 * 2^2 = 24.
    codes = "".join(f"{code:07b}\n" for code in range(72))
    wit = write(tmp_path / "r1.wit", "w 30 1 0\ng 72 1 2 3 4 5 6 7\n" + codes)
    assert cli.main(["audit", str(out), "--witness", wit]) == 1
    captured = capsys.readouterr()
    assert "breakdown" not in captured.out
    assert captured.err == "cspack: witness r 1 does not match instance r 2\n"


def test_bench_writes_csv(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "n_values": [6, 9, 12],
        "r_rule": "log2",
        "instances": 2,
        "seed": 11,
        "density": 2.0,
        "padding": "none",
    }))
    out = tmp_path / "rows.csv"
    rc = cli.main(["bench", str(config), "--output", str(out)])
    assert rc in (0, 3)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,m,r,")
    assert len(lines) == 1 + 6
    rs = [int(line.split(",")[2]) for line in lines[1:]]
    assert rs == [3, 3, 4, 4, 4, 4]


def test_bench_bad_config(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"n_values": []}))
    rc = cli.main(["bench", str(config)])
    assert rc == 1


@pytest.mark.parametrize("config", [
    {"n_values": 5},
    {"n_values": [6.0]},
    {"n_values": [6], "instances": "3"},
    {"n_values": [6], "seed": None},
    {"n_values": [6], "density": None},
    {"n_values": [6], "density": float("inf")},
    {"n_values": [6], "density": float("nan")},
    {"n_values": [6], "r_rule": 2.5},
    {"n_values": [6], "r_rule": True},
    {"n_values": [6], "padding": True},
    {"n_values": [6], "planted": "yes"},
    {"n_values": [6], "budget": 0},
    [1, 2],
])
def test_bench_config_type_errors(tmp_path, capsys, config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert cli.main(["bench", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cspack: ") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce"])  # missing required args
    assert exc.value.code == 1
