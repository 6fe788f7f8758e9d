from __future__ import annotations

import json

import pytest

from cspack import bench, cli, packing, reduction
from cspack.cnf import parse_dimacs, to_dimacs

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
    rc = cli.main(["reduce", cnf_path, "--r", "2", "--pad", "0", "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == "p sp 4 2 2"
    inst = packing.parse_instance(text)
    wit = reduction.witness_from_text((tmp_path / "phi1.sp.wit").read_text())
    assert inst.universe_size == wit.universe_size
    printed = capsys.readouterr().out
    assert "universe 4" in printed and "core 2" in printed
    assert printed.endswith(f"wrote instance to {out}, witness to {out}.wit\n")
    # The witness always goes next to the instance: there is no option to move it.
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", cnf_path, "--r", "2", "--output", str(out), "--witness", "x"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: cspack reduce ") and err.endswith("cspack reduce: error: unrecognized arguments: --witness x\n")


@pytest.mark.parametrize("argv", [
    ["gen-cnf", "--n", "5", "--m", "3", "--bogus"],
    ["reduce", "f.cnf", "--bogus", "--r", "2", "--output", "f.sp"],
    ["solve", "f.sp", "--bogus", "1"],
    ["verify", "f.sp", "0", "--bogus"],
    ["roundtrip", "f.cnf", "--r", "2", "--bogus"],
    ["audit", "f.sp", "--bogus"],
    ["bench", "sweep.json", "--bogus"],
])
def test_an_unknown_option_is_refused_with_its_subcommands_usage(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # no file is read or written
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    extras = " ".join(argv[argv.index("--bogus"):]) if argv[0] == "solve" else "--bogus"
    assert captured.err.startswith(f"usage: cspack {argv[0]} ")
    assert captured.err.endswith(f"cspack {argv[0]}: error: unrecognized arguments: {extras}\n")
    assert captured.out == "" and not list(tmp_path.iterdir())


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
    assert cli.main(["reduce", cnf_path, "--r", "2", "--pad", "0", "--output", str(tmp_path / "x.sp")]) == 0
    assert capsys.readouterr().err == warning


def test_reduce_r1_with_padding_fails(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    rc = cli.main(["reduce", cnf_path, "--r", "1", "--pad", "1", "--output", str(tmp_path / "x.sp")])
    assert rc == 1
    assert "padding requires r >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "roundtrip"])
def test_no_pad_flag_is_refused(tmp_path, capsys, command):
    # --pad 0 is the one spelling of "no padding".
    out = tmp_path / "x.sp"
    argv = [command, write(tmp_path / "phi2.cnf", PHI2), "--r", "2", "--no-pad"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + (["--output", str(out)] if command == "reduce" else []))
    assert exc.value.code == 1
    assert "unrecognized arguments: --no-pad" in capsys.readouterr().err
    assert not out.exists()


def test_universe_above_bound_exits_1(tmp_path, capsys):
    # 1200 variables, each in all 8 groups: a grid of 1200 * 8 * 7 = 67,200 IDs.
    clauses = "".join(f"{3 * k + 1} {3 * k + 2} {3 * k + 3} 0\n" * 8 for k in range(400))
    cnf_path = write(tmp_path / "wide.cnf", f"p cnf 1200 3200\n{clauses}")
    out = tmp_path / "wide.sp"
    assert cli.main(["reduce", cnf_path, "--r", "8", "--pad", "0", "--output", str(out)]) == 1
    message = "the grid plus 0 dull IDs exceeds MAX_UNIVERSE = 65536: 65538 IDs once 3123 of 3200 clauses are grouped"
    assert f"cspack: {message}\n" in capsys.readouterr().err
    assert not out.exists()
    # Two copies of each triple up to (x1171 x1172 x1173): a grid of 65,526
    # IDs, which leaves room for 10 dull IDs, not 11. The split refuses 11.
    clauses = "".join(f"{3 * k + 1} {3 * k + 2} {3 * k + 3} 0\n" * (8 if k < 390 else 2) for k in range(391))
    cnf_path = write(tmp_path / "wide.cnf", f"p cnf 1200 3122\n{clauses}")
    assert cli.main(["reduce", cnf_path, "--r", "8", "--pad", "11", "--output", str(out)]) == 1
    message = "the grid plus 11 dull IDs exceeds MAX_UNIVERSE = 65536: 65537 IDs once 3122 of 3122 clauses are grouped"
    assert f"cspack: {message}\n" in capsys.readouterr().err
    assert not out.exists()
    # More variables than the bound, with a grid of none.
    cnf_path = write(tmp_path / "many.cnf", "p cnf 1000000000 1\n1 2 3 0\n")
    assert cli.main(["reduce", cnf_path, "--r", "1", "--output", str(out)]) == 1
    assert "got n = 1000000000, r = 1" in capsys.readouterr().err
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
    cli.main(["reduce", cnf_path, "--r", "2", "--pad", "0", "--output", str(out)])
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


def test_instance_files_are_read_in_blocks(tmp_path, capsys, monkeypatch):
    # Blocks of 5 characters end mid-line and mid-"\r\n"; solve, verify and
    # audit see the instance, and a fault's line number, of the whole file.
    monkeypatch.setattr(packing, "_READ_CHARS", 5)
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    assert cli.main(["reduce", cnf_path, "--r", "2", "--pad", "2", "--output", str(out)]) == 0
    text = out.read_text()
    inst, _ = reduction.reduce_to_packing(parse_dimacs(PHI2), 2, dull_width=2)
    assert text == packing.serialize_instance(inst)
    out.write_bytes(text.replace("\n", "\r\n").encode())
    capsys.readouterr()
    result = packing.solve_exact(inst)
    assert cli.main(["solve", str(out)]) == 0
    assert capsys.readouterr().out == f"verdict yes nodes {result.nodes}\npacking {' '.join(map(str, result.packing))}\n"
    assert cli.main(["audit", str(out), "--witness", str(out) + ".wit"]) == 0
    assert f"sets {inst.set_count}" in capsys.readouterr().out
    lines = text.splitlines()
    lines[-2] = "s 1 x"
    out.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", str(out), "0", "1"]) == 1
    assert capsys.readouterr().err == f"cspack: line {len(lines) - 1}: malformed set line\n"


def test_a_decode_error_gives_its_position_in_the_file(tmp_path, capsys, monkeypatch):
    # The bad byte lies well past the first block read, and the file's
    # position of it is reported, not its position in that block.
    data = ("p sp 20001 20002 1\n" + "".join(f"s 1 {e}\n" for e in range(20001))).encode()
    path = tmp_path / "bad.sp"
    path.write_bytes(data + b"\xff\n")
    assert len(data) > 2 * packing._READ_CHARS
    assert cli.main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == f"cspack: 'utf-8' codec can't decode byte 0xff in position {len(data)}: invalid start byte\n"
    # In 5-byte blocks a "€" across bytes 18-20 decodes, and a sequence
    # begun at byte 24 and broken in the next block, or cut off by the end
    # of the file, is placed at its first byte.
    monkeypatch.setattr(packing, "_READ_CHARS", 5)
    head = "p sp 1 1 1\ns 1 0\na€bcd".encode()
    assert len(head) == 24
    for tail, reason in ((b"\xe2\x82(\n", "invalid continuation byte"), (b"\xe2\x82", "unexpected end of data")):
        path.write_bytes(head + tail)
        assert cli.main(["verify", str(path), "0"]) == 1
        assert capsys.readouterr().err == f"cspack: 'utf-8' codec can't decode byte 0xe2 in position {len(head)}: {reason}\n"


def test_solve_packing_deeper_than_the_recursion_limit(tmp_path, capsys):
    inst = packing.SetPackingInstance(1200, tuple(1 << e for e in range(1200)), 1200)
    path = write(tmp_path / "singletons.sp", packing.serialize_instance(inst))
    assert cli.main(["solve", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "verdict yes nodes 1200"


def test_solve_budget_exit_code(tmp_path, capsys):
    gen = tmp_path / "g.cnf"
    cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--output", str(gen)])
    out = tmp_path / "g.sp"
    cli.main(["reduce", str(gen), "--r", "2", "--pad", "0", "--output", str(out)])
    capsys.readouterr()
    rc = cli.main(["solve", str(out), "--budget", "1"])
    assert rc == 3
    assert "verdict budget" in capsys.readouterr().out


def test_solve_no_exits_0(tmp_path, capsys):
    # Both sets hold element 0, so no two of them are disjoint: "no" is a verdict, not a failure.
    path = write(tmp_path / "clash.sp", "p sp 2 2 2\ns 1 0\ns 2 0 1\n")
    assert cli.main(["solve", path]) == 0
    assert capsys.readouterr().out == "verdict no nodes 1\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonpositive_budget_exits_1(tmp_path, capsys, budget):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--pad", "0", "--output", str(out)])
    capsys.readouterr()
    for argv in (["solve", str(out)], ["roundtrip", cnf_path, "--r", "2", "--pad", "0"]):
        assert cli.main([*argv, "--budget", budget]) == 1
        captured = capsys.readouterr()
        assert "verdict" not in captured.out
        assert captured.err == f"cspack: node budget must be positive, got {budget}\n"


def test_roundtrip_unsat_agrees(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi1.cnf", PHI1)
    rc = cli.main(["roundtrip", cnf_path, "--r", "2", "--pad", "0"])
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
    rc = cli.main(["roundtrip", str(gen), "--r", "2", "--pad", "0"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "packing verdict: yes" in printed and "AGREE" in printed


def _no_lowering(witness, assignment):
    raise ValueError("assignment does not satisfy clause group 0 (restriction code 0)")


@pytest.mark.parametrize(
    "lowered, error",
    [
        (lambda witness, assignment: [0, 0], "lowered oracle model is not a valid packing: duplicate index 0"),
        (_no_lowering, "oracle model does not lower to a packing: assignment does not satisfy clause group 0"),
    ],
)
def test_roundtrip_checks_the_lowered_oracle_model(tmp_path, capsys, monkeypatch, lowered, error):
    # Every satisfying assignment lowers to a verified packing: a lowering
    # that returns a wrong packing, or refuses the oracle's model, is a
    # correctness bug, exit 2, not AGREE.
    calls = []

    def wrong_lowering(witness, assignment):
        calls.append(assignment)
        return lowered(witness, assignment)

    monkeypatch.setattr(bench, "lower_assignment_to_packing", wrong_lowering)
    cnf_path = write(tmp_path / "f.cnf", "p cnf 3 2\n1 2 0\n-1 3 0\n")
    assert cli.main(["roundtrip", cnf_path, "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert "AGREE" not in captured.out
    assert captured.err.startswith(f"cspack: {error}")
    assert calls == [{1: False, 2: True, 3: False}]


@pytest.mark.parametrize("stage, broken, error", [
    ("solve_exact", lambda instance, budget: packing.SolveResult("yes", (0, 0), 1),
     "solver returned an invalid packing: duplicate index 0"),
    ("lift_packing_to_assignment", lambda witness, indices: {1: False, 2: False, 3: False},
     "lifted assignment does not satisfy the formula"),
], ids=["verify", "lift"])
def test_roundtrip_checks_the_found_packing(tmp_path, capsys, monkeypatch, stage, broken, error):
    # A packing that does not verify, or whose lift falsifies (x1 or x2), is
    # a correctness bug: exit 2 with one "cspack:" line, before the oracle runs.
    def no_oracle(formula):
        raise AssertionError("the oracle ran after a failed check")

    monkeypatch.setattr(bench, stage, broken)
    monkeypatch.setattr(bench.cnf, "brute_force_sat", no_oracle)
    cnf_path = write(tmp_path / "f.cnf", "p cnf 3 2\n1 2 0\n-1 3 0\n")
    assert cli.main(["roundtrip", cnf_path, "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cspack: {error}\n"


def test_roundtrip_budget_inconclusive(tmp_path, capsys):
    gen = tmp_path / "g.cnf"
    cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--output", str(gen)])
    rc = cli.main(["roundtrip", str(gen), "--r", "2", "--pad", "0", "--budget", "1"])
    assert rc == 3
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_roundtrip_strict_oracle_cap(tmp_path, capsys, monkeypatch):
    # An oracle search past its work cap leaves the verdict unjudged: exit 1
    # with one "cspack:" line, no verdict printed and no CSV written.
    monkeypatch.setattr(bench.cnf, "ORACLE_WORK_CAP", 4)
    cnf_path = write(tmp_path / "f.cnf", to_dimacs(bench.make_formula(8, 8, 3, False)))
    assert cli.main(["roundtrip", cnf_path, "--r", "2", "--pad", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cspack: oracle search visited more than ORACLE_WORK_CAP = 4 clauses\n"
    config = write(tmp_path / "sweep.json", json.dumps({"n_values": [8], "density": 1.0, "seed": 3}))
    out = tmp_path / "rows.csv"
    assert cli.main(["bench", config, "--output", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cspack: oracle search visited more than ORACLE_WORK_CAP = 4 clauses\n"


def test_a_contradicted_verdict_fails_like_every_check(tmp_path, capsys, monkeypatch):
    # A verdict the oracle contradicts is a correctness bug like a packing
    # that fails to verify: exit 2 with one "cspack:" line, no AGREE, no CSV.
    monkeypatch.setattr(bench.cnf, "brute_force_sat", lambda formula: None)
    cnf_path = write(tmp_path / "f.cnf", "p cnf 3 2\n1 2 0\n-1 3 0\n")
    assert cli.main(["roundtrip", cnf_path, "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert "AGREE" not in captured.out
    assert captured.err == "cspack: n=3 m=2 r=2: packing verdict yes but oracle says unsat\n"
    config = write(tmp_path / "sweep.json", json.dumps(
        {"n_values": [6], "instances": 2, "seed": 7, "density": 2.0, "planted": True}))
    out = tmp_path / "rows.csv"
    assert cli.main(["bench", config, "--output", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cspack: n=6 m=12 r=2: packing verdict yes but oracle says unsat\n"


def test_a_formula_the_reduction_refuses_never_reaches_the_oracle(tmp_path, capsys, monkeypatch):
    # The oracle runs last, so a refused reduction costs no oracle search.
    def no_oracle(formula):
        raise AssertionError("the oracle ran on a formula the reduction refuses")

    monkeypatch.setattr(bench.cnf, "brute_force_sat", no_oracle)
    monkeypatch.setattr(reduction, "MAX_SETS", 4)
    cnf_path = write(tmp_path / "f.cnf", to_dimacs(bench.make_formula(8, 8, 3, False)))
    assert cli.main(["roundtrip", cnf_path, "--r", "2", "--pad", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cspack: family refused under MAX_SETS = 4: group 0: ")
    assert captured.err.count("\n") == 1


def test_audit_with_witness(tmp_path, capsys):
    cnf_path = write(tmp_path / "phi2.cnf", PHI2)
    out = tmp_path / "phi2.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--pad", "0", "--output", str(out)])
    capsys.readouterr()
    rc = cli.main(["audit", str(out), "--witness", str(out) + ".wit"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ratio" in printed and "breakdown: grid 6 iss 10 dull 0" in printed


def test_reduce_and_audit_print_the_quick_start_breakdown(tmp_path, capsys):
    # The README's quick start: default padding at r = 2.
    cnf_path = str(tmp_path / "f.cnf")
    out = str(tmp_path / "f.sp")
    assert cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--planted", "--output", cnf_path]) == 0
    capsys.readouterr()
    assert cli.main(["reduce", cnf_path, "--r", "2", "--output", out]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "universe 32 = grid 12 + iss 16 (widths 9 7) + dull 4",
        "sets 126 = core 110 (per group: 92 18) + padding 16",
    ]
    assert cli.main(["audit", out, "--witness", out + ".wit"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "breakdown: grid 12 iss 16 dull 4"


def test_audit_refuses_witness_of_another_r(tmp_path, capsys):
    cnf_path = write(tmp_path / "f.cnf", to_dimacs(bench.make_formula(6, 8, 54, False)))
    out = tmp_path / "f.sp"
    cli.main(["reduce", cnf_path, "--r", "2", "--pad", "0", "--output", str(out)])
    assert capsys.readouterr().out.splitlines()[:2] == [
        "universe 27 = grid 12 + iss 15 (widths 7 8) + dull 0",
        "sets 72 = core 72 (per group: 34 38) + padding 0",
    ]
    # Three groups of 24 sets, which share x1: a grid of 3 * 2 IDs and tags of
    # 3 * 7, so universe 27 and 72 sets, like the r = 2 instance.
    codes = " ".join(map(str, range(24)))
    groups = "".join(f"g 5 1 {' '.join(str(v) for v in range(4 * g + 2, 4 * g + 6))} {codes}\n" for g in range(3))
    wit = write(tmp_path / "r3.wit", f"w 13 3 0\n{groups}")
    assert cli.main(["audit", str(out), "--witness", wit]) == 2
    captured = capsys.readouterr()
    assert "breakdown" not in captured.out
    assert captured.err == "cspack: witness r 3 does not match instance r 2\n"


def test_audit_refuses_a_witness_with_padding_at_r_one(tmp_path, capsys):
    # The instance "w 3 1 2 / g 0" builds: one tag ID over the grid of 3, then
    # 4 padding sets, each a packing alone at r = 1 (solve picks set 0).
    inst = write(tmp_path / "f.sp", "p sp 6 4 1\ns 4 0 1 2 3\ns 5 0 1 2 3 4\ns 5 0 1 2 3 5\ns 6 0 1 2 3 4 5\n")
    wit = write(tmp_path / "f.sp.wit", "w 3 1 2\ng 0\n")
    assert cli.main(["audit", inst, "--witness", wit]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cspack: padding requires r >= 2") and captured.err.count("\n") == 1


@pytest.mark.parametrize("edit", ["swap the first two sets", "move the first set's last ID up"])
def test_audit_refuses_an_instance_its_witness_does_not_build(tmp_path, capsys, edit):
    # The README's quick start, edited so that the instance keeps the
    # witness's r, universe and set count and still parses.
    cnf_path = str(tmp_path / "f.cnf")
    out = str(tmp_path / "f.sp")
    assert cli.main(["gen-cnf", "--n", "8", "--m", "16", "--seed", "5", "--planted", "--output", cnf_path]) == 0
    assert cli.main(["reduce", cnf_path, "--r", "2", "--output", out]) == 0
    assert cli.main(["audit", out, "--witness", out + ".wit"]) == 0
    capsys.readouterr()
    head, first, second, *rest = (tmp_path / "f.sp").read_text().splitlines(keepends=True)
    if edit.startswith("swap"):
        first, second = second, first
    else:
        # Up to the top ID, a dull ID that no core set holds.
        *fields, _ = first.split()
        first = " ".join([*fields, str(int(head.split()[2]) - 1)]) + "\n"
    write(tmp_path / "f.sp", "".join([head, first, second, *rest]))
    packing.parse_instance((tmp_path / "f.sp").read_text())
    assert cli.main(["audit", out, "--witness", out + ".wit"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cspack: set 0 of the instance is not the set the witness builds\n"


def test_bench_writes_csv(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "n_values": [6, 9, 12],
        "r_rule": "log2",
        "instances": 2,
        "seed": 11,
        "density": 2.0,
        "padding": 0,
    }))
    out = tmp_path / "rows.csv"
    rc = cli.main(["bench", str(config), "--output", str(out)])
    assert rc in (0, 3)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,m,r,")
    assert len(lines) == 1 + 6
    rs = [int(line.split(",")[2]) for line in lines[1:]]
    assert rs == [3, 3, 4, 4, 4, 4]


def test_bench_writes_csv_to_stdout(tmp_path, capsys):
    config = write(tmp_path / "sweep.json", json.dumps(
        {"n_values": [6], "instances": 2, "seed": 7, "density": 2.0, "planted": True}))
    assert cli.main(["bench", config]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, *rows = captured.out.splitlines()
    assert header == ",".join(bench.CSV_COLUMNS)
    assert [row.split(",")[-2:] for row in rows] == [["yes", "sat"]] * 2


def test_bench_budget_rows_exit_3(tmp_path, capsys):
    # A one-node budget decides no row: each is written with verdict "budget",
    # unjudged, and the sweep is inconclusive, not failed.
    config = write(tmp_path / "sweep.json", json.dumps(
        {"n_values": [6], "instances": 2, "seed": 7, "density": 2.0, "planted": True, "budget": 1}))
    out = tmp_path / "rows.csv"
    assert cli.main(["bench", config, "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"wrote 2 rows to {out}\n"
    assert captured.err == "some rows are INCONCLUSIVE (budget exhausted)\n"
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[-2:] for row in rows] == [["budget", "sat"]] * 2


def test_bench_judges_a_row_above_n_28(tmp_path):
    # n = 29 at the paper's r = ceil(log2 29) = 5: the reduction decides the
    # planted row and the oracle judges it.
    config = write(tmp_path / "sweep.json", json.dumps(
        {"n_values": [29], "r_rule": "log2", "seed": 7, "density": 2.0, "planted": True}))
    out = tmp_path / "rows.csv"
    assert cli.main(["bench", config, "--output", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert row.startswith("29,58,5,") and row.endswith(",yes,sat")


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
    {"n_values": [6], "oracle_cap": -3},  # a removed key is an unknown key
    {"n_values": [6], "density": 1e308},  # m = int(6e308) is not a finite count
    {"n_values": [10**400]},  # above MAX_UNIVERSE; 3.0 * n would overflow a float
    {"n_values": [6], "padding": "none"},  # 0 is the one spelling of "no padding"
    {"n_values": [3], "density": 1e7},  # m = 3e7 is above MAX_CLAUSES
    {"n_values": [6, 65537]},  # above MAX_UNIVERSE, so make_formula could draw no row
    {"r_rule": 2},  # no n_values
])
def test_bench_config_type_errors(tmp_path, capsys, config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert cli.main(["bench", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cspack: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, name, token", [
    (["gen-cnf", "--n", "+5", "--m", "10"], "--n", "+5"),
    (["gen-cnf", "--n", "5", "--m", "1_0"], "--m", "1_0"),
    (["gen-cnf", "--n", "5", "--m", "10", "--seed", "\u0663"], "--seed", "\u0663"),
    (["reduce", "f.cnf", "--r", "\uff12", "--output", "f.sp"], "--r", "\uff12"),
    (["reduce", "f.cnf", "--r", "2", "--pad", " 0 ", "--output", "f.sp"], "--pad", " 0 "),
    (["solve", "f.sp", "--budget", "1_000"], "--budget", "1_000"),
    (["verify", "f.sp", "\uff10", "1"], "indices", "\uff10"),
    (["roundtrip", "f.cnf", "--r", "+2"], "--r", "+2"),
    (["roundtrip", "f.cnf", "--r", "2", "--pad", "1_0"], "--pad", "1_0"),
    (["roundtrip", "f.cnf", "--r", "2", "--budget", "\u0663"], "--budget", "\u0663"),
], ids=["gen-cnf-n", "gen-cnf-m", "gen-cnf-seed", "reduce-r", "reduce-pad", "solve-budget",
        "verify-index", "roundtrip-r", "roundtrip-pad", "roundtrip-budget"])
def test_integer_arguments_follow_the_file_grammars_rule(tmp_path, capsys, monkeypatch, argv, name, token):
    # cnf.read_int reads every integer argument as it reads every integer
    # field of a file, so a spelling that int() also reads is a usage error.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cspack {argv[0]} ")
    assert err.endswith(f"\ncspack {argv[0]}: error: argument {name}: invalid read_int value: {token!r}\n")
    assert not list(tmp_path.iterdir())


def test_integer_arguments_keep_a_sign_and_leading_zeros(capsys):
    # -?[0-9]+ as in the files: "-3" is a seed and "007" is 7.
    assert cli.main(["gen-cnf", "--n", "007", "--m", "5", "--seed", "-3"]) == 0
    assert capsys.readouterr().out == to_dimacs(bench.make_formula(7, 5, -3, False))


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce"])  # missing required args
    assert exc.value.code == 1
