from __future__ import annotations

import ast
from pathlib import Path

import cspack
from cspack import cnf

PACKAGE = Path(cspack.__file__).parent
REPO = Path(__file__).resolve().parent.parent


def test_all_names_resolve_once():
    assert len(set(cspack.__all__)) == len(cspack.__all__)
    missing = [name for name in cspack.__all__ if not hasattr(cspack, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict[str, object] = {}
    exec("from cspack import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cspack.__all__)


def package_imports(module: str) -> list[tuple[str, list[str]]]:
    """(package module, names) of each import of the package anywhere in the module's source."""
    found = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, []) for alias in node.names if alias.name.split(".")[0] == "cspack"]
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level:
                name = ".".join(filter(None, ["cspack", name]))
            if name.split(".")[0] == "cspack":
                found.append((name, sorted(alias.name for alias in node.names)))
    return found


def test_the_sat_oracle_stays_independent_of_the_reduction():
    # The oracle's answers cross-check the reduction's only if neither path
    # reuses the other's code: the reduction takes no more than the formula
    # types and the integer reader from cnf, and cnf nothing from the package.
    from_cnf = [names for name, names in package_imports("reduction") if name in ("cspack", "cspack.cnf")]
    assert from_cnf == [["Assignment", "CnfFormula", "read_int"]]
    assert package_imports("cnf") == []


def test_cnf_alone_spells_the_integer_rule():
    # read_int holds the one rule for what text spells an integer; the
    # witness parser calls it field by field and compiles no pattern, and cnf
    # keeps no line form of the rule beside it.
    assert not hasattr(cnf, "read_ints")
    tree = ast.parse((PACKAGE / "reduction.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert "re" not in {alias.name for node in imports for alias in node.names}
    assert not {"compile", "fullmatch", "match"} & {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and "[0-9]" in str(n.value)]


def test_the_command_line_reads_integers_by_the_same_rule():
    # Every integer argument is read by cnf.read_int, as every integer field
    # of a file is, and no argument is read by int().
    (build,) = [node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    types: dict[tuple[str, str], str] = {}
    for statement in build.body:
        call = getattr(statement, "value", None)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.args:
            if call.func.attr == "add_parser":
                command = call.args[0].value
            elif call.func.attr == "add_argument":
                for keyword in call.keywords:
                    if keyword.arg == "type":
                        types[command, call.args[0].value] = ast.unparse(keyword.value)
    assert types == dict.fromkeys([
        ("gen-cnf", "--n"), ("gen-cnf", "--m"), ("gen-cnf", "--seed"),
        ("reduce", "--r"), ("reduce", "--pad"),
        ("solve", "--budget"),
        ("verify", "indices"),
        ("roundtrip", "--r"), ("roundtrip", "--pad"), ("roundtrip", "--budget"),
    ], "cnf.read_int")


def test_the_reduction_and_the_witness_share_one_shape_check():
    # n, r and the padding width are checked in one place, check_counts,
    # which both the reduction and the witness call. The reduction bounds the
    # grid plus dull block only through the splits, which are handed d; the
    # witness bounds its whole universe.
    def defs(body, kind):
        return {node.name: node for node in body if isinstance(node, kind)}

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def calls(node):
        return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    body = ast.parse((PACKAGE / "reduction.py").read_text()).body
    reduce = defs(body, ast.FunctionDef)["reduce_to_packing"]
    post_init = defs(defs(body, ast.ClassDef)["WitnessMap"].body, ast.FunctionDef)["__post_init__"]
    functions = defs(body, ast.FunctionDef)
    assert "check_shape" not in functions
    assert not names(reduce) & {"MAX_DULL_WIDTH", "MAX_UNIVERSE", "check_universe_size", "grid_layout"}
    assert "check_counts" in calls(reduce)
    assert "check_counts" in calls(post_init)
    assert {"grid_layout", "check_universe_size"} <= calls(post_init)
    # Both splits, turn-taking and then by estimate, are handed the same n, r and d.
    splits = [n for n in ast.walk(reduce) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "clause_groups"]
    assert [[ast.unparse(arg) for arg in split.args] for split in splits] == [["formula", "r", "d"]] * 2
    assert sorted(ast.unparse(split)[len("clause_groups"):] for split in splits) == [
        "(formula, r, d)", "(formula, r, d, by_estimate=True)"]
    assert "MAX_UNIVERSE" in names(functions["clause_groups"])
    assert "MAX_DULL_WIDTH" not in names(functions["clause_groups"])


def test_one_function_derives_the_grid_layout(monkeypatch):
    # G_x, the groups whose domain holds x, sizes the grid. grid_layout alone
    # derives it, the witness's constructor alone calls it and keeps the
    # layout it returns, so the masks and the witness's universe bound read
    # one layout. The reduction derives none: the split counts its grid as
    # it goes.
    from cspack import reduction

    tree = ast.parse((PACKAGE / "reduction.py").read_text())
    functions = {}  # name: def, methods as Class.name
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, ast.FunctionDef):
                functions[f"{node.name}.{fn.name}" if fn is not node else fn.name] = fn

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def files_groups(fn):
        # G_x holders: a loop over enumerate(...) whose body appends its group index.
        for loop in ast.walk(fn):
            if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call) and isinstance(loop.target, ast.Tuple)):
                continue
            group = loop.target.elts[0]
            if getattr(loop.iter.func, "id", None) == "enumerate" and isinstance(group, ast.Name):
                appends = [call for call in ast.walk(loop) if getattr(getattr(call, "func", None), "attr", None) == "append"]
                if any(group.id in names(call) for call in appends):
                    return True
        return False

    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert "Counter" not in {alias.name for node in imports for alias in node.names} | names(tree)
    assert "grid_width" not in functions
    assert [name for name, fn in functions.items() if files_groups(fn)] == ["grid_layout"]
    assert [name for name, fn in functions.items() if "grid_layout" in names(fn)] == ["WitnessMap.__post_init__"]

    layouts = []
    derive = reduction.grid_layout

    def counted(domains):
        layouts.append(derive(domains))
        return layouts[-1]

    monkeypatch.setattr(reduction, "grid_layout", counted)
    formula = cspack.parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0\n")
    instance, witness = reduction.reduce_to_packing(formula, 2, dull_width=0)
    assert len(layouts) == 1  # the witness's own
    assert witness.grid_blocks is layouts[0][0] and witness.grid_size == layouts[0][1]
    parsed = reduction.witness_from_text(reduction.witness_to_text(witness))
    assert reduction.build_instance(parsed) == instance and parsed.grid_mask(1, 0, True)
    assert len(layouts) == 2


def test_one_function_takes_the_masks_apart_into_byte_columns():
    # _byte_columns alone turns masks into bytes, and both the instance
    # writer and the solver's occurrence masks take their columns from it.
    tree = ast.parse((PACKAGE / "packing.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def calls(fn, name):
        return any(getattr(n.func, "attr", getattr(n.func, "id", None)) == name for n in ast.walk(fn) if isinstance(n, ast.Call))

    assert [fn.name for fn in functions if calls(fn, "to_bytes")] == ["_byte_columns"]
    assert sum(isinstance(n, ast.Attribute) and n.attr == "to_bytes" for n in ast.walk(tree)) == 1
    assert sorted(fn.name for fn in functions if calls(fn, "_byte_columns")) == ["_occurrence_masks", "instance_blocks"]


def test_one_function_owns_the_set_line_field_rules():
    # Field syntax, the count, each ID's range and strict increase are each
    # raised by _set_line_mask alone; parse_instance's ID table only sums
    # the lines it covers and hands every other line to that reader.
    tree = ast.parse((PACKAGE / "packing.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "_id_bit" not in {fn.name for fn in functions}
    messages = ("malformed set line", " IDs but found ", "element ID {e} out of range", "must be strictly increasing")

    def raised(fn):
        return " ".join(ast.unparse(n.exc) for n in ast.walk(fn) if isinstance(n, ast.Raise) and n.exc is not None)

    for message in messages:
        assert [fn.name for fn in functions if message in raised(fn)] == ["_set_line_mask"], message


def test_each_text_reader_reads_one_stream_of_lines():
    # parse_instance and parse_dimacs each make one pass, a single for
    # statement over their lines, and the CLI reads instance files in the
    # parser's own block size rather than binding one of its own.
    for module, name in (("packing", "parse_instance"), ("cnf", "parse_dimacs")):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        assert sum(isinstance(node, ast.For) for node in ast.walk(fn)) == 1, name
    body = ast.parse((PACKAGE / "cli.py").read_text()).body
    bound = [target.id for node in body if isinstance(node, ast.Assign) for target in node.targets]
    assert not [name for name in bound if any(word in name for word in ("READ", "CHARS", "BYTES", "BLOCK"))]
    (read,) = [node for node in body if isinstance(node, ast.FunctionDef) and node.name == "_read_instance"]
    assert "_READ_CHARS" in {node.attr for node in ast.walk(read) if isinstance(node, ast.Attribute)}


def options_of_each_command() -> dict[str, list[str]]:
    """The options, in order, that cli.build_parser gives each subcommand."""
    (build,) = [node for node in ast.parse((PACKAGE / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    options: dict[str, list[str]] = {}
    for statement in build.body:
        call = getattr(statement, "value", None)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.args:
            if call.func.attr == "add_parser":
                command = call.args[0].value
            elif call.func.attr == "add_argument" and call.args[0].value.startswith("-"):
                options.setdefault(command, []).append(call.args[0].value)
    return options


def names_and_attributes(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_the_oracle_has_one_reach():
    # cnf.ORACLE_WORK_CAP alone bounds the oracle, in one comparison inside
    # brute_force_sat: no other oracle bound exists, no function takes a cap
    # of its own, a sweep writes no unjudged "skip" row, and roundtrip has no
    # option that moves the cap.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for tree in trees.values() for name in names_and_attributes(tree) if "ORACLE" in name} == {"ORACLE_WORK_CAP"}
    compares = [node for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and "ORACLE_WORK_CAP" in names_and_attributes(node)]
    comparing = {f"{module}.{fn.name}" for module, tree in trees.items() for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and any(node in compares for node in ast.walk(fn))}
    assert len(compares) == 1 and comparing == {"cnf.brute_force_sat"}
    capped = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and {"cap", "oracle_cap"} & {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
    ]
    assert capped == []
    bench = ast.parse((PACKAGE / "bench.py").read_text())
    assert "skip" not in {node.value for node in ast.walk(bench) if isinstance(node, ast.Constant)}
    assert options_of_each_command()["roundtrip"] == ["--r", "--pad", "--budget"]


def test_each_output_has_one_owner():
    # reduce writes its witness to OUTPUT.wit with no option to move it, the
    # verdict columns end a sweep row with no column derived from them, and
    # the lowering passes on set_index_of's message instead of rewording it.
    from cspack import bench

    assert options_of_each_command()["reduce"] == ["--r", "--pad", "--output"]
    assert bench.CSV_COLUMNS[-2:] == ("verdict", "oracle_verdict")
    (lower,) = [node for node in ast.parse((PACKAGE / "reduction.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "lower_assignment_to_packing"]
    assert not [node for node in ast.walk(lower) if isinstance(node, ast.Try)]


def test_a_round_trip_fails_one_way_and_runs_the_oracle_last():
    # A verdict the oracle contradicts raises RuntimeError like every failed
    # check, with no exception type or "disagree" row of its own, and no
    # DISAGREE text in the CLI. run_roundtrip_row runs the oracle after the
    # solve.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

    def constants(tree):
        return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}

    exceptions = [node.name for node in ast.walk(trees["bench"]) if isinstance(node, ast.ClassDef)
                  and any(name.endswith(("Exception", "Error")) for base in node.bases for name in names_and_attributes(base))]
    assert exceptions == []
    assert "disagree" not in constants(trees["bench"])
    assert "DISAGREE" not in constants(trees["cli"])

    (row,) = [node for node in trees["bench"].body
              if isinstance(node, ast.FunctionDef) and node.name == "run_roundtrip_row"]
    calls: dict[str, list[int]] = {}
    for node in ast.walk(row):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node.lineno)
    (solve,), (oracle,) = calls["solve_exact"], calls["brute_force_sat"]
    assert solve < oracle


def test_every_source_file_parses_as_python_3_10():
    # 3.10 is the requires-python floor, and the CI leg that runs it is the
    # only other check of it: syntax from a later version, such as except*,
    # fails here on any interpreter.
    paths = [path for folder in ("src/cspack", "tests", "perfbench") for path in sorted((REPO / folder).rglob("*.py"))]
    assert len(paths) >= 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
