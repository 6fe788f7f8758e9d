from __future__ import annotations

import ast
from pathlib import Path

import cspack

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


def test_the_reduction_and_the_witness_share_one_shape_check():
    # n, r and the padding width are checked in one place, check_shape, so
    # a witness is refused exactly when the reduction would refuse its layout.
    def defs(body, kind):
        return {node.name: node for node in body if isinstance(node, kind)}

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def calls(node):
        return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}

    body = ast.parse((PACKAGE / "reduction.py").read_text()).body
    reduce = defs(body, ast.FunctionDef)["reduce_to_packing"]
    post_init = defs(defs(body, ast.ClassDef)["WitnessMap"].body, ast.FunctionDef)["__post_init__"]
    assert not names(reduce) & {"MAX_DULL_WIDTH", "check_universe_size"}
    assert "check_shape" in calls(reduce)
    assert "check_shape" in calls(post_init)


def test_every_source_file_parses_as_python_3_10():
    # 3.10 is the requires-python floor, and the CI leg that runs it is the
    # only other check of it: syntax from a later version, such as except*,
    # fails here on any interpreter.
    paths = [path for folder in ("src/cspack", "tests", "perfbench") for path in sorted((REPO / folder).rglob("*.py"))]
    assert len(paths) >= 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
