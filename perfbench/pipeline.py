"""One benchmark operation: a formula through the pipeline that `cspack reduce`,
`cspack solve` and `cspack roundtrip` run, followed by the benchmark's checks.

`run_pipeline` makes only the calls a user's pipeline makes and is what the
benchmark times. `check` and `record` run afterwards, untimed: they judge the
products and reduce them to the non-timing record that feeds the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass

from cspack import cnf, packing, reduction
from cspack.cnf import Assignment, CnfFormula

_NO_SPAN = contextlib.nullcontext()


def no_span(name: str) -> contextlib.AbstractContextManager:
    return _NO_SPAN


@dataclass
class Products:
    formula: CnfFormula
    text: str
    witness_text: str
    parsed: packing.SetPackingInstance
    parsed_witness: reduction.WitnessMap
    result: packing.SolveResult
    solver_check: packing.VerifyResult | None
    lifted_ok: bool | None
    model: Assignment | None
    lowered: list[int] | None
    lowered_check: packing.VerifyResult | None
    report: packing.CompactnessReport


def run_pipeline(formula: CnfFormula, r: int, span=no_span) -> Products:
    """Reduce (without padding), write and re-read, solve, lift, oracle-check, lower and audit one formula.

    `span(name)` wraps each public call; the default records nothing.
    """
    with span("reduction.reduce"):
        instance, witness = reduction.reduce_to_packing(formula, r, dull_width=0)
    with span("packing.serialize"):
        text = packing.serialize_instance(instance)
    with span("reduction.witness_text"):
        witness_text = reduction.witness_to_text(witness)
    del instance, witness
    with span("packing.parse"):
        parsed = packing.parse_instance(text)
    with span("reduction.witness_text"):
        parsed_witness = reduction.witness_from_text(witness_text)
    with span("packing.solve"):
        result = packing.solve_exact(parsed, budget=packing.DEFAULT_NODE_BUDGET)
    solver_check = lifted_ok = None
    if result.verdict == "yes":
        with span("packing.verify"):
            solver_check = packing.verify_packing(parsed, result.packing)
        with span("reduction.lift_lower"):
            lifted = reduction.lift_packing_to_assignment(parsed_witness, list(result.packing))
        with span("cnf.evaluate"):
            lifted_ok = cnf.evaluate(formula, lifted)
    with span("cnf.oracle"):
        model = cnf.brute_force_sat(formula)
    lowered = lowered_check = None
    if model is not None:
        with span("reduction.lift_lower"):
            lowered = reduction.lower_assignment_to_packing(parsed_witness, model)
        with span("packing.verify"):
            lowered_check = packing.verify_packing(parsed, lowered)
    with span("packing.audit"):
        report = packing.audit_compactness(parsed, parsed_witness)
    return Products(
        formula=formula,
        text=text,
        witness_text=witness_text,
        parsed=parsed,
        parsed_witness=parsed_witness,
        result=result,
        solver_check=solver_check,
        lifted_ok=lifted_ok,
        model=model,
        lowered=lowered,
        lowered_check=lowered_check,
        report=report,
    )


def check(p: Products) -> list[str]:
    """Every failed correctness check of one operation, as messages."""
    failures = []
    if packing.serialize_instance(p.parsed) != p.text:
        failures.append("instance text does not round-trip byte for byte")
    if reduction.witness_to_text(p.parsed_witness) != p.witness_text:
        failures.append("witness text does not round-trip byte for byte")
    verdict = p.result.verdict
    if verdict == "yes":
        if not p.solver_check.ok:
            failures.append(f"solver packing does not verify: {p.solver_check.reason}")
        if not p.lifted_ok:
            failures.append("lifted solver packing does not satisfy the formula")
    if verdict in ("yes", "no") and (verdict == "yes") != (p.model is not None):
        oracle = "sat" if p.model is not None else "unsat"
        failures.append(f"solver says {verdict} but the oracle says {oracle}")
    if p.model is not None and not p.lowered_check.ok:
        failures.append(f"lowered oracle assignment does not verify: {p.lowered_check.reason}")
    return failures


def model_code(formula: CnfFormula, model: Assignment) -> int:
    """The oracle's scan position of a model (variable 1 is the most significant bit)."""
    n = formula.num_vars
    return sum(1 << (n - v) for v, value in model.items() if value)


def record(p: Products, failures: list[str]) -> dict:
    """The operation's non-timing outputs, for the digest."""
    return {
        "instance_sha256": hashlib.sha256(p.text.encode()).hexdigest(),
        "witness_sha256": hashlib.sha256(p.witness_text.encode()).hexdigest(),
        "verdict": p.result.verdict,
        "nodes": p.result.nodes,
        "packing": list(p.result.packing) if p.result.packing is not None else None,
        "oracle_code": model_code(p.formula, p.model) if p.model is not None else None,
        "lowered": p.lowered,
        "audit_ratio": repr(p.report.ratio),
        "failures": failures,
    }
