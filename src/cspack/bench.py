"""Round-trip checks and benchmark sweeps over generated formulas.

A sweep reduces random formulas at a range of sizes, solves the packing
instances, cross-checks against the exhaustive SAT oracle, and emits one CSV
row per instance. Verdict disagreement is a correctness bug and aborts the
sweep. Timing columns are wall-clock and excluded from the determinism
guarantee; every other column is reproducible from (config, seed).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass

from . import cnf
from .cnf import Assignment, CnfFormula
from .packing import DEFAULT_NODE_BUDGET, solve_exact, verify_packing
from .reduction import lift_packing_to_assignment, reduce_to_packing

CSV_COLUMNS = (
    "n",
    "m",
    "r",
    "universe_size",
    "set_count",
    "log2_set_count",
    "reduce_time",
    "solve_time",
    "solver_nodes",
    "verdict",
    "oracle_verdict",
    "agreement",
)


class SweepDisagreement(Exception):
    """A sweep row's packing verdict contradicted the SAT oracle."""


def _require_int(name: str, value: object) -> None:
    # bool is an int subclass, but true/false in a config is a typo, not a number.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One benchmark sweep.

    r_rule is a fixed positive integer or the string "log2" for
    r = ceil(log2(n)). padding is "none", "default", or an explicit dull
    width. density fixes m = max(1, int(density * n)). Formulas get seeds
    config.seed, config.seed + 1, ... in row order. The oracle is skipped
    (verdict "skip") for rows with n > oracle_cap.
    """

    n_values: tuple[int, ...]
    r_rule: int | str = 2
    instances: int = 1
    seed: int = 0
    density: float = 3.0
    padding: int | str = "none"
    budget: int = DEFAULT_NODE_BUDGET
    oracle_cap: int = cnf.DEFAULT_ORACLE_CAP
    planted: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n_values, (list, tuple)):
            raise ValueError(f"n_values must be a list of integers, got {self.n_values!r}")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        for n in self.n_values:
            _require_int("every n in n_values", n)
        if not self.n_values or any(n < 3 for n in self.n_values):
            raise ValueError("n_values must be nonempty with every n >= 3")
        for name in ("instances", "seed", "budget", "oracle_cap"):
            _require_int(name, getattr(self, name))
        if self.instances < 1:
            raise ValueError("instances per point must be positive")
        if self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if isinstance(self.r_rule, str):
            if self.r_rule != "log2":
                raise ValueError(f"unknown r rule {self.r_rule!r}")
        else:
            _require_int("a fixed r_rule", self.r_rule)
            if self.r_rule < 1:
                raise ValueError(f"fixed r must be positive, got {self.r_rule}")
        if isinstance(self.padding, str):
            if self.padding not in ("none", "default"):
                raise ValueError(f"padding must be 'none', 'default', or an integer, got {self.padding!r}")
        else:
            _require_int("an explicit padding width", self.padding)
        density = self.density
        if isinstance(density, bool) or not isinstance(density, (int, float)) or not 0 < density < math.inf:
            raise ValueError(f"density must be a positive finite number, got {density!r}")
        if not isinstance(self.planted, bool):
            raise ValueError(f"planted must be true or false, got {self.planted!r}")


def load_sweep_config(path: str) -> SweepConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"sweep config must be a JSON object, got {type(raw).__name__}")
    known = {
        "n_values", "r_rule", "instances", "seed", "density",
        "padding", "budget", "oracle_cap", "planted",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    if "n_values" not in raw:
        raise ValueError("sweep config must list n_values")
    return SweepConfig(**raw)


def r_for(n: int, rule: int | str) -> int:
    return math.ceil(math.log2(n)) if rule == "log2" else int(rule)


def dull_width_arg(padding: int | str) -> int | None:
    if padding == "none":
        return 0
    if padding == "default":
        return None
    return int(padding)


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    r: int
    universe_size: int
    set_count: int
    log2_set_count: float
    reduce_time: float
    solve_time: float
    solver_nodes: int
    verdict: str
    oracle_verdict: str
    agreement: str


def planted_assignment(n: int, rng: random.Random) -> Assignment:
    return {v: bool(rng.getrandbits(1)) for v in range(1, n + 1)}


def make_formula(n: int, m: int, seed: int, planted: bool) -> CnfFormula:
    """Formula for one sweep row, deterministic in its arguments."""
    if not planted:
        return cnf.gen_random_3cnf(n, m, seed)
    rng = random.Random(seed)
    alpha = planted_assignment(n, rng)
    return cnf.gen_random_3cnf(n, m, rng.randrange(2**62), planted=alpha)


def _agreement(verdict: str, oracle_verdict: str) -> str:
    if verdict == "budget" or oracle_verdict == "skip":
        return "na"
    if (verdict == "yes") == (oracle_verdict == "sat"):
        return "agree"
    return "disagree"


def run_roundtrip_row(
    formula: CnfFormula,
    r: int,
    *,
    dull_width: int | None,
    budget: int,
    oracle_cap: int,
    skip_oracle_over_cap: bool = True,
) -> SweepRow:
    """Reduce, solve, lift, and oracle-check one formula.

    With skip_oracle_over_cap (bench mode) the oracle is skipped, verdict
    "skip", when n exceeds the cap; without it (roundtrip mode) the cap
    violation raises. A found packing is verified and lifted, and the lifted
    assignment is evaluated; failures there raise, since they mean the
    toolkit itself is broken.
    """
    t0 = time.perf_counter()
    instance, witness = reduce_to_packing(formula, r, dull_width=dull_width)
    reduce_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = solve_exact(instance, budget=budget)
    solve_time = time.perf_counter() - t0

    if result.verdict == "yes":
        check = verify_packing(instance, result.packing)
        if not check.ok:
            raise RuntimeError(f"solver returned an invalid packing: {check.reason}")
        lifted = lift_packing_to_assignment(witness, list(result.packing))
        if not cnf.evaluate(formula, lifted):
            raise RuntimeError("lifted assignment does not satisfy the formula")

    if skip_oracle_over_cap and formula.num_vars > oracle_cap:
        oracle_verdict = "skip"
    else:
        oracle_verdict = "sat" if cnf.brute_force_sat(formula, cap=oracle_cap) is not None else "unsat"

    return SweepRow(
        n=formula.num_vars,
        m=formula.num_clauses,
        r=r,
        universe_size=instance.universe_size,
        set_count=instance.set_count,
        log2_set_count=math.log2(instance.set_count) if instance.set_count else 0.0,
        reduce_time=reduce_time,
        solve_time=solve_time,
        solver_nodes=result.nodes,
        verdict=result.verdict,
        oracle_verdict=oracle_verdict,
        agreement=_agreement(result.verdict, oracle_verdict),
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """All rows of a sweep, in config order. Raises SweepDisagreement on the first disagreement."""
    rows: list[SweepRow] = []
    seed = config.seed
    dull = dull_width_arg(config.padding)
    for n in config.n_values:
        m = max(1, int(config.density * n))
        r = r_for(n, config.r_rule)
        for _ in range(config.instances):
            formula = make_formula(n, m, seed, config.planted)
            seed += 1
            row = run_roundtrip_row(
                formula, r, dull_width=dull, budget=config.budget, oracle_cap=config.oracle_cap
            )
            if row.agreement == "disagree":
                raise SweepDisagreement(
                    f"n={row.n} m={row.m} r={row.r}: packing verdict {row.verdict} "
                    f"but oracle says {row.oracle_verdict}"
                )
            rows.append(row)
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                (
                    str(row.n),
                    str(row.m),
                    str(row.r),
                    str(row.universe_size),
                    str(row.set_count),
                    f"{row.log2_set_count:.6f}",
                    f"{row.reduce_time:.6f}",
                    f"{row.solve_time:.6f}",
                    str(row.solver_nodes),
                    row.verdict,
                    row.oracle_verdict,
                    row.agreement,
                )
            )
        )
    return "\n".join(lines) + "\n"
