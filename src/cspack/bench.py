"""Round-trip checks and benchmark sweeps over generated formulas.

A sweep reduces random formulas at a range of sizes, solves the packing
instances, judges each verdict with the SAT oracle, and emits one CSV row per
instance. A verdict the oracle contradicts is a correctness bug, like a
packing that fails to verify or lift: run_roundtrip_row raises RuntimeError
for each, and the sweep stops there, as it does on the oracle's ValueError
past cnf.ORACLE_WORK_CAP. A "budget" verdict is not judged; every other
written verdict agrees with the oracle's. Timing columns are
wall-clock and excluded from the determinism guarantee; every other column is
reproducible from (config, seed).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import astuple, dataclass, fields

from . import cnf
from .cnf import CnfFormula
from .packing import DEFAULT_NODE_BUDGET, MAX_UNIVERSE, solve_exact, verify_packing
from .reduction import lift_packing_to_assignment, lower_assignment_to_packing, reduce_to_packing

# Largest clause count make_formula draws: 2^20 planted clauses take about 4 s and 140 MB
# (Python 3.11 on a 2-core Xeon), and their DIMACS text 80 MB more.
MAX_CLAUSES = 1 << 20


def _require_int(name: str, value: object) -> None:
    # bool is an int subclass, but true/false in a config is a typo, not a number.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One benchmark sweep.

    r_rule is a fixed positive integer or the string "log2" for
    r = ceil(log2(n)). padding is an explicit dull width (0, the default,
    turns padding off) or "default". density fixes m = max(1, int(density *
    n)); every n, and the largest row's m, must pass make_formula's bounds.
    Formulas get seeds config.seed, config.seed + 1, ... in row order.
    """

    n_values: tuple[int, ...]
    r_rule: int | str = 2
    instances: int = 1
    seed: int = 0
    density: float = 3.0
    padding: int | str = 0
    budget: int = DEFAULT_NODE_BUDGET
    planted: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n_values, (list, tuple)):
            raise ValueError(f"n_values must be a list of integers, got {self.n_values!r}")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        for n in self.n_values:
            _require_int("every n in n_values", n)
            _check_num_vars(n)  # also keeps density * n below from overflowing
        for name in ("instances", "seed", "budget"):
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
        if self.padding != "default":
            _require_int("padding other than 'default'", self.padding)
        density = self.density
        if isinstance(density, bool) or not isinstance(density, (int, float)) or not 0 < density < math.inf:
            raise ValueError(f"density must be a positive finite number, got {density!r}")
        n = max(self.n_values)
        if not density * n < MAX_CLAUSES + 1:  # so that run_sweep's largest m, int(density * n), passes
            raise ValueError(f"density {density!r} times n = {n} is above MAX_CLAUSES = {MAX_CLAUSES}")
        if not isinstance(self.planted, bool):
            raise ValueError(f"planted must be true or false, got {self.planted!r}")


def load_sweep_config(path: str) -> SweepConfig:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"sweep config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(SweepConfig)}
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    if "n_values" not in raw:
        raise ValueError("sweep config must list n_values")
    return SweepConfig(**raw)


def r_for(n: int, rule: int | str) -> int:
    return math.ceil(math.log2(n)) if rule == "log2" else int(rule)


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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def make_formula(n: int, m: int, seed: int, planted: bool) -> CnfFormula:
    """m random clauses of 3 distinct variables with random signs, deterministic in the arguments.

    With planted, an assignment is drawn from Random(seed) first, the clauses
    from a Random seeded by the next draw, and each clause is redrawn until
    that assignment satisfies it. Raises ValueError, before any draw, unless
    3 <= n <= MAX_UNIVERSE and 0 <= m <= MAX_CLAUSES.
    """
    _check_num_vars(n)
    if not 0 <= m <= MAX_CLAUSES:
        raise ValueError(f"clause count must be in [0, MAX_CLAUSES = {MAX_CLAUSES}], got {m}")
    rng = random.Random(seed)
    alpha = None
    if planted:
        alpha = {v: bool(rng.getrandbits(1)) for v in range(1, n + 1)}
        rng = random.Random(rng.randrange(2**62))
    clauses: list[tuple[int, ...]] = []
    for _ in range(m):
        while True:
            variables = rng.sample(range(1, n + 1), 3)
            clause = tuple(v if rng.getrandbits(1) else -v for v in variables)
            if alpha is None or any(alpha[abs(lit)] == (lit > 0) for lit in clause):
                break
        clauses.append(clause)
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def _check_num_vars(n: int) -> None:
    if n < 3:
        raise ValueError(f"need n >= 3 to draw 3 distinct variables per clause, got {n}")
    if n > MAX_UNIVERSE:
        # check_counts refuses such an n at every r.
        raise ValueError(f"n = {n} exceeds MAX_UNIVERSE = {MAX_UNIVERSE}, so no r can reduce it")


def run_roundtrip_row(formula: CnfFormula, r: int, *, dull_width: int | None, budget: int) -> SweepRow:
    """Reduce, solve and lift one formula, then judge its verdict with the oracle.

    A found packing is verified and lifted, and the lifted assignment is
    evaluated. Then the oracle runs last, and its model, if any, is lowered to
    a packing and verified. A failed check, or a "yes" or "no" verdict that
    the oracle contradicts, raises RuntimeError, since it means the toolkit
    itself is broken. An oracle search past cnf.ORACLE_WORK_CAP raises its
    ValueError, so no row is returned unjudged. A "budget" verdict is not
    judged; a returned row with any other verdict agrees with the oracle.
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

    model = cnf.brute_force_sat(formula)
    oracle_verdict = "sat" if model is not None else "unsat"
    if model is not None:
        try:
            lowered = lower_assignment_to_packing(witness, model)
        except ValueError as exc:
            raise RuntimeError(f"oracle model does not lower to a packing: {exc}") from None
        check = verify_packing(instance, lowered)
        if not check.ok:
            raise RuntimeError(f"lowered oracle model is not a valid packing: {check.reason}")
    if result.verdict != "budget" and (result.verdict == "yes") != (model is not None):
        n, m = formula.num_vars, formula.num_clauses
        raise RuntimeError(f"n={n} m={m} r={r}: packing verdict {result.verdict} but oracle says {oracle_verdict}")

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
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """All rows of a sweep, in config order. Raises run_roundtrip_row's RuntimeError on the first failed row."""
    rows: list[SweepRow] = []
    seed = config.seed
    dull = None if config.padding == "default" else config.padding
    for n in config.n_values:
        m = max(1, int(config.density * n))
        r = r_for(n, config.r_rule)
        for _ in range(config.instances):
            formula = make_formula(n, m, seed, config.planted)
            seed += 1
            rows.append(run_roundtrip_row(formula, r, dull_width=dull, budget=config.budget))
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """One header line of CSV_COLUMNS, then one line per row: floats with 6 decimals, the rest as str."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in astuple(row)))
    return "\n".join(lines) + "\n"
