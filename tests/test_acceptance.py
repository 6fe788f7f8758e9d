"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one [PASS]/[FAIL] line (run with -s to see the lines for passing tests).
Criteria 1, 3, and 6 share a 500-formula corpus built once per session.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import pytest

from cspack import bench, cnf, iss, packing, reduction

CORPUS_SEED = 20240
CORPUS_SIZE = 500
DEFAULT_BUDGET = packing.DEFAULT_NODE_BUDGET


def random_formula(n: int, m: int, rng: random.Random) -> cnf.CnfFormula:
    """Corpus generator, independent of the library's: clause width min(3, n)."""
    width = min(3, n)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.getrandbits(1) else -v for v in variables))
    return cnf.CnfFormula(num_vars=n, clauses=tuple(clauses))


@dataclass(frozen=True)
class CaseOutcome:
    formula_id: int
    n: int
    m: int
    r: int
    verdict: str
    oracle_sat: bool
    sizes_ok: bool
    lift_ok: bool | None   # None when the solver verdict is not "yes"
    lower_ok: bool | None  # None when the oracle found no assignment


def run_case(formula_id, formula, r, oracle_assignment) -> CaseOutcome:
    instance, witness = reduction.reduce_to_packing(formula, r, dull_width=0)
    holders = Counter(v for domain in witness.domains for v in domain)  # |G_x| per variable x
    sizes_ok = (
        instance.universe_size == sum(c * (c - 1) for c in holders.values()) + witness.iss_total + witness.dull_width
        and witness.core_count == sum(len(codes) for codes in witness.codes)
        and instance.set_count == witness.core_count + witness.pad_count
    )
    if sizes_ok:
        grid_size = witness.grid_size
        for idx in range(witness.core_count):
            g, _ = witness.entry(idx)
            expected = sum(holders[v] - 1 for v in witness.domains[g])
            if sum(1 for e in instance.sets[idx] if e < grid_size) != expected:
                sizes_ok = False
                break

    result = packing.solve_exact(instance, budget=DEFAULT_BUDGET)

    lift_ok = None
    if result.verdict == "yes":
        lift_ok = packing.verify_packing(instance, result.packing).ok
        if lift_ok:
            lifted = reduction.lift_packing_to_assignment(witness, list(result.packing))
            lift_ok = cnf.evaluate(formula, lifted)

    lower_ok = None
    if oracle_assignment is not None:
        try:
            lowered = reduction.lower_assignment_to_packing(witness, oracle_assignment)
            lower_ok = packing.verify_packing(instance, lowered).ok
        except ValueError:
            lower_ok = False

    return CaseOutcome(
        formula_id=formula_id,
        n=formula.num_vars,
        m=formula.num_clauses,
        r=r,
        verdict=result.verdict,
        oracle_sat=oracle_assignment is not None,
        sizes_ok=sizes_ok,
        lift_ok=lift_ok,
        lower_ok=lower_ok,
    )


@pytest.fixture(scope="session")
def corpus():
    """500 random formulas, n in [2, 10], m in [1, 3n], reduced at r in {2, 3} (+4 when m >= 4)."""
    rng = random.Random(CORPUS_SEED)
    outcomes: list[CaseOutcome] = []
    started = time.perf_counter()
    for formula_id in range(CORPUS_SIZE):
        n = rng.randint(2, 10)
        m = rng.randint(1, 3 * n)
        formula = random_formula(n, m, rng)
        oracle_assignment = cnf.brute_force_sat(formula)
        r_values = [2, 3] + ([4] if m >= 4 else [])
        for r in r_values:
            outcomes.append(run_case(formula_id, formula, r, oracle_assignment))
    elapsed = time.perf_counter() - started
    return outcomes, elapsed


def report(number: int, ok: bool, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {message}")


def test_criterion_1_oracle_equivalence(corpus):
    outcomes, elapsed = corpus
    budget_hits = [o for o in outcomes if o.verdict == "budget"]
    mismatches = [o for o in outcomes if o.verdict != "budget"
                  and (o.verdict == "yes") != o.oracle_sat]
    formulas = len({o.formula_id for o in outcomes})
    ok = not budget_hits and not mismatches and formulas == CORPUS_SIZE and elapsed < 300
    report(1, ok, f"oracle equivalence on {len(outcomes)} reductions of {formulas} formulas, "
                  f"{len(budget_hits)} budget exhaustions, {len(mismatches)} disagreements, "
                  f"{elapsed:.1f}s")
    assert not mismatches, mismatches[:5]
    assert not budget_hits, budget_hits[:5]
    assert formulas == CORPUS_SIZE
    assert elapsed < 300


def test_criterion_2_hand_checked_fixtures():
    phi1 = cnf.CnfFormula(num_vars=1, clauses=((1,), (-1,)))
    inst1, _ = reduction.reduce_to_packing(phi1, 2, dull_width=0)
    # independent decision: scan every pair of sets for disjointness
    pairs1 = [p for p in combinations(range(inst1.set_count), 2)
              if not set(inst1.sets[p[0]]) & set(inst1.sets[p[1]])]
    checks = [
        inst1.universe_size == 4,
        inst1.set_count == 2,
        pairs1 == [],
        packing.solve_exact(inst1).verdict == "no",
    ]

    phi2 = cnf.CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3)))
    inst2, wit2 = reduction.reduce_to_packing(phi2, 2, dull_width=0)
    pairs2 = [p for p in combinations(range(inst2.set_count), 2)
              if not set(inst2.sets[p[0]]) & set(inst2.sets[p[1]])]
    result2 = packing.solve_exact(inst2)
    checks += [
        inst2.universe_size == 16,
        inst2.set_count == 14,
        pairs2 != [],
        result2.verdict == "yes",
    ]
    if result2.verdict == "yes":
        lifted = reduction.lift_packing_to_assignment(wit2, list(result2.packing))
        checks.append(cnf.evaluate(phi2, lifted))

    ok = all(checks)
    report(2, ok, f"fixtures: universe {inst1.universe_size}/{inst2.universe_size}, "
                  f"sets {inst1.set_count}/{inst2.set_count}, verdicts "
                  f"{packing.solve_exact(inst1).verdict}/{result2.verdict}, lifted assignment satisfies")
    assert ok, checks


def test_criterion_3_size_identities(corpus):
    outcomes, _ = corpus
    bad = [o for o in outcomes if not o.sizes_ok]
    ok = not bad
    report(3, ok, f"exact size identities on all {len(outcomes)} generated instances")
    assert ok, bad[:5]


@pytest.fixture(scope="session")
def gadget_corpus():
    """A dedicated sample for the gadget property checks."""
    rng = random.Random(771)
    built = []
    for _ in range(120):
        n = rng.randint(3, 9)
        m = rng.randint(1, 2 * n)
        formula = bench.make_formula(n, m, rng.randrange(1 << 30), False)
        r = rng.choice((2, 3))
        built.append(reduction.reduce_to_packing(formula, r, dull_width=0))
    return built


def test_criterion_4a_intra_group_intersection(gadget_corpus):
    pairs_checked = 0
    failures = 0
    for instance, witness in gadget_corpus:
        masks = instance.masks
        offsets = witness.group_offsets
        for g in range(witness.r):
            lo = offsets[g]
            hi = lo + len(witness.codes[g])
            for a in range(lo, hi):
                for b in range(a + 1, hi):
                    pairs_checked += 1
                    if not masks[a] & masks[b]:
                        failures += 1
    ok = failures == 0 and pairs_checked > 0
    report(4, ok, f"(a) all {pairs_checked} intra-group pairs intersect")
    assert ok


def test_criterion_4b_cross_group_agreement(gadget_corpus):
    rng = random.Random(772)
    agree = 0
    total = 0
    while total < 10_000:
        instance, witness = gadget_corpus[rng.randrange(len(gadget_corpus))]
        nonempty = [g for g in range(witness.r) if witness.codes[g]]
        if len(nonempty) < 2:
            continue
        g1, g2 = rng.sample(nonempty, 2)
        offsets = witness.group_offsets
        i1 = offsets[g1] + rng.randrange(len(witness.codes[g1]))
        i2 = offsets[g2] + rng.randrange(len(witness.codes[g2]))
        a1 = reduction.decode_assignment(witness.domains[g1], witness.entry(i1)[1])
        a2 = reduction.decode_assignment(witness.domains[g2], witness.entry(i2)[1])
        consistent = all(a1[v] == a2[v] for v in set(a1) & set(a2))
        disjoint = not (set(instance.sets[i1]) & set(instance.sets[i2]))
        total += 1
        if consistent == disjoint:
            agree += 1
    ok = agree == total == 10_000
    report(4, ok, f"(b) cross-group disjointness matches assignment consistency on {agree}/{total} pairs")
    assert ok


def test_criterion_4c_iss_minimality():
    bad = []
    for count in range(0, 10_001):
        u = iss.minimal_iss_universe(count)
        need = max(count, 1)
        if math.comb(u, u // 2 + 1) < need:
            bad.append(count)
        elif u > 1 and math.comb(u - 1, (u - 1) // 2 + 1) >= need:
            bad.append(count)
    ok = not bad
    report(4, ok, "(c) tag-universe minimality against direct binomial computation, counts 0..10000")
    assert ok, bad[:10]


def test_criterion_5_padding_neutrality():
    rng = random.Random(773)
    sampled = 0
    verdict_mismatches = 0
    padding_pair_failures = 0
    while sampled < 100:
        n = rng.randint(3, 8)
        m = rng.randint(1, 2 * n)
        formula = bench.make_formula(n, m, rng.randrange(1 << 30), False)
        r = rng.choice((2, 3))
        plain, _ = reduction.reduce_to_packing(formula, r, dull_width=0)
        base_verdict = packing.solve_exact(plain).verdict
        for d in (1, 2, 4):
            padded, witness = reduction.reduce_to_packing(formula, r, dull_width=d)
            if packing.solve_exact(padded).verdict != base_verdict:
                verdict_mismatches += 1
            # a packing of cardinality >= 2 containing a padding set can never
            # verify: padding sets contain the whole core universe
            masks = padded.masks
            pad_idx = witness.core_count + rng.randrange(witness.pad_count)
            for other in range(padded.set_count):
                if other != pad_idx and not masks[pad_idx] & masks[other]:
                    padding_pair_failures += 1
        sampled += 1
    ok = verdict_mismatches == 0 and padding_pair_failures == 0
    report(5, ok, f"padded (d in 1,2,4) vs unpadded verdicts identical on {sampled} instances; "
                  f"padding sets intersect every other set")
    assert ok, (verdict_mismatches, padding_pair_failures)


def test_criterion_6_witness_round_trips(corpus):
    outcomes, _ = corpus
    lift_cases = [o for o in outcomes if o.lift_ok is not None]
    lower_cases = [o for o in outcomes if o.lower_ok is not None]
    lift_failures = [o for o in lift_cases if not o.lift_ok]
    lower_failures = [o for o in lower_cases if not o.lower_ok]
    ok = not lift_failures and not lower_failures and lift_cases and lower_cases
    report(6, bool(ok), f"{len(lift_cases)} solver packings lift to satisfying assignments, "
                        f"{len(lower_cases)} oracle assignments lower to verified packings")
    assert not lift_failures, lift_failures[:5]
    assert not lower_failures, lower_failures[:5]


def test_criterion_7_scaling_smoke():
    rows = []
    for r in (2, 3, 4):
        config = bench.SweepConfig(
            n_values=(24,),
            r_rule=r,
            instances=1,
            seed=900,
            density=0.42,  # m = 10 at n = 24
            padding=0,
            planted=True,
        )
        rows.extend(bench.run_sweep(config))
    log2_counts = [row.log2_set_count for row in rows]
    decreasing = all(a > b for a, b in zip(log2_counts, log2_counts[1:]))
    judged = all((row.verdict, row.oracle_verdict) == ("yes", "sat") for row in rows)
    ok = decreasing and judged
    detail = ", ".join(f"r={row.r}: log2(sets)={row.log2_set_count:.2f} verdict={row.verdict}/{row.oracle_verdict}"
                       for row in rows)
    report(7, ok, f"n=24 core family shrinks as r grows ({detail})")
    assert ok, log2_counts
