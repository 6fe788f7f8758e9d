"""3-CNF formulas: DIMACS I/O, evaluation, and a complete SAT oracle.

Clauses carry 1 to 3 signed literals. The oracle, brute_force_sat, is a
plain DPLL search (Davis, Logemann & Loveland, CACM 1962) in a fixed
variable order that returns the least model, the one a scan of all 2^n
assignments in encoding order would find. It exists to certify the set
packing reduction, not to compete with real SAT solvers, so its work is
capped by ORACLE_WORK_CAP rather than by n. It shares no code with the
reduction. Random formulas come from bench.make_formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

Assignment = dict[int, bool]

# The most clauses brute_force_sat may visit while it propagates, about 1.2 s
# of search (Python 3.11, 2-core Xeon). Unplanted formulas at m = 4.26n took
# at most 11k visits at n = 40 and 302k at n = 64 (make_formula seeds 0-9).
ORACLE_WORK_CAP = 1 << 21

class DimacsError(ValueError):
    """Raised when DIMACS text does not follow the expected format."""


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula with at most 3 literals per clause.

    Literals are nonzero signed variable indices; positive means unnegated.
    Variable indices run from 1 to num_vars.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError(f"num_vars must be positive, got {self.num_vars}")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for i, clause in enumerate(self.clauses):
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {i} has {len(clause)} literals, expected 1..3")
            for lit in clause:
                if lit == 0 or not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"clause {i}: literal {lit} out of range for n={self.num_vars}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text: 'c' comments, one 'p cnf n m' header, m zero-terminated clauses.

    One pass: the first stripped line that is neither empty nor a comment is
    the header, and the literals of the later ones are read in turn. n and the
    clauses are CnfFormula's to check, and its ValueError is raised as DimacsError.
    """
    lines = (line for line in map(str.strip, text.splitlines()) if line and not line.startswith("c"))
    header = next(lines, None)
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
        raise DimacsError(f"malformed header line: {header!r}")
    try:
        num_vars, num_clauses = map(read_int, parts[2:])
    except ValueError:
        raise DimacsError(f"malformed header line: {header!r}") from None

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in chain.from_iterable(map(str.split, lines)):
        try:
            lit = read_int(tok)
        except ValueError:
            raise DimacsError(f"non-integer token {tok!r} in clause data") from None
        if lit == 0:
            clauses.append(tuple(current))
            current = []
        else:
            current.append(lit)
    if current:
        raise DimacsError("final clause is not zero-terminated")
    try:
        formula = CnfFormula(num_vars=num_vars, clauses=tuple(clauses))
    except ValueError as exc:
        raise DimacsError(str(exc)) from None
    if formula.num_clauses != num_clauses:
        raise DimacsError(f"header declares {num_clauses} clauses but found {formula.num_clauses}")
    return formula


def read_int(token: str) -> int:
    """int(token), refusing the spellings int() accepts beyond ASCII -?[0-9]+ ('+1', '1_0', '٣').

    Reads every field of the DIMACS, instance and witness grammars, all of
    which are decimal, and every integer argument of the command line.
    """
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise ValueError(f"not an ASCII decimal integer: {token!r}")


def to_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS CNF. Reparsing the output yields an equal formula."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause contains a literal made true by the assignment.

    Raises ValueError if a variable occurring in the formula is unassigned.
    An empty clause list is vacuously true.
    """
    for clause in formula.clauses:
        for lit in clause:
            if abs(lit) not in assignment:
                raise ValueError(f"variable {abs(lit)} occurs in the formula but is unassigned")
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause)
        for clause in formula.clauses
    )


def brute_force_sat(formula: CnfFormula) -> Assignment | None:
    """Complete satisfiability oracle: the least model, or None when unsatisfiable.

    The least model is the satisfying total assignment with the smallest
    code, the n-bit number whose bit n - v is x_v's value (variable 1 is the
    most significant bit). A depth-first search decides x1, x2, ... in that
    order, False before True, and after each decision sets every literal
    that a clause with all its other literals false forces (unit
    propagation). Propagation rules out
    only assignments that are not models, and prefixes are tried in code
    order, so the first total assignment the search reaches is the least
    model: once every clause holds, each later decision is False.
    Tautological clauses are skipped.

    Raises ValueError once propagation has visited more than ORACLE_WORK_CAP
    clauses, since the search can take 2^n decisions.
    """
    n = formula.num_vars
    # watch[lit] holds the clauses with -lit in them, to check once lit is
    # true; a list of 2n + 1 is indexed by literal, as -v is 2n + 1 - v. The
    # trail of true literals starts at 0, whose list holds the unit clauses.
    watch: list[list[tuple[int, ...]]] = [[] for _ in range(2 * n + 1)]
    for clause in map(tuple, map(set, formula.clauses)):
        if not any(-lit in clause for lit in clause):
            for lit in clause if len(clause) > 1 else (0,):
                watch[-lit].append(clause)
    true = [False] * (2 * n + 1)
    trail, decisions = [0], []  # decisions: trail positions of the open False decisions
    head = work = v = 0  # every variable up to v is assigned
    while True:
        conflict = False
        while head < len(trail) and not conflict:
            clauses = watch[trail[head]]
            head += 1
            work += len(clauses)
            for clause in clauses:
                free = 0
                for lit in clause:
                    if not true[-lit]:
                        if true[lit] or free:
                            break  # the clause holds or has two unset literals
                        free = lit
                else:
                    if not free:
                        conflict = True
                        break
                    true[free] = True
                    trail.append(free)
        if work > ORACLE_WORK_CAP:
            raise ValueError(f"oracle search visited more than ORACLE_WORK_CAP = {ORACLE_WORK_CAP} clauses")
        if conflict:
            if not decisions:
                return None
            start = decisions.pop()
            v = -trail[start]
            for lit in trail[start:]:
                true[lit] = False
            trail[start:] = [v]  # no model has x_v false after this prefix
            true[v] = True
            head = start
            continue
        while v < n and (true[v + 1] or true[-v - 1]):
            v += 1
        if v == n:
            return {u: true[u] for u in range(1, n + 1)}
        decisions.append(len(trail))
        true[-v - 1] = True
        trail.append(-v - 1)
