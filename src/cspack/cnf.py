"""3-CNF formulas: DIMACS I/O, evaluation, and an exhaustive SAT oracle.

Clauses carry 1 to 3 signed literals. The oracle checks every total
assignment, so it is only meant for small formulas; it exists to certify the
set packing reduction, not to compete with real SAT solvers. It is
bit-parallel: one big-int operation evaluates a clause on up to 2^20
assignments at once, chunk by chunk in encoding order, so it still returns the
least model. It shares no code with the reduction. Random formulas come
from bench.make_formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_

Assignment = dict[int, bool]

ORACLE_CAP = 28

# brute_force_sat evaluates 2^_CHUNK_BITS assignments per big-int operation.
_CHUNK_BITS = 20

# ASCII digits with an optional minus sign (see read_int), and a line of
# them separated by single spaces (see read_ints).
_DECIMAL = re.compile(r"-?[0-9]+")
_DECIMALS = re.compile(rf"{_DECIMAL.pattern}(?: {_DECIMAL.pattern})*")


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

    Reads every field of the DIMACS and instance grammars, through read_ints
    every field of the witness grammar, all of which are decimal, and every
    integer argument of the command line.
    """
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"not an ASCII decimal integer: {token!r}")
    return int(token)


def read_ints(tokens: list[str]) -> list[int]:
    """read_int over every token, checked by one fullmatch of the tokens joined by spaces.

    Accepts exactly the lists that read_int accepts token by token (a token
    with whitespace in it fails the match or int()), and for a refused list
    of whitespace-free tokens, as str.split() gives them, raises read_int's
    message for the first bad one. Reads every line of the witness grammar.
    """
    if _DECIMALS.fullmatch(" ".join(tokens)):
        return list(map(int, tokens))
    return list(map(read_int, tokens))


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


def assignment_from_code(num_vars: int, code: int) -> Assignment:
    """Decode a total assignment from its binary encoding (variable 1 is the most significant bit)."""
    return {v: bool((code >> (num_vars - v)) & 1) for v in range(1, num_vars + 1)}


def check_oracle_reach(num_vars: int) -> None:
    """Raise ValueError when brute_force_sat would refuse a formula with num_vars variables."""
    if num_vars > ORACLE_CAP:
        raise ValueError(f"formula has {num_vars} variables, oracle cap is {ORACLE_CAP}")


def brute_force_sat(formula: CnfFormula) -> Assignment | None:
    """Exhaustive satisfiability oracle.

    Scans all 2^n total assignments in encoding order (variable 1 = most
    significant bit) and returns the first satisfying one, so the result is
    the minimal satisfying assignment under that encoding. Returns None when
    unsatisfiable. Raises ValueError when num_vars exceeds ORACLE_CAP.

    The scan is bit-parallel: the codes are split into chunks of
    2^min(n, 20) consecutive codes, and within a chunk each clause is one
    big int with bit t set iff the chunk's t-th code satisfies it. Its
    working memory is about 2·min(n, 20) patterns of 2^min(n, 20) bits
    (about 5 MB once n >= 20).
    """
    n = formula.num_vars
    check_oracle_reach(n)
    low = min(n, _CHUNK_BITS)
    full = (1 << (1 << low)) - 1
    true_at = _code_bit_patterns(low)
    false_at = [full ^ pattern for pattern in true_at]
    # Variable v is code bit k = n - v. Bits below `low` vary within a chunk
    # and are read from the patterns; the higher bits are the chunk index.
    clauses = []
    for clause in formula.clauses:
        high_pos = high_neg = 0
        lows = []
        for lit in clause:
            k = n - abs(lit)
            if k < low:
                lows.append(true_at[k] if lit > 0 else false_at[k])
            elif lit > 0:
                high_pos |= 1 << (k - low)
            else:
                high_neg |= 1 << (k - low)
        clauses.append((high_pos, high_neg, lows))
    for chunk in range(1 << (n - low)):
        models = full
        for high_pos, high_neg, lows in clauses:
            if chunk & high_pos or ~chunk & high_neg:
                continue  # a high literal is true on the whole chunk
            models &= reduce(or_, lows) if lows else 0
            if not models:
                break
        if models:
            return assignment_from_code(n, chunk << low | ((models & -models).bit_length() - 1))
    return None


def _code_bit_patterns(low: int) -> list[int]:
    """For each k < low, the 2^low-bit int whose bit t is set iff bit k of t is 1."""
    size = 1 << low
    nbytes = max(1, size >> 3)
    patterns = []
    for k in range(low):
        if k < 3:
            unit = (b"\xaa", b"\xcc", b"\xf0")[k]
        else:
            unit = b"\0" * (1 << (k - 3)) + b"\xff" * (1 << (k - 3))
        pattern = int.from_bytes(unit * (nbytes // len(unit)), "little")
        patterns.append(pattern & ((1 << size) - 1))
    return patterns
