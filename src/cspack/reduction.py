"""Reduce a 3-CNF formula to a compact set packing instance, with two-way witness lifting.

The construction, in element-ID terms:

* The clauses are split round-robin into r balanced groups. For each group,
  every satisfying partial assignment over the group's variables becomes one
  set in the family.
* Per variable x there is a grid block of r*r element IDs, laid out as
  id(x, i, j) = x*r^2 + i*r + j. A set for group g encodes "x is false" by
  claiming row g of x's grid and "x is true" by claiming column g. A row and
  a column always share one ID, so two groups that disagree on a shared
  variable can never both be picked; rows (or columns) of distinct groups
  are disjoint, so agreement never blocks a packing.
* Each group also gets a private block of tag IDs carrying an intersecting
  set system: the k-th assignment of the group is tagged with the k-th
  lexicographic subset. Any two tags of one group intersect, which caps a
  packing at one set per group.
* Optionally, d "dull" IDs are appended and, for every subset D of them,
  core-universe union D is added as a padding set. Padding sets inflate the
  family by 2^d without changing the answer for r >= 2, because every
  padding set contains the whole core universe and therefore intersects
  everything.

An r-packing therefore picks one satisfying partial assignment per group,
pairwise consistent, which merges into a satisfying total assignment; and
any satisfying total assignment restricts to one set per group. The witness
map records enough bookkeeping to walk both directions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .cnf import Assignment, CnfFormula
from .iss import build_iss, minimal_iss_universe
from .packing import SetPackingInstance, check_universe_size, mask_of

# Widest dull block reduce_to_packing builds: 2^d padding sets are materialized.
MAX_DULL_WIDTH = 16

# Sets reduce_to_packing materializes at most, padding included; a family
# that would be larger is refused before any mask is built.
MAX_SETS = 1 << 20

# Partial assignments a group's search may visit per set it may still keep
# (see enumerate_group_assignments).
SEARCH_NODES_PER_SET = 4

# Domain variables per lookup table when grid masks are combined per code
# (see code_masks); a table holds 2^width entries.
CODE_CHUNK_BITS = 8


class WitnessFormatError(ValueError):
    """Raised when witness-map text does not follow the expected format."""


@dataclass(frozen=True)
class ClausePartition:
    """r disjoint groups of clause indices covering 0..m-1, sizes within 1 of m/r."""

    r: int
    groups: tuple[tuple[int, ...], ...]


def partition_clauses(m: int, r: int) -> ClausePartition:
    """Round-robin partition: clause k goes to group k mod r.

    Group sizes are ceil(m/r) or floor(m/r), so the balance bound holds.
    Groups may be empty when r > m.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return ClausePartition(r=r, groups=tuple(tuple(range(g, m, r)) for g in range(r)))


@dataclass(frozen=True)
class GroupAssignments:
    """All satisfying partial assignments of one clause group.

    domain is the sorted list of variables occurring in the group's clauses.
    codes holds the satisfying assignments as binary encodings over the
    domain (first domain variable = most significant bit), in ascending
    order, with no misses and no duplicates.
    """

    group_index: int
    domain: tuple[int, ...]
    codes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.codes)

    def assignment(self, position: int) -> Assignment:
        return decode_assignment(self.domain, self.codes[position])


def decode_assignment(domain: tuple[int, ...], code: int) -> Assignment:
    k = len(domain)
    return {v: bool((code >> (k - 1 - j)) & 1) for j, v in enumerate(domain)}


def encode_assignment(domain: tuple[int, ...], assignment: Assignment) -> int:
    k = len(domain)
    code = 0
    for j, v in enumerate(domain):
        if v not in assignment:
            raise ValueError(f"variable {v} missing from assignment")
        if assignment[v]:
            code |= 1 << (k - 1 - j)
    return code


def propagate_units(clauses: list[set[int]]) -> dict[int, bool] | None:
    """Values forced by unit propagation over the clauses; None if it falsifies one.

    A clause none of whose literals is true and only one is unassigned forces
    that literal true. Each clause is rechecked only when one of its
    variables is forced, so the work is linear in the literal occurrences.
    """
    occurs: dict[int, list[int]] = {}
    for i, lits in enumerate(clauses):
        for lit in lits:
            occurs.setdefault(abs(lit), []).append(i)
    forced: dict[int, bool] = {}
    pending = list(range(len(clauses)))
    while pending:
        lits = clauses[pending.pop()]
        if any(forced.get(abs(lit)) == (lit > 0) for lit in lits):
            continue
        open_lits = [lit for lit in lits if abs(lit) not in forced]
        if not open_lits:
            return None
        if len(open_lits) == 1:
            lit = open_lits[0]
            forced[abs(lit)] = lit > 0
            pending.extend(occurs[abs(lit)])
    return forced


def enumerate_group_assignments(
    formula: CnfFormula,
    partition: ClausePartition,
    group_index: int,
    *,
    limit: int | None = None,
) -> GroupAssignments:
    """Enumerate every assignment over the group's variables satisfying all its clauses.

    An empty group yields the single empty assignment; a contradictory group
    yields an empty list. With a limit, raises ValueError as soon as more
    than limit assignments are found, or once the search has visited more
    than |domain| + SEARCH_NODES_PER_SET * (limit + 1) partial assignments,
    so the work is bounded as well as the output.

    Tautological clauses are dropped (their variables stay in the domain),
    then unit clauses are propagated over the group (propagate_units): a
    conflict yields no assignments at once, each forced variable may take
    only its forced value, clauses a forced value satisfies are dropped and
    literals it falsifies are removed. The search is an iterative depth-first
    walk over the domain variables in order, False before True, so codes come
    out ascending. Each clause is checked when its last domain variable is
    about to be assigned: if the prefix falsifies all its other literals, the
    value falsifying its last literal is not branched on, so no prefix that
    falsifies a clause is ever extended. A prefix that no extension can
    satisfy is still extended until a clause it completes fails, which is
    why the search work needs its own bound.
    """
    if not 0 <= group_index < partition.r:
        raise ValueError(f"group index {group_index} out of range [0, {partition.r})")
    clause_ids = partition.groups[group_index]
    domain = tuple(sorted({abs(lit) for ci in clause_ids for lit in formula.clauses[ci]}))
    clauses = [set(formula.clauses[ci]) for ci in clause_ids]
    clauses = [lits for lits in clauses if not any(-lit in lits for lit in lits)]
    forced = propagate_units(clauses)
    if forced is None:
        return GroupAssignments(group_index=group_index, domain=domain, codes=())
    k = len(domain)
    position = {v: j for j, v in enumerate(domain)}
    # checks[j][value]: (mask, neg) pairs over the j-bit prefix of variables
    # 0..j-1 (variable i at bit j-1-i); variable j may not take value when
    # prefix & mask == neg for some pair. (0, 0) always bans the value.
    checks: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = [([], []) for _ in range(k)]
    for v, value in forced.items():
        checks[position[v]][not value].append((0, 0))
    for lits in clauses:
        if any(forced.get(abs(lit)) == (lit > 0) for lit in lits):
            continue
        lits = [lit for lit in lits if abs(lit) not in forced]  # at least two remain
        last = max(position[abs(lit)] for lit in lits)
        mask = neg = 0
        for lit in lits:
            j = position[abs(lit)]
            if j == last:
                banned_value = lit < 0  # the value that falsifies the last literal
            else:
                bit = 1 << (last - 1 - j)
                mask |= bit
                if lit < 0:
                    neg |= bit
        checks[last][banned_value].append((mask, neg))

    cap = math.inf if limit is None else limit
    budget = math.inf if limit is None else k + SEARCH_NODES_PER_SET * (limit + 1)
    visited = 0
    codes = [] if k else [0]
    stack = [(0, 0)] if k else []  # (depth, prefix of that many bits)
    while stack:
        visited += 1
        if visited > budget:
            raise ValueError(f"group {group_index}: search visited more than {budget} partial assignments")
        depth, prefix = stack.pop()
        if_false, if_true = checks[depth]
        can_false = True
        for mask, neg in if_false:
            if prefix & mask == neg:
                can_false = False
                break
        can_true = True
        for mask, neg in if_true:
            if prefix & mask == neg:
                can_true = False
                break
        child = prefix << 1
        if depth + 1 == k:
            if can_false:
                codes.append(child)
            if can_true:
                codes.append(child | 1)
            if len(codes) > cap:
                break
        else:
            if can_true:
                stack.append((depth + 1, child | 1))
            if can_false:
                stack.append((depth + 1, child))
    if len(codes) > cap:
        raise ValueError(f"group {group_index} has more than {limit} satisfying assignments")
    return GroupAssignments(group_index=group_index, domain=domain, codes=tuple(codes))


@dataclass(frozen=True)
class ElementLayout:
    """How element IDs are apportioned between grid, tag, and dull blocks.

    IDs [0, n*r^2) are the per-variable grids with id(x, i, j) = x*r^2 + i*r + j.
    Then come r tag blocks of the recorded widths, in group order, then
    dull_width padding-only IDs.
    """

    n: int
    r: int
    iss_widths: tuple[int, ...]
    dull_width: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 1 or self.dull_width < 0:
            raise ValueError("layout requires n >= 1, r >= 1, dull_width >= 0")
        if len(self.iss_widths) != self.r or any(w < 0 for w in self.iss_widths):
            raise ValueError(f"need {self.r} nonnegative tag-block widths, got {self.iss_widths}")

    @property
    def grid_size(self) -> int:
        return self.n * self.r * self.r

    @property
    def iss_total(self) -> int:
        return sum(self.iss_widths)

    def iss_start(self, group: int) -> int:
        return self.grid_size + sum(self.iss_widths[:group])

    @property
    def core_size(self) -> int:
        return self.grid_size + self.iss_total

    @property
    def universe_size(self) -> int:
        return self.core_size + self.dull_width

    def grid_id(self, x: int, i: int, j: int) -> int:
        return x * self.r * self.r + i * self.r + j


def grid_edges(x: int, g: int, value: bool, layout: ElementLayout) -> frozenset[int]:
    """Grid IDs a set claims in variable block x for the given truth value.

    value False claims row g (IDs id(x, g, j) for all j); value True claims
    column g (IDs id(x, j, g) for all j). Always exactly r IDs. A row and a
    column of the same block share exactly one ID, which is what makes
    conflicting truth values collide.
    """
    if not 0 <= x < layout.n:
        raise ValueError(f"variable block {x} out of range [0, {layout.n})")
    if not 0 <= g < layout.r:
        raise ValueError(f"group {g} out of range [0, {layout.r})")
    r = layout.r
    if value:
        return frozenset(layout.grid_id(x, j, g) for j in range(r))
    return frozenset(layout.grid_id(x, g, j) for j in range(r))


@dataclass(frozen=True)
class WitnessMap:
    """Bookkeeping that links core sets to (group, assignment) pairs.

    Core set indices are laid out group by group, in assignment-encoding
    order within each group; padding sets (if any) come after all core sets.
    The element layout follows from the fields: each group's tag block is
    the minimal intersecting-family universe for its set count, as build_iss
    builds it.
    """

    num_vars: int
    dull_width: int
    domains: tuple[tuple[int, ...], ...]
    codes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.domains) != len(self.codes):
            raise ValueError(f"need one domain per group, got {len(self.domains)} for {len(self.codes)} groups")
        check_universe_size(self.layout.universe_size)
        for g, (domain, codes) in enumerate(zip(self.domains, self.codes)):
            if any(not 1 <= v <= self.num_vars for v in domain):
                raise ValueError(f"group {g}: domain variable out of range [1, {self.num_vars}]")
            if any(a >= b for a, b in zip(domain, domain[1:])):
                raise ValueError(f"group {g}: domain must be strictly increasing")
            top = 1 << len(domain)
            if any(not 0 <= c < top for c in codes):
                raise ValueError(f"group {g}: assignment code out of range for domain size {len(domain)}")
            if any(a >= b for a, b in zip(codes, codes[1:])):
                raise ValueError(f"group {g}: codes must be strictly increasing")

    @property
    def r(self) -> int:
        return len(self.codes)

    @cached_property
    def layout(self) -> ElementLayout:
        iss_widths = tuple(minimal_iss_universe(len(codes)) for codes in self.codes)
        return ElementLayout(n=self.num_vars, r=self.r, iss_widths=iss_widths, dull_width=self.dull_width)

    @cached_property
    def group_offsets(self) -> tuple[int, ...]:
        """Index of each group's first core set."""
        offsets = []
        total = 0
        for codes in self.codes:
            offsets.append(total)
            total += len(codes)
        return tuple(offsets)

    @property
    def core_count(self) -> int:
        return sum(len(codes) for codes in self.codes)

    @property
    def pad_first(self) -> int:
        return self.core_count

    @property
    def pad_count(self) -> int:
        return (1 << self.dull_width) if self.dull_width > 0 else 0

    def entry(self, set_index: int) -> tuple[int, int]:
        """(group, assignment code) for a core set index."""
        if not 0 <= set_index < self.core_count:
            raise ValueError(f"set index {set_index} is not a core set")
        offsets = self.group_offsets
        # The last group starting at or before set_index; empty groups share
        # their successor's offset and are skipped.
        group = bisect_right(offsets, set_index) - 1
        return group, self.codes[group][set_index - offsets[group]]

    def set_index_of(self, group: int, code: int) -> int:
        """Core set index of the given group's assignment code, if present."""
        codes = self.codes[group]
        pos = bisect_left(codes, code)
        if pos == len(codes) or codes[pos] != code:
            raise ValueError(f"group {group} has no satisfying assignment with code {code}")
        return self.group_offsets[group] + pos


def code_masks(codes: tuple[int, ...], value_masks: list[tuple[int, int]]) -> list[int]:
    """The grid mask of each code: the OR over the domain of each variable's value mask.

    value_masks[j] is (mask for False, mask for True) of domain variable j,
    whose value is code bit k-1-j. The domain is cut into balanced chunks of
    at most CODE_CHUNK_BITS variables, and a table per chunk holds the OR for
    every value pattern of its variables, so each code costs one lookup per
    chunk.
    """
    k = len(value_masks)
    out = [0] * len(codes)
    if k == 0:
        return out
    chunks = -(-k // CODE_CHUNK_BITS)
    width = -(-k // chunks)
    for start in range(0, k, width):
        chunk = value_masks[start : start + width]
        table = [0]
        for false_mask, true_mask in chunk:  # appends the variable as the lowest index bit
            table = [m | v for m in table for v in (false_mask, true_mask)]
        shift = k - start - len(chunk)
        low = len(table) - 1
        out = [m | table[code >> shift & low] for m, code in zip(out, codes)]
    return out


def default_dull_width(n: int, r: int) -> int:
    """Default padding width ceil(n * log2(r) / r), capped at MAX_DULL_WIDTH; 0 when r == 1."""
    if r == 1:
        return 0
    return min(MAX_DULL_WIDTH, math.ceil(n * math.log2(r) / r))


def reduce_to_packing(
    formula: CnfFormula,
    r: int,
    *,
    dull_width: int | None = None,
) -> tuple[SetPackingInstance, WitnessMap]:
    """Build the set packing instance and its witness map for the formula.

    dull_width None picks the default padding width; 0 disables padding.
    Padding needs r >= 2 (with r = 1 a padding set alone is a packing, which
    would break the equivalence). The width is capped at MAX_DULL_WIDTH
    because 2^dull_width padding sets are materialized. A universe above
    MAX_UNIVERSE is refused with ValueError before the family is built, and a
    grid plus dull block above it before any group is enumerated.

    A family of more than MAX_SETS sets is refused with ValueError: the 2^d
    padding sets are counted first, and each group's enumeration gets the
    remaining allowance and stops as soon as it is exceeded, before any mask
    is built. The allowance also bounds each group's search work (see
    enumerate_group_assignments), so a group whose search would outrun it is
    refused too, even if few of its assignments survive.

    Each set is the OR of precomputed masks: the grid mask of its code (from
    grid_edges, per variable, group and value) and its tag mask; a padding
    set is the core mask with a subset of the dull block.
    """
    n = formula.num_vars
    m = formula.num_clauses
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    d = default_dull_width(n, r) if dull_width is None else dull_width
    if d < 0:
        raise ValueError(f"dull_width must be nonnegative, got {d}")
    if d > MAX_DULL_WIDTH:
        raise ValueError(f"dull_width {d} exceeds cap {MAX_DULL_WIDTH} (2^d padding sets are materialized)")
    if r == 1 and d > 0:
        raise ValueError("padding requires r >= 2: with r = 1 any padding set alone is a packing")
    check_universe_size(n * r * r + d)  # the grid and dull blocks, before any enumeration

    allowance = MAX_SETS - ((1 << d) if d > 0 else 0)
    if allowance < 0:
        raise ValueError(f"the {1 << d} padding sets alone exceed MAX_SETS = {MAX_SETS}")
    partition = partition_clauses(m, r)
    groups = []
    for g in range(r):
        try:
            group = enumerate_group_assignments(formula, partition, g, limit=allowance)
        except ValueError as exc:
            raise ValueError(f"family refused under MAX_SETS = {MAX_SETS}: {exc}") from None
        groups.append(group)
        allowance -= group.count
    witness = WitnessMap(
        num_vars=n,
        dull_width=d,
        domains=tuple(group.domain for group in groups),
        codes=tuple(group.codes for group in groups),
    )
    layout = witness.layout

    masks: list[int] = []
    for g, group in enumerate(groups):
        value_masks = [
            (mask_of(grid_edges(v - 1, g, False, layout)), mask_of(grid_edges(v - 1, g, True, layout)))
            for v in group.domain
        ]
        core = code_masks(group.codes, value_masks)
        tag_base = layout.iss_start(g)
        masks.extend(m | mask_of(tag) << tag_base for m, tag in zip(core, build_iss(group.count).sets))

    if d > 0:
        core_size = layout.core_size
        core_mask = (1 << core_size) - 1
        masks.extend(core_mask | subset << core_size for subset in range(1 << d))

    instance = SetPackingInstance(universe_size=layout.universe_size, masks=tuple(masks), r=r)
    return instance, witness


def lower_assignment_to_packing(witness: WitnessMap, assignment: Assignment) -> list[int]:
    """Map a satisfying total assignment to the r core sets it selects.

    Restricts the assignment to each group's domain and looks the code up.
    Raises ValueError if some restriction is not a satisfying assignment of
    its group, which happens exactly when the assignment does not satisfy
    the formula.
    """
    indices = []
    for g in range(witness.r):
        code = encode_assignment(witness.domains[g], assignment)
        try:
            indices.append(witness.set_index_of(g, code))
        except ValueError:
            raise ValueError(
                f"assignment does not satisfy clause group {g} (restriction code {code})"
            ) from None
    return indices


def lift_packing_to_assignment(witness: WitnessMap, packing: list[int] | tuple[int, ...]) -> Assignment:
    """Merge an r-packing of core sets back into a satisfying total assignment.

    The packing must contain r valid core set indices from r distinct groups
    whose partial assignments agree on shared variables; anything else means
    the packing is corrupt and raises ValueError. Variables outside every
    group's domain default to False.
    """
    if len(packing) != witness.r:
        raise ValueError(f"expected {witness.r} set indices, got {len(packing)}")
    total_sets = witness.core_count + witness.pad_count
    merged: Assignment = {}
    seen_groups: set[int] = set()
    for idx in packing:
        if not 0 <= idx < total_sets:
            raise ValueError(f"set index {idx} out of range [0, {total_sets})")
        if idx >= witness.pad_first:
            raise ValueError(f"set index {idx} is a padding set and carries no assignment")
        group, code = witness.entry(idx)
        if group in seen_groups:
            raise ValueError(f"two sets from group {group}: not a valid packing")
        seen_groups.add(group)
        for v, value in decode_assignment(witness.domains[group], code).items():
            if v in merged and merged[v] != value:
                raise ValueError(f"inconsistent values for variable {v}: not a valid packing")
            merged[v] = value
    for v in range(1, witness.num_vars + 1):
        merged.setdefault(v, False)
    return merged


def witness_to_text(witness: WitnessMap) -> str:
    """Serialize a witness map.

    Grammar (whitespace-separated tokens, LF endings):

        w <n> <r> <d>
        g <count> <v_1> ... <v_k>            (one block per group, in group order)
        <bits>                               (exactly <count> lines per block)

    A block's <bits> lines are its satisfying assignments in core set order,
    each over the sorted domain variables, most significant bit first,
    written as "-" when the domain is empty. Set indices, tag widths and the
    padding sets follow from the counts and d.
    """
    lines = [f"w {witness.num_vars} {witness.r} {witness.dull_width}"]
    for domain, codes in zip(witness.domains, witness.codes):
        lines.append(" ".join(["g", str(len(codes)), *map(str, domain)]))
        if domain:
            spec = f"0{len(domain)}b"
            lines.extend(f"{code:{spec}}" for code in codes)
        else:
            lines.extend("-" for _ in codes)
    return "\n".join(lines) + "\n"


def witness_from_text(text: str) -> WitnessMap:
    """Parse the witness grammar; inverse of witness_to_text.

    Raises only WitnessFormatError, also for a layout whose universe exceeds
    MAX_UNIVERSE.
    """
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines:
        raise WitnessFormatError("empty witness text")
    head = lines[0]
    try:
        if len(head) != 4 or head[0] != "w":
            raise ValueError
        n, r, d = map(int, head[1:])
    except ValueError:
        raise WitnessFormatError(f"malformed header line: {' '.join(head)!r}") from None
    domains = []
    codes = []
    pos = 1
    for g in range(r):
        if pos == len(lines):
            raise WitnessFormatError(f"missing the block of group {g}")
        line = lines[pos]
        try:
            if len(line) < 2 or line[0] != "g":
                raise ValueError
            count = int(line[1])
            domain = tuple(map(int, line[2:]))
        except ValueError:
            raise WitnessFormatError(f"malformed group line: {' '.join(line)!r}") from None
        if count < 0:
            raise WitnessFormatError(f"group {g}: negative set count {count}")
        pos += 1
        block = lines[pos : pos + count]
        if len(block) != count:
            raise WitnessFormatError(f"group {g}: {len(block)} of its {count} bit lines present")
        pos += count
        group_codes = []
        for tokens in block:
            bits = tokens[0]
            if domain:
                valid = len(bits) == len(domain) and bits.strip("01") == ""
            else:
                valid = bits == "-"
            if len(tokens) != 1 or not valid:
                raise WitnessFormatError(f"group {g}: {' '.join(tokens)!r} is not bits over {len(domain)} variables")
            group_codes.append(int(bits, 2) if domain else 0)
        domains.append(domain)
        codes.append(tuple(group_codes))
    if pos != len(lines):
        raise WitnessFormatError(f"{len(lines) - pos} lines after the last group block")
    try:
        return WitnessMap(num_vars=n, dull_width=d, domains=tuple(domains), codes=tuple(codes))
    except ValueError as exc:
        raise WitnessFormatError(str(exc)) from None
