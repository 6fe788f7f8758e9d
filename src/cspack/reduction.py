"""Reduce a 3-CNF formula to a compact set packing instance, with two-way witness lifting.

The construction, in element-ID terms:

* The clauses are split into r groups in two ways (clause_groups): by
  turns, in round-robin sizes, and by estimate, each turn going to the
  group whose family estimate 2^k (7/8)^c over its k variables and c
  clauses is smallest. Either way a group in its turn takes the clause that
  adds the fewest new variables to its domain, so domains, and the
  families with them, stay small. The split whose groups' estimates sum
  to less is kept, turn-taking on a tie, and only its groups are
  enumerated (reduce_to_packing): every satisfying partial assignment over
  a group's variables becomes one set in the family. Which clauses share a
  group does not change the answer: the argument below holds for any
  split, and the witness, the lift and the lowering read only domains and
  codes.
* Per variable x there is a grid block over G_x, the groups whose domain
  holds x (grid_layout): one ID per ordered pair (i, j) of distinct groups
  of G_x, row-major, |G_x| * (|G_x| - 1) IDs. A set for group g encodes "x
  is false" by claiming row g of x's grid (the pairs (g, j)) and "x is true"
  by claiming column g (the pairs (i, g)). A row and a column of two groups
  always share one ID, so two groups that disagree on a shared variable can
  never both be picked; rows (or columns) of distinct groups are disjoint, so
  agreement never blocks a packing. This departs from the paper's uniform
  r*r grid per variable, which also holds the diagonal (g, g) and the pairs
  of groups that do not use x; only one group's core sets hold such an ID,
  so it can never block a packing, and dropping it leaves the intersection
  graph of the family unchanged.
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
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

from .cnf import Assignment, CnfFormula, read_int
from .iss import build_iss, minimal_iss_universe
from .packing import MAX_UNIVERSE, SetPackingInstance, check_family_size, check_universe_size, text_lines

# Widest dull block reduce_to_packing builds: 2^d padding sets are materialized.
MAX_DULL_WIDTH = 16

# Sets reduce_to_packing materializes at most, padding included; a family
# that would be larger is refused before any mask is built.
MAX_SETS = 1 << 20

# Visits a group's search may make per set it may still keep (see
# enumerate_group_assignments).
SEARCH_NODES_PER_SET = 4

# Low domain variables per group decided together as truth tables of
# 2^TABLE_BITS bits, carried down the group's search (see
# enumerate_group_assignments).
TABLE_BITS = 16

# Table bits read out per search visit. On a 2-core Xeon, reading out a
# 2^16-bit table cost about as much as popping 400 prefixes; it counts 512.
TABLE_BITS_PER_VISIT = 128

# log2(8/7): a random 3-clause keeps 7/8 of the assignments (see clause_groups).
# Spelled out so that no platform's log2 rounds the estimate split's key.
LOG2_8_7 = 0.19264507794239583

# Domain variables per lookup table when grid masks are combined per code
# (see code_masks); a table holds 2^width entries.
CODE_CHUNK_BITS = 8


class WitnessFormatError(ValueError):
    """Raised when witness-map text does not follow the expected format."""


@dataclass(frozen=True)
class GroupAssignments:
    """All satisfying partial assignments of one clause group.

    domain is the sorted list of variables occurring in the group's clauses.
    codes holds the satisfying assignments as binary encodings over the
    domain (first domain variable = most significant bit), in ascending
    order, with no misses and no duplicates.
    """

    domain: tuple[int, ...]
    codes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.codes)


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


@lru_cache(maxsize=None)
def _truth_tables(width: int) -> tuple[tuple[int, int], ...]:
    """tables[j]: the 2^width-bit truth tables (for False, for True) of variable j of a block.

    Bit t of the True table is set iff bit width-1-j of t is, so variable 0 is
    the most significant index bit. Each table halves the runs of zeros and
    ones of the one before it (Knuth's magic masks, TAOCP 4A, 7.1.3). Built
    on first use of a width, not at import.
    """
    full = (1 << (1 << width)) - 1
    tables = []
    if width:
        falses = (1 << (1 << (width - 1))) - 1  # indices whose top bit is 0
        for b in reversed(range(width)):
            trues = falses << (1 << b)
            tables.append((full ^ trues, trues))
            if b:
                falses ^= falses << (1 << (b - 1))
    return tuple(tables)


def enumerate_group_assignments(group_clauses: tuple[tuple[int, ...], ...], *, limit: int) -> GroupAssignments:
    """Enumerate every assignment over the group's variables satisfying all its clauses.

    An empty group yields the single empty assignment; a contradictory group
    yields an empty list. Raises ValueError as soon as more than limit
    assignments are found, or once the search work passes
    |domain| + 2^L / TABLE_BITS_PER_VISIT + SEARCH_NODES_PER_SET * (limit + 1)
    visits, so the work is bounded as well as the output.

    Tautological clauses are dropped (their variables stay in the domain).
    The last L = min(k, TABLE_BITS) domain variables are low, decided together
    as 2^L-bit truth tables; the first k - L are searched depth-first, False
    before True. Each clause is kept once, as its searched literals and the OR
    of its low literals' tables (0 if none); one with no searched literal is
    ANDed into the root table. One pass of failed-literal probing (Freeman,
    PhD thesis, 1995) settles the root: a clause whose searched literals are
    all false ANDs in its table, and a searched literal is forced true if,
    were it false, the clauses where it is the only open one would empty the
    root. A forced value revisits only its own clauses; once the worklist
    drains, a root that shrank since the last check rechecks every literal.
    Each forced value cuts its other value, and each clause that neither a
    forced value nor the root satisfies is filed, without its forced
    literals, under its last searched variable and the value falsifying that
    literal. A child ANDs in the table of each clause
    filed at its variable and value whose other searched literals its prefix
    falsifies, and is dropped once its table is empty, as is an empty root.
    A leaf's set bits t, in ascending order, are the codes prefix << L | t.

    One visit is one popped prefix, one AND with a clause that has low
    literals, or TABLE_BITS_PER_VISIT bits read out; a clause without low
    literals cuts a child without a visit. A contradiction that needs two
    searched variables is still met below every prefix reaching the later
    one, which is why the work needs its own bound.
    """
    domain = tuple(sorted({abs(lit) for clause in group_clauses for lit in clause}))
    k = len(domain)
    low = min(k, TABLE_BITS)
    high = k - low
    position = {v: j for j, v in enumerate(domain)}
    tables = {}  # the truth table of each low literal
    for v, (if_false, if_true) in zip(domain[high:], _truth_tables(low)):
        tables[v] = if_true
        tables[-v] = if_false

    root = (1 << (1 << low)) - 1
    clauses: list[tuple[list[int], int]] = []  # (searched literals, table) of each clause with a searched literal
    occurs: dict[int, list[int]] = {}  # the clauses of each searched variable
    for lits in map(set, group_clauses):
        if any(-lit in lits for lit in lits):
            continue
        table = 0
        searched = []
        for lit in lits:
            if lit in tables:
                table |= tables[lit]
            else:
                searched.append(lit)
                occurs.setdefault(abs(lit), []).append(len(clauses))
        if searched:
            clauses.append((searched, table))
        else:
            root &= table

    forced: dict[int, bool] = {}
    needs: dict[int, int] = {}  # lit: the AND of the tables of the clauses where lit is the only open searched literal
    pending = list(range(len(clauses)))
    checked = root  # the root every literal was last checked against
    while root:
        if not pending:
            if root == checked:
                break
            checked = root
            probes = list(needs)  # a root that shrank rechecks every literal once the worklist drains
        else:
            searched, table = clauses[pending.pop()]
            if any(forced.get(abs(lit)) == (lit > 0) for lit in searched):
                continue
            probes = [lit for lit in searched if abs(lit) not in forced]
            if not probes:
                root &= table
                continue
            if len(probes) > 1:
                continue
            needs[probes[0]] = needs.get(probes[0], -1) & table
        for lit in probes:
            if abs(lit) not in forced and not needs[lit] & root:
                forced[abs(lit)] = lit > 0
                pending.extend(occurs[abs(lit)])

    # filed[j][value]: (mask, neg, table) of each clause whose literal of its
    # last searched variable j is falsified by value; the prefix of variables
    # 0..j-1 (variable i at bit j-1-i) falsifies its other searched literals
    # when prefix & mask == neg.
    filed: list[tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]] = [([], []) for _ in range(high)]
    for v, value in forced.items():
        filed[position[v]][not value].append((0, 0, 0))
    for searched, table in clauses:
        table &= root
        if table == root or any(forced.get(abs(lit)) == (lit > 0) for lit in searched):
            continue
        bits = [(position[abs(lit)], lit < 0) for lit in searched if abs(lit) not in forced]
        last, value = max(bits)
        mask = neg = 0
        for j, negative in bits:
            if j < last:
                mask |= 1 << (last - 1 - j)
                neg |= negative << (last - 1 - j)
        filed[last][value].append((mask, neg, table))

    budget = k + (1 << low) // TABLE_BITS_PER_VISIT + SEARCH_NODES_PER_SET * (limit + 1)
    overrun = f"search visited more than {budget} partial assignments"
    visited = 0
    codes: list[int] = []
    # (depth, prefix of that many bits, its nonempty table); depth high is a leaf
    stack = [(0, 0, root)] if root else []
    while stack:
        visited += 1
        if visited > budget:
            raise ValueError(overrun)
        depth, prefix, table = stack.pop()
        if depth == high:
            visited += table.bit_length() // TABLE_BITS_PER_VISIT
            if visited > budget:
                raise ValueError(overrun)
            if len(codes) + table.bit_count() > limit:
                raise ValueError(f"more than {limit} satisfying assignments")
            # bin() spells the bits most significant first, so reversed, digit t is bit t.
            bits = bin(table)[:1:-1]
            offset = prefix << low
            t = bits.find("1")
            while t >= 0:
                codes.append(offset | t)
                t = bits.find("1", t + 1)
            continue
        for value in (True, False):  # False is pushed last, so popped first
            child = table
            for mask, neg, clause_table in filed[depth][value]:
                if prefix & mask == neg:
                    child &= clause_table
                    if clause_table:
                        visited += 1
                    if not child:
                        break
            if child:
                stack.append((depth + 1, prefix << 1 | value, child))
    return GroupAssignments(domain=domain, codes=tuple(codes))


@dataclass(frozen=True)
class WitnessMap:
    """Bookkeeping that links core sets to (group, assignment) pairs.

    domains[g] is group g's domain and codes[g] its satisfying assignments as
    codes over it (first domain variable = most significant bit), both
    strictly increasing, as witness_to_text writes them. Construction checks
    each group's domain, then its codes, for that order and then for ends in
    [1, n] and [0, 2^len(domain)); then n, r and d (check_counts), and then
    derives the grid (grid_layout) and checks the universe, grid, tags and
    dull block together, so witness_from_text checks only syntax.

    Core set indices are laid out group by group, in assignment-encoding
    order within each group; padding sets (if any) come after all core sets.
    The element layout, which build_instance follows, comes from the fields:
    IDs [0, grid_size) are the per-variable grids (grid_blocks, the layout
    the constructor's grid_layout call returns), then come r tag blocks in
    group order, each the minimal intersecting-family universe for its
    group's set count (build_iss), then dull_width padding-only IDs.
    """

    num_vars: int
    dull_width: int
    domains: tuple[tuple[int, ...], ...]
    codes: tuple[tuple[int, ...], ...]
    grid_blocks: dict[int, tuple[int, tuple[int, ...]]] = field(init=False, repr=False, compare=False)
    grid_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.domains) != len(self.codes):
            raise ValueError(f"need one domain per group, got {len(self.domains)} for {len(self.codes)} groups")
        for g, (domain, codes) in enumerate(zip(self.domains, self.codes)):
            if not all(map(operator.lt, domain, domain[1:])):
                raise ValueError(f"group {g}: domain must be strictly increasing")
            if domain and not (1 <= domain[0] and domain[-1] <= self.num_vars):
                raise ValueError(f"group {g}: domain variable out of range [1, {self.num_vars}]")
            if not all(map(operator.lt, codes, codes[1:])):
                raise ValueError(f"group {g}: codes must be strictly increasing")
            if codes and not (0 <= codes[0] and codes[-1] < 1 << len(domain)):
                raise ValueError(f"group {g}: assignment code out of range for domain size {len(domain)}")
        check_counts(self.num_vars, self.r, self.dull_width)
        blocks, size = grid_layout(self.domains)
        object.__setattr__(self, "grid_blocks", blocks)
        object.__setattr__(self, "grid_size", size)
        check_universe_size(self.universe_size)

    @property
    def r(self) -> int:
        return len(self.codes)

    @cached_property
    def iss_widths(self) -> tuple[int, ...]:
        return tuple(minimal_iss_universe(len(codes)) for codes in self.codes)

    @property
    def iss_total(self) -> int:
        return sum(self.iss_widths)

    @property
    def universe_size(self) -> int:
        return self.grid_size + self.iss_total + self.dull_width

    def grid_mask(self, x: int, g: int, value: bool) -> int:
        """Mask of the grid IDs group g's sets claim in variable x's block (grid_blocks[x]) for the given truth value.

        value False claims row g (the pairs (g, j)); value True claims column
        g (the pairs (i, g)), for the other groups i, j of G_x: |G_x| - 1 IDs
        either way, none if g is not in G_x. A row and a column of two
        distinct groups share exactly one ID, which is what makes conflicting
        truth values collide; no grid ID is claimed by two values of one group
        or by a third group.
        """
        start, groups = self.grid_blocks.get(x, (0, ()))
        if g not in groups:
            return 0
        width = len(groups) - 1
        a = groups.index(g)
        if value:  # pair (i, a) is entry a of row i, or a - 1 past the diagonal
            return sum(1 << (start + i * width + a - (a > i)) for i in range(width + 1) if i != a)
        return ((1 << width) - 1) << (start + a * width)

    @cached_property
    def group_offsets(self) -> tuple[int, ...]:
        """Index of each group's first core set."""
        return tuple(accumulate(map(len, self.codes[:-1]), initial=0))

    @property
    def core_count(self) -> int:
        return sum(len(codes) for codes in self.codes)

    @property
    def pad_count(self) -> int:
        return (1 << self.dull_width) if self.dull_width > 0 else 0

    @property
    def set_count(self) -> int:
        return self.core_count + self.pad_count

    def entry(self, set_index: int) -> tuple[int, int]:
        """(group, assignment code) for a core set index; any other index, a bool included, raises ValueError."""
        if not isinstance(set_index, int) or isinstance(set_index, bool):
            raise ValueError(f"non-integer set index {set_index!r}")
        if not 0 <= set_index < self.set_count:
            raise ValueError(f"set index {set_index} out of range [0, {self.set_count})")
        if set_index >= self.core_count:
            raise ValueError(f"set index {set_index} is a padding set and carries no assignment")
        offsets = self.group_offsets
        # The last group starting at or before set_index; empty groups share
        # their successor's offset and are skipped.
        group = bisect_right(offsets, set_index) - 1
        return group, self.codes[group][set_index - offsets[group]]

    def set_index_of(self, group: int, code: int) -> int:
        """Core set index of the given group's assignment code; a code the group lacks raises ValueError."""
        codes = self.codes[group]
        pos = bisect_left(codes, code)
        if pos == len(codes) or codes[pos] != code:
            raise ValueError(f"assignment does not satisfy clause group {group} (restriction code {code})")
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


def grid_layout(domains: Iterable[Iterable[int]]) -> tuple[dict[int, tuple[int, tuple[int, ...]]], int]:
    """The grid of the groups with these domains: (blocks, grid size); the only code that derives G_x.

    blocks[x] is (first ID of the block, G_x) for each variable x some
    domain holds. G_x lists, ascending, the groups whose domain holds x, and
    the block holds one ID per ordered pair (i, j) of distinct groups of
    G_x, row-major: |G_x| * (|G_x| - 1) IDs. Blocks follow each other in
    variable order from ID 0, and the grid size is where the last one ends.
    """
    holders: dict[int, list[int]] = {}
    for g, domain in enumerate(domains):
        for v in domain:
            holders.setdefault(v, []).append(g)
    blocks, start = {}, 0
    for x, groups in sorted(holders.items()):
        blocks[x] = (start, tuple(groups))
        start += len(groups) * (len(groups) - 1)
    return blocks, start


def check_counts(n: int, r: int, d: int) -> None:
    """Raise ValueError unless n variables, r groups and d dull IDs pass the reduction's rules.

    The rules: n >= 1, r >= 1, n and r at most MAX_UNIVERSE (lifting a
    packing writes all n values, and each group has a tag ID), 0 <= d <=
    MAX_DULL_WIDTH (2^d padding sets are built), and d = 0 at r = 1 (a
    padding set alone would be a packing). reduce_to_packing checks them
    before the split and WitnessMap before it derives its layout.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n = {n}, r = {r}")
    if n > MAX_UNIVERSE or r > MAX_UNIVERSE:
        raise ValueError(f"need n <= MAX_UNIVERSE and r <= MAX_UNIVERSE = {MAX_UNIVERSE}, got n = {n}, r = {r}")
    if not 0 <= d <= MAX_DULL_WIDTH:
        raise ValueError(f"dull_width {d} is not in [0, {MAX_DULL_WIDTH}] (2^d padding sets are materialized)")
    if r == 1 and d > 0:
        raise ValueError("padding requires r >= 2: with r = 1 any padding set alone is a packing")


def default_dull_width(n: int, r: int) -> int:
    """Default padding width ceil(n * log2(r) / r), capped at MAX_DULL_WIDTH; 0 when r < 2."""
    if r < 2:
        return 0
    return min(MAX_DULL_WIDTH, math.ceil(n * math.log2(r) / r))


def clause_groups(formula: CnfFormula, r: int, dull_width: int, *, by_estimate: bool = False) -> tuple[tuple[int, ...], ...]:
    """The clause indices of each of r >= 1 groups, each ascending: the turn-taking or the estimate split.

    In the turn-taking split the groups take turns in order 0, 1, ..., r - 1,
    repeatedly, and group g stops at its round-robin size len(range(g, m,
    r)), so turn t is group t mod r's and sizes differ by at most one. In
    the estimate split (by_estimate) each turn goes to the group whose
    family estimate 2^k (7/8)^c, for its k domain variables and c clauses,
    is smallest, the lowest group among ties, with no cap on its size: a
    heap holds each group under k - c log2(8/7), and a group goes back on
    it after its turn. Either way, in its turn a group takes the
    unassigned clause that adds the fewest new variables to its domain, the
    lowest index among ties. On variable-disjoint clauses the turn-taking
    split is round-robin.

    A clause's key for a group is the number of its distinct variables the
    group's domain lacks. Each group has one heap per key: as a variable
    joins its domain, every unassigned clause of that variable goes onto the
    heap of its new key. A turn takes, for the lowest key with a candidate,
    the lowest index among that key's heap and the unassigned head of the
    clauses of that width in index order, which all groups share. Stale
    entries need no check: a clause whose key has fallen, like a head the
    group touches, has a live entry in a lower heap, and lower heaps are
    drained first. The work is about the sum, over the groups, of the
    occurrences of their domain variables.

    Raises ValueError as soon as the grid of the domains so far, the size
    grid_layout gives them, plus the dull_width dull IDs exceeds
    MAX_UNIVERSE: before any clause is grouped if the dull block alone does.
    The grid only grows, so the split refuses exactly when the finished
    split's grid plus dull block would exceed the bound; and a variable that
    joins a group it is not the first to hold adds at least 2 to it, so at
    most n + MAX_UNIVERSE / 2 + 1 variables join a domain before that. This
    is the one bound on the grid that reduce_to_packing checks before any
    group is enumerated.
    """
    # Imported on the first split, so that importing cspack does not load it.
    from heapq import heappop, heappush

    m = formula.num_clauses
    # The distinct variables of each clause, then 0, which every domain holds,
    # up to three. Each variable is one shared int object (canon), which keeps
    # the index small and the scans' reads close together.
    canon = list(range(formula.num_vars + 1))
    variables = [(*{canon[abs(lit)] for lit in clause}, 0, 0)[:3] for clause in formula.clauses]
    occurs: list[list[int]] = [[] for _ in range(formula.num_vars + 1)]  # the clauses of each variable, ascending
    fresh: tuple[list[int], ...] = ([], [], [], [])  # the clauses of each width, ascending
    for c in range(m):
        width = 3 - variables[c].count(0)
        fresh[width].append(c)
        for v in variables[c][:width]:
            occurs[v].append(c)

    taken = bytearray(m)
    heads = [0] * 4

    def head(width: int) -> int:
        order, i = fresh[width], heads[width]
        while i < len(order) and taken[order[i]]:
            i += 1
        heads[width] = i
        return order[i] if i < len(order) else m

    def top(heap: list[int]) -> int:
        while heap and taken[heap[0]]:
            heappop(heap)
        return heap[0] if heap else m

    active = min(r, m)
    members: list[list[int]] = [[] for _ in range(active)]
    domains = [{0} for _ in range(active)]
    keyed: list[tuple[list[int], ...]] = [([], [], [], []) for _ in range(active)]  # key 3 stays empty
    holders = [0] * (formula.num_vars + 1)  # the groups so far whose domain holds each variable
    grid = 0
    room = MAX_UNIVERSE - dull_width  # the grid IDs the dull block leaves under the bound

    def overflow(grouped: int) -> ValueError:
        return ValueError(
            f"the grid plus {dull_width} dull IDs exceeds MAX_UNIVERSE = {MAX_UNIVERSE}:"
            f" {grid + dull_width} IDs once {grouped} of {m} clauses are grouped"
        )

    if room < 0:
        raise overflow(0)
    turns = [(0.0, g) for g in range(active)]  # the estimate split's (log2 of the estimate, group), a heap
    for t in range(m):
        g = heappop(turns)[1] if by_estimate else t % r
        heaps = keyed[g]
        for key in range(4):
            best = min(top(heaps[key]), head(key))
            if best < m:
                break
        taken[best] = 1
        members[g].append(best)
        domain = domains[g]
        new = [v for v in variables[best] if v not in domain]
        domain.update(new)
        for v in new:
            grid += 2 * holders[v]  # |G_v| (|G_v| - 1) grows by 2 |G_v|
            holders[v] += 1
            if grid > room:
                raise overflow(t + 1)
            for c in occurs[v]:
                if not taken[c]:
                    x, y, z = variables[c]
                    heappush(heaps[(x not in domain) + (y not in domain) + (z not in domain)], c)
        if by_estimate:
            heappush(turns, (len(domain) - 1 - len(members[g]) * LOG2_8_7, g))  # the domain holds 0 too
    return tuple(tuple(sorted(group)) for group in members) + ((),) * (r - active)


def reduce_to_packing(
    formula: CnfFormula,
    r: int,
    *,
    dull_width: int | None = None,
) -> tuple[SetPackingInstance, WitnessMap]:
    """Build the set packing instance and its witness map for the formula.

    dull_width None picks the default padding width; 0 disables padding.
    check_counts, which WitnessMap calls too, refuses n, r and the width
    with ValueError before the clauses are split, and the turn-taking split
    (clause_groups) refuses the grid plus dull block as soon as it passes
    MAX_UNIVERSE, before any group is enumerated; the grid width comes from
    the variables of each group's clauses, which are its domain. The
    witness derives the layout once the groups are enumerated.

    The estimate split replaces turn-taking only if it fits its grid and
    its estimate (split_estimate) is strictly smaller. Only the kept split
    is enumerated, each group under what the groups before it leave of
    MAX_SETS less the 2^d padding sets (at most 2^MAX_DULL_WIDTH, well under
    MAX_SETS). The allowance also bounds each group's search work (see
    enumerate_group_assignments). A family is refused with ValueError,
    naming the group, before any mask is built: more than MAX_SETS sets, a
    group's search work beyond its allowance, a universe above
    MAX_UNIVERSE or a set count times universe size above MAX_FAMILY_BITS.
    """
    n = formula.num_vars
    d = default_dull_width(n, r) if dull_width is None else dull_width
    check_counts(n, r, d)
    groups = clause_groups(formula, r, d)
    try:
        by_estimate = clause_groups(formula, r, d, by_estimate=True)
    except ValueError:  # its grid is past the bound: turn-taking is kept
        by_estimate = groups
    scale = max(map(len, groups + by_estimate), default=0)
    if split_estimate(formula, by_estimate, scale) < split_estimate(formula, groups, scale):
        groups = by_estimate
    allowance = MAX_SETS - ((1 << d) if d > 0 else 0)
    domains, codes = [], []
    for g, group in enumerate(groups):
        try:
            found = enumerate_group_assignments(tuple(map(formula.clauses.__getitem__, group)), limit=allowance)
        except ValueError as exc:
            raise ValueError(f"family refused under MAX_SETS = {MAX_SETS}: group {g}: {exc}") from None
        domains.append(found.domain)
        codes.append(found.codes)
        allowance -= found.count
    witness = WitnessMap(num_vars=n, dull_width=d, domains=tuple(domains), codes=tuple(codes))
    return build_instance(witness), witness


def split_estimate(formula: CnfFormula, groups: tuple[tuple[int, ...], ...], scale: int) -> int:
    """The family estimate of a split, sum over its groups of 2^k (7/8)^c, times 8^scale.

    k is a group's domain size and c its clause count, and scale is at least
    every c, so the estimate is the exact integer sum of 2^(k + 3(scale - c))
    7^c: two splits compared at one scale are ordered the same on every
    platform.
    """
    total = 0
    for group in groups:
        k = len({abs(lit) for c in group for lit in formula.clauses[c]})
        total += 7 ** len(group) << (k + 3 * (scale - len(group)))
    return total


def build_instance(witness: WitnessMap) -> SetPackingInstance:
    """The instance a witness map determines; the only code that turns a witness into masks.

    A core set ORs its code's grid mask (code_masks over grid_mask) with its
    group's tag (build_iss), shifted past the grid and the tag blocks of the
    groups before it; a padding set is the core mask with a subset of the dull
    block. A family above MAX_FAMILY_BITS is refused before any mask is built.
    """
    check_family_size(witness.set_count, witness.universe_size)
    masks: list[int] = []
    offset = witness.grid_size
    for g, (domain, codes) in enumerate(zip(witness.domains, witness.codes)):
        value_masks = [(witness.grid_mask(v, g, False), witness.grid_mask(v, g, True)) for v in domain]
        tags = build_iss(len(codes))
        masks.extend(m | tag << offset for m, tag in zip(code_masks(codes, value_masks), tags.masks))
        offset += tags.universe_width
    core_mask = (1 << offset) - 1
    masks.extend(core_mask | subset << offset for subset in range(witness.pad_count))
    return SetPackingInstance(universe_size=witness.universe_size, masks=tuple(masks), r=witness.r)


def check_witness(instance: SetPackingInstance, witness: WitnessMap) -> None:
    """Raise ValueError unless build_instance(witness) equals the instance.

    r, universe and set count are compared first, so the rebuild is never
    larger than the instance it is checked against.
    """
    for name, ours, theirs in (
        ("r", witness.r, instance.r),
        ("universe", witness.universe_size, instance.universe_size),
        ("set count", witness.set_count, instance.set_count),
    ):
        if ours != theirs:
            raise ValueError(f"witness {name} {ours} does not match instance {name} {theirs}")
    rebuilt = build_instance(witness)
    if rebuilt != instance:
        i = next(i for i, (ours, theirs) in enumerate(zip(rebuilt.masks, instance.masks)) if ours != theirs)
        raise ValueError(f"set {i} of the instance is not the set the witness builds")


def lower_assignment_to_packing(witness: WitnessMap, assignment: Assignment) -> list[int]:
    """Map a satisfying total assignment to the r core sets it selects.

    Restricts the assignment to each group's domain and looks the code up.
    Raises ValueError if some restriction is not a satisfying assignment of
    its group, which happens exactly when the assignment does not satisfy
    the formula.
    """
    return [witness.set_index_of(g, encode_assignment(witness.domains[g], assignment)) for g in range(witness.r)]


def lift_packing_to_assignment(witness: WitnessMap, packing: list[int] | tuple[int, ...]) -> Assignment:
    """Merge an r-packing of core sets back into a satisfying total assignment.

    The packing must contain r valid core set indices from r distinct groups
    whose partial assignments agree on shared variables; anything else means
    the packing is corrupt and raises ValueError. Variables outside every
    group's domain default to False.
    """
    if len(packing) != witness.r:
        raise ValueError(f"expected {witness.r} set indices, got {len(packing)}")
    merged: Assignment = {}
    seen_groups: set[int] = set()
    for idx in packing:
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

    Grammar (decimal fields separated by single spaces, LF endings):

        w <n> <r> <d>
        g <k> <v_1> ... <v_k> <c_1> ... <c_count>      (one line per group, in group order)

    A group line holds the group's k sorted domain variables, then its
    satisfying assignments in core set order, each as its code over the
    domain (first variable = most significant bit), as in WitnessMap.codes.
    Set indices, tag widths and the padding sets follow from the code
    counts and d.
    """
    lines = [f"w {witness.num_vars} {witness.r} {witness.dull_width}"]
    for domain, codes in zip(witness.domains, witness.codes):
        lines.append(" ".join(map(str, ("g", len(domain), *domain, *codes))))
    return "\n".join(lines) + "\n"


def witness_from_text(text: str) -> WitnessMap:
    """Parse the witness grammar; inverse of witness_to_text.

    Checks the syntax only (the header, exactly r group lines, every field a
    read_int integer, 0 <= k <= the fields after it) and leaves ranges, order
    and layout to WitnessMap. Blank lines are skipped. The lines are read
    one at a time (text_lines), so beyond the fields read so far only one
    line's tokens are held. A line count other than r is reported before a
    fault in a group line, and lines past the r-th are only counted. Raises
    only WitnessFormatError, also for a layout whose universe exceeds
    MAX_UNIVERSE.
    """
    rows = filter(None, map(str.split, text_lines(text)))
    head = next(rows, None)
    if head is None:
        raise WitnessFormatError("empty witness text")
    try:
        if len(head) != 4 or head[0] != "w":
            raise ValueError
        n, r, d = map(read_int, head[1:])
    except ValueError:
        raise WitnessFormatError(f"malformed header line: {' '.join(head)!r}") from None
    domains = []
    codes = []
    fault = None  # the first group line's fault, raised once the lines are counted
    found = 0
    for found, line in enumerate(rows, 1):
        if fault or found > r:
            continue
        try:
            if len(line) < 2 or line[0] != "g":
                raise ValueError
            k, *fields = map(read_int, line[1:])
        except ValueError:
            fault = f"malformed group line: {' '.join(line)!r}"
            continue
        if not 0 <= k <= len(fields):
            fault = f"group {found - 1}: domain size {k} is not in [0, {len(fields)}]"
            continue
        domains.append(tuple(fields[:k]))
        codes.append(tuple(fields[k:]))
    if found != r:
        raise WitnessFormatError(f"{found} group lines for r = {r}")
    if fault:
        raise WitnessFormatError(fault)
    try:
        return WitnessMap(num_vars=n, dull_width=d, domains=tuple(domains), codes=tuple(codes))
    except ValueError as exc:
        raise WitnessFormatError(str(exc)) from None
