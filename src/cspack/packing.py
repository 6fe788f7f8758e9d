"""Set packing instances: text format, exact solver, verifier, compactness audit.

The decision problem: given a universe, a set family, and a parameter r, do r
pairwise disjoint sets exist? The solver is a depth-first search over set
indices with forward checking: each level holds the sets still disjoint from
the packing so far as a bitset over set indices, filtered by per-element
occurrence masks, and one node is one candidate popped from such a bitset.
It deliberately knows nothing about how an instance was produced, so hardness
claims about generated instances are exercised honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, islice, repeat
from operator import ge, or_
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TypeVar

from .cnf import read_int

if TYPE_CHECKING:
    from .reduction import WitnessMap

DEFAULT_NODE_BUDGET = 10_000_000

# Largest universe an instance may have. A set is stored as an int of up to
# universe_size bits (8 KiB at this bound), and building one from k IDs costs
# k additions of that width, so the constructor, the parser and the reduction
# refuse larger universes before any set is allocated.
MAX_UNIVERSE = 1 << 16

# Largest family an instance may have, in mask bits: set_count *
# universe_size. The masks take that many bits (256 MiB at this bound), and
# the solver's occurrence masks and level stack as many again, so the
# constructor, the parser and the reduction refuse a larger family before
# its masks are built.
MAX_FAMILY_BITS = 1 << 31

# Characters of instance text that parse_instance splits into lines at a time.
_READ_CHARS = 1 << 14

# Mask bytes per block of set lines that instance_blocks writes.
_WRITE_BYTES = 1 << 12

# Mask bytes per slice of sets that _byte_columns transposes at a time.
_TRANSPOSE_BYTES = 1 << 16

# parse_instance sums canonical IDs below this from a table (about 1 MiB); _set_line_mask reads other lines.
_CACHED_IDS = 1 << 12

_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")

# _BIT_DIGITS[b] maps a byte to b"1" if its bit b is set, else to b"0".
_BIT_DIGITS = [bytes(b"01"[v >> b & 1] for v in range(256)) for b in range(8)]

T = TypeVar("T")


class InstanceFormatError(ValueError):
    """Raised when instance text does not follow the expected format."""


def check_universe_size(universe_size: int) -> None:
    """Raise ValueError unless 0 <= universe_size <= MAX_UNIVERSE."""
    if universe_size < 0:
        raise ValueError(f"universe_size must be nonnegative, got {universe_size}")
    if universe_size > MAX_UNIVERSE:
        raise ValueError(f"universe_size {universe_size} exceeds MAX_UNIVERSE = {MAX_UNIVERSE}")


def check_family_size(set_count: int, universe_size: int) -> None:
    """Raise ValueError if set_count * universe_size exceeds MAX_FAMILY_BITS."""
    bits = set_count * universe_size
    if bits > MAX_FAMILY_BITS:
        raise ValueError(
            f"{set_count} sets over a universe of {universe_size} take {bits} mask bits, "
            f"above MAX_FAMILY_BITS = {MAX_FAMILY_BITS}"
        )


def _members(mask: int, universe: Sequence[T]) -> Iterator[T]:
    """The entries universe[e] for the set bits e of mask, in ascending order."""
    # bin() spells the bits most significant first, so reversed, digit e is bit e.
    return compress(universe, bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS))


@dataclass(frozen=True)
class SetPackingInstance:
    """Universe [0, universe_size), an ordered family of element sets, and the parameter r.

    Each set is stored as one int mask, with bit e set iff element e is a
    member; the family contains no duplicate sets. Masks are the only way
    to build an instance: from ID tuples, pass sum(1 << e for e in ids) per
    set. `sets` derives the strictly increasing ID tuples from the masks.
    """

    universe_size: int
    masks: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        check_universe_size(self.universe_size)
        if self.r < 1:
            raise ValueError(f"parameter r must be positive, got {self.r}")
        masks = tuple(self.masks)
        object.__setattr__(self, "masks", masks)
        check_family_size(len(masks), self.universe_size)
        if masks and (min(masks) < 0 or max(masks).bit_length() > self.universe_size):
            i, m = next((i, m) for i, m in enumerate(masks) if m < 0 or m.bit_length() > self.universe_size)
            if m < 0:
                raise ValueError(f"set {i}: mask must be nonnegative")
            raise ValueError(f"set {i}: element ID {m.bit_length() - 1} out of range [0, {self.universe_size})")
        if len(set(masks)) != len(masks):
            raise ValueError("set family contains duplicate sets")

    @property
    def set_count(self) -> int:
        return len(self.masks)

    @cached_property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Every set as a strictly increasing tuple of element IDs."""
        ids = range(self.universe_size)
        return tuple(tuple(_members(m, ids)) for m in self.masks)


def parse_instance(text: str | Iterable[str]) -> SetPackingInstance:
    """Parse the instance format; see serialize_instance for the grammar.

    text is the whole text or an iterable of consecutive pieces of it, such
    as blocks read from a file. Its lines are read as one stream
    (text_lines), so they and their numbers are those of text.splitlines().
    The header's universe size is checked against MAX_UNIVERSE, and its set
    count times universe size against MAX_FAMILY_BITS, before any set line
    is read. Each of the next set_count lines becomes a mask as it is read,
    by _set_line_mask unless the _CACHED_IDS table covers it; beyond the
    masks and one block (or one longer line), only that line's IDs are held,
    as small ints. The lines left are then counted: a fault in one of those
    lines precedes a count mismatch.
    """
    lines = text_lines(text)
    header = next(lines, None)
    if header is None:
        raise InstanceFormatError("empty instance text")
    head = header.split()
    if len(head) != 5 or head[0] != "p" or head[1] != "sp":
        raise InstanceFormatError(f"malformed header line: {header!r}")
    try:
        universe_size, set_count, r = map(read_int, head[2:])
    except ValueError:
        raise InstanceFormatError(f"malformed header line: {header!r}") from None
    try:
        check_universe_size(universe_size)
        check_family_size(set_count, universe_size)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    bit_of = {str(e): 1 << e for e in range(min(universe_size, _CACHED_IDS))}
    masks: list[int] = []
    for lineno, line in enumerate(islice(lines, max(set_count, 0)), 2):
        parts = line.split()
        if not parts or parts[0] != "s":
            raise InstanceFormatError(f"line {lineno}: expected a set line starting with 's'")
        k = len(parts) - 2
        try:  # a repeated ID carries and loses a bit, so k set bits in order are k distinct IDs
            bits = list(map(bit_of.__getitem__, parts[2:]))
        except KeyError:
            bits = []  # a token outside the table: no k set bits, so _set_line_mask reads the line
        if k < 0 or parts[1] != str(k) or (mask := sum(bits)).bit_count() != k or bits != sorted(bits):
            mask = _set_line_mask(parts, lineno, universe_size)
        masks.append(mask)
    found = len(masks) + sum(1 for _ in lines)
    if found != set_count:
        raise InstanceFormatError(f"header declares {set_count} sets but found {found} set lines")
    try:
        return SetPackingInstance(universe_size=universe_size, masks=tuple(masks), r=r)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def text_lines(text: str | Iterable[str]) -> Iterator[str]:
    """The lines of text, or of the joined pieces of an iterable of text, one at a time.

    A whole text is read _READ_CHARS characters at a time. The lines are
    split a block of pieces at a time (_line_blocks), so they are those of
    the joined text's splitlines(), and beyond them only one block (or one
    longer line) is held.
    """
    pieces = (text[i : i + _READ_CHARS] for i in range(0, len(text), _READ_CHARS)) if isinstance(text, str) else text
    return chain.from_iterable(_line_blocks(pieces))


def _line_blocks(pieces: Iterable[str]) -> Iterator[list[str]]:
    """The lines of the joined pieces, a list per run of pieces up to a "\n".

    Cutting only after a "\n" keeps every line break, "\r\n" included,
    inside one block, so the lists concatenate to the joined text's
    splitlines().
    """
    carry = ""
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield (carry + piece[:cut]).splitlines()
            carry = piece[cut:]
        else:
            carry += piece
    if carry:
        yield carry.splitlines()


def _set_line_mask(parts: list[str], lineno: int, universe_size: int) -> int:
    """The mask of a split set line, checked for syntax, then count, each ID's range, strict increase."""
    try:
        declared, *ids = map(read_int, parts[1:])
    except ValueError:
        raise InstanceFormatError(f"line {lineno}: malformed set line") from None
    if declared != len(ids):
        raise InstanceFormatError(f"line {lineno}: declared {declared} IDs but found {len(ids)}")
    bitmap = bytearray((universe_size + 7) // 8)  # the mask's bytes, so no big int per ID
    for e in ids:
        if not 0 <= e < universe_size:
            raise InstanceFormatError(f"line {lineno}: element ID {e} out of range [0, {universe_size})")
        bitmap[e >> 3] |= 1 << (e & 7)
    if any(map(ge, ids, ids[1:])):
        raise InstanceFormatError(f"line {lineno}: element IDs must be strictly increasing")
    return int.from_bytes(bitmap, "little")


def serialize_instance(instance: SetPackingInstance) -> str:
    """Byte-deterministic text form: the join of instance_blocks(instance).

    Line 1: "p sp <universe_size> <set_count> <r>". Then one line per set:
    "s <k> <id_1> ... <id_k>" with strictly increasing 0-based IDs. LF line
    endings, no trailing whitespace.
    """
    return "".join(instance_blocks(instance))


def instance_blocks(instance: SetPackingInstance) -> Iterator[str]:
    """serialize_instance's text in consecutive blocks, to write without holding it whole.

    The first block is the header line. Each later one holds the set lines
    of _WRITE_BYTES mask bytes (at least one line): a mask byte spells at
    most 8 IDs of at most 6 characters, so a block stays within about 48
    characters per byte.

    A set's IDs are written a byte of its mask at a time. Byte column j,
    from _byte_columns, holds IDs 8j to 8j + 7, and its table maps a byte
    value to the " <id>" names of its set bits; a line is its "s <k>" head
    joined to one table entry per column. The columns and tables, built
    before the first set line, are most of what this holds beyond the
    masks. A column with 256 or more nonzero bytes gets all 256 entries,
    any other only the values that occur in it, so the tables stay within
    a constant factor of the masks' memory: two sets at MAX_UNIVERSE peak
    at about 9.5 MB in all, not the 165 MB of full tables. A full table
    costs one concatenation per entry, so on the workloads' many-set
    columns it is cheaper than a dict of entries built one by one.
    """
    yield f"p sp {instance.universe_size} {instance.set_count} {instance.r}\n"
    width = (instance.universe_size + 7) // 8
    names = [f" {e}" for e in range(8 * width)]
    entries = []  # per column, its bytes read through its table
    for j, column in enumerate(_byte_columns(instance.masks, width)):
        if not (nonzero := len(column) - column.count(0)):
            continue  # an all-zero column adds nothing to any line
        names_j = names[8 * j : 8 * j + 8]
        if nonzero >= 256:
            table = [""]
            for name in names_j:  # doubling: entry v | 1 << b is entry v plus the name of bit b
                table += [entry + name for entry in table]
        else:
            table = {v: "".join(_members(v, names_j)) for v in set(column)}
        entries.append(map(table.__getitem__, column))
    heads = map("s {}".format, map(int.bit_count, instance.masks))
    lines = map("".join, zip(heads, *entries, repeat("\n")))
    step = max(1, _WRITE_BYTES // max(width, 1))
    while block := "".join(islice(lines, step)):
        yield block


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: verdict "yes" (with the packing), "no", or "budget".

    "budget" means the node budget ran out before the search space was
    exhausted; it is never a claim about the instance. nodes counts the
    candidates the search popped from its filtered candidate bitsets, so it
    is deterministic and monotone in budget.
    """

    verdict: str
    packing: tuple[int, ...] | None
    nodes: int


def _occurrence_masks(masks: Sequence[int], universe_size: int) -> list[int]:
    """occ[e]: the mask over set indices with bit i set iff set i contains element e.

    Byte column j, reversed to put the highest set index first and read
    through the digit table of bit b, spells occ[8j + b] in binary. Each
    column is dropped once used, so beyond the result this holds the columns.
    """
    occ: list[int] = []
    columns = _byte_columns(masks, (universe_size + 7) // 8)
    for j, column in enumerate(columns):
        columns[j] = bytearray()  # hold each column only until its elements are built
        column = column[::-1] or b"\0"  # highest set index first; no sets spell 0
        occ += [int(column.translate(digits), 2) for digits in _BIT_DIGITS[: universe_size - 8 * j]]
    return occ


def _byte_columns(masks: Sequence[int], width: int) -> list[bytearray]:
    """Column j: byte j of every mask, little-endian, in set order.

    Grown _TRANSPOSE_BYTES of rows at a time into one bytearray: beyond the columns, one slice.
    """
    step = max(1, _TRANSPOSE_BYTES // max(width, 1))
    columns = [bytearray() for _ in range(width)]
    for base in range(0, len(masks), step):
        rows = bytearray()
        for m in masks[base : base + step]:
            rows += m.to_bytes(width, "little")
        for j, column in enumerate(columns):
            column += rows[j::width]
    return columns


def solve_exact(instance: SetPackingInstance, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Decide whether r pairwise disjoint sets exist, by forward checking.

    Each search level holds its candidates as a bitset over set indices and
    pops them lowest index first; each pop is one node. Choosing set i passes
    the next level only the remaining candidates disjoint from it, found by
    clearing the occurrence masks of i's elements, and a level stops once
    fewer candidates remain than sets are still needed. Every feasible branch
    is tried in ascending index order, so the first packing found is the
    lexicographically least index list. Of r disjoint sets at most one is
    empty, so r > universe_size + 1 is "no" with 0 nodes, and the levels, an
    explicit stack, hold at most universe_size + 1 bitsets of set_count bits:
    the order of the occurrence masks, built once before the search. Raises
    ValueError for a budget below 1.
    """
    if budget < 1:
        raise ValueError(f"node budget must be positive, got {budget}")
    r = instance.r
    masks = instance.masks
    count = len(masks)
    if r > min(count, instance.universe_size + 1):
        return SolveResult(verdict="no", packing=None, nodes=0)
    occ = _occurrence_masks(masks, instance.universe_size)

    nodes = 0
    chosen: list[int] = []
    levels = [(1 << count) - 1]  # levels[k]: candidates left for set k + 1
    while True:
        candidates = levels[-1]
        need = r - len(chosen)
        if candidates.bit_count() < need:
            if not chosen:
                return SolveResult(verdict="no", packing=None, nodes=nodes)
            levels.pop()
            chosen.pop()
            continue
        low = candidates & -candidates
        levels[-1] = candidates = candidates ^ low
        nodes += 1
        if nodes > budget:
            return SolveResult(verdict="budget", packing=None, nodes=nodes)
        i = low.bit_length() - 1
        chosen.append(i)
        if need == 1:
            return SolveResult(verdict="yes", packing=tuple(chosen), nodes=nodes)
        levels.append(candidates & ~reduce(or_, _members(masks[i], occ), 0))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


def verify_packing(instance: SetPackingInstance, indices: Sequence[int]) -> VerifyResult:
    """Check that indices name r distinct, valid, pairwise disjoint sets.

    Returns a verdict with the first violated condition as the reason; never
    raises.
    """
    indices = list(indices)
    if len(indices) != instance.r:
        return VerifyResult(False, f"expected {instance.r} indices, got {len(indices)}")
    seen: set[int] = set()
    for idx in indices:
        if not isinstance(idx, int) or isinstance(idx, bool):
            return VerifyResult(False, f"non-integer index {idx!r}")
        if idx in seen:
            return VerifyResult(False, f"duplicate index {idx}")
        seen.add(idx)
    for idx in indices:
        if not 0 <= idx < instance.set_count:
            return VerifyResult(False, f"index {idx} out of range [0, {instance.set_count})")
    masks = instance.masks
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            shared = masks[indices[a]] & masks[indices[b]]
            if shared:
                lowest = (shared & -shared).bit_length() - 1
                return VerifyResult(
                    False,
                    f"sets {indices[a]} and {indices[b]} intersect (share element {lowest})",
                )
    return VerifyResult(True, "ok")


@dataclass(frozen=True)
class CompactnessReport:
    """How small the universe is relative to r^3 * log2(set_count).

    ratio is reported, not judged: the interesting instances keep it bounded
    by a constant, but what constant depends on the construction.
    """

    universe_size: int
    set_count: int
    r: int
    log2_set_count: float
    ratio: float
    grid_width: int | None = None
    iss_width: int | None = None
    dull_width: int | None = None


def audit_compactness(
    instance: SetPackingInstance,
    witness: "WitnessMap | None" = None,
) -> CompactnessReport:
    """Compute the compactness ratio universe_size / (r^3 * log2(set_count)).

    With a witness map, also break the universe into the grid, tag, and dull
    widths the witness lays out; reduction.check_witness checks that it builds
    the instance. Requires at least 2 sets, since log2(1) = 0.
    """
    if instance.set_count < 2:
        raise ValueError(f"need at least 2 sets to audit, got {instance.set_count}")
    log2_count = math.log2(instance.set_count)
    return CompactnessReport(
        universe_size=instance.universe_size,
        set_count=instance.set_count,
        r=instance.r,
        log2_set_count=log2_count,
        ratio=instance.universe_size / (instance.r**3 * log2_count),
        grid_width=witness.grid_size if witness is not None else None,
        iss_width=witness.iss_total if witness is not None else None,
        dull_width=witness.dull_width if witness is not None else None,
    )
