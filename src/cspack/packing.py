"""Set packing instances: text format, exact solver, verifier, compactness audit.

The decision problem: given a universe, a set family, and a parameter r, do r
pairwise disjoint sets exist? The solver is a plain depth-first search over
set indices with bit-vector disjointness tests. It deliberately knows nothing
about how an instance was produced, so hardness claims about generated
instances are exercised honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TypeVar

if TYPE_CHECKING:
    from .reduction import WitnessMap

DEFAULT_NODE_BUDGET = 10_000_000

# Largest universe an instance may have. A set is stored as an int of up to
# universe_size bits (8 KiB at this bound), and building one from k IDs costs
# k additions of that width, so the constructor, the parser and the reduction
# refuse larger universes before any set is allocated.
MAX_UNIVERSE = 1 << 16

# parse_instance keeps the bit of each canonically spelled ID below this
# bound after its first use, which caps that cache at about 1 MiB.
_CACHED_IDS = 1 << 12

_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")

T = TypeVar("T")


class InstanceFormatError(ValueError):
    """Raised when instance text does not follow the expected format."""


def check_universe_size(universe_size: int) -> None:
    """Raise ValueError unless 0 <= universe_size <= MAX_UNIVERSE."""
    if universe_size < 0:
        raise ValueError(f"universe_size must be nonnegative, got {universe_size}")
    if universe_size > MAX_UNIVERSE:
        raise ValueError(f"universe_size {universe_size} exceeds MAX_UNIVERSE = {MAX_UNIVERSE}")


def mask_of(ids: Iterable[int]) -> int:
    """The mask with bit e set for every element ID e in ids."""
    mask = 0
    for e in ids:
        mask |= 1 << e
    return mask


def _members(mask: int, universe: Sequence[T]) -> Iterator[T]:
    """The entries universe[e] for the set bits e of mask, in ascending order."""
    # bin() spells the bits most significant first, so reversed, digit e is bit e.
    return compress(universe, bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS))


@dataclass(frozen=True)
class SetPackingInstance:
    """Universe [0, universe_size), an ordered family of element sets, and the parameter r.

    Each set is stored as one int mask, with bit e set iff element e is a
    member; the family contains no duplicate sets. `sets` derives the
    strictly increasing ID tuples from the masks, and `from_sets` builds an
    instance from such tuples.
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
        if masks and (min(masks) < 0 or max(masks).bit_length() > self.universe_size):
            i, m = next((i, m) for i, m in enumerate(masks) if m < 0 or m.bit_length() > self.universe_size)
            if m < 0:
                raise ValueError(f"set {i}: mask must be nonnegative")
            raise ValueError(f"set {i}: element ID {m.bit_length() - 1} out of range [0, {self.universe_size})")
        if len(set(masks)) != len(masks):
            raise ValueError("set family contains duplicate sets")

    @classmethod
    def from_sets(cls, universe_size: int, sets: Iterable[Sequence[int]], r: int) -> SetPackingInstance:
        """Build an instance from sets given as strictly increasing ID sequences."""
        check_universe_size(universe_size)
        masks = []
        for i, ids in enumerate(sets):
            prev = -1
            mask = 0
            for e in ids:
                if e <= prev:
                    raise ValueError(f"set {i}: element IDs must be strictly increasing")
                if not 0 <= e < universe_size:
                    raise ValueError(f"set {i}: element ID {e} out of range [0, {universe_size})")
                mask |= 1 << e
                prev = e
            masks.append(mask)
        return cls(universe_size=universe_size, masks=tuple(masks), r=r)

    @property
    def set_count(self) -> int:
        return len(self.masks)

    @cached_property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Every set as a strictly increasing tuple of element IDs."""
        ids = range(self.universe_size)
        return tuple(tuple(_members(m, ids)) for m in self.masks)


def parse_instance(text: str) -> SetPackingInstance:
    """Parse the instance format; see serialize_instance for the grammar.

    The header's universe size is checked against MAX_UNIVERSE before any
    set line is read, and each set line becomes a mask as it is read.
    """
    lines = text.splitlines()
    if not lines:
        raise InstanceFormatError("empty instance text")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "p" or head[1] != "sp":
        raise InstanceFormatError(f"malformed header line: {lines[0]!r}")
    try:
        universe_size, set_count, r = int(head[2]), int(head[3]), int(head[4])
    except ValueError:
        raise InstanceFormatError(f"malformed header line: {lines[0]!r}") from None
    try:
        check_universe_size(universe_size)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    if len(lines) - 1 != set_count:
        raise InstanceFormatError(f"header declares {set_count} sets but found {len(lines) - 1} set lines")
    bit_of: dict[str, int] = {}  # ID token -> its bit, for checked tokens (see _id_bit)
    masks: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts or parts[0] != "s":
            raise InstanceFormatError(f"line {lineno}: expected a set line starting with 's'")
        try:
            k = int(parts[1])
        except (ValueError, IndexError):
            raise InstanceFormatError(f"line {lineno}: malformed set line") from None
        tokens = parts[2:]
        if len(tokens) != k:
            raise InstanceFormatError(f"line {lineno}: declared {k} IDs but found {len(tokens)}")
        try:
            bits = list(map(bit_of.__getitem__, tokens))
        except KeyError:
            bits = [_id_bit(token, lineno, universe_size, bit_of) for token in tokens]
        # Distinct bits sum to their OR; a repeated ID carries and loses a bit.
        mask = sum(bits)
        if mask.bit_count() != k or bits != sorted(bits):
            raise InstanceFormatError(f"line {lineno}: element IDs must be strictly increasing")
        masks.append(mask)
    try:
        return SetPackingInstance(universe_size=universe_size, masks=tuple(masks), r=r)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def _id_bit(token: str, lineno: int, universe_size: int, cache: dict[str, int]) -> int:
    """The bit of one ID token of a set line, after checking it; caches canonical low IDs."""
    try:
        e = int(token)
    except ValueError:
        raise InstanceFormatError(f"line {lineno}: malformed set line") from None
    if not 0 <= e < universe_size:
        raise InstanceFormatError(f"line {lineno}: element ID {e} out of range [0, {universe_size})")
    bit = 1 << e
    if e < _CACHED_IDS and token == str(e):
        cache[token] = bit
    return bit


def serialize_instance(instance: SetPackingInstance) -> str:
    """Byte-deterministic text form.

    Line 1: "p sp <universe_size> <set_count> <r>". Then one line per set:
    "s <k> <id_1> ... <id_k>" with strictly increasing 0-based IDs. LF line
    endings, no trailing whitespace.
    """
    names = [str(e) for e in range(instance.universe_size)]
    lines = [f"p sp {instance.universe_size} {instance.set_count} {instance.r}"]
    for m in instance.masks:
        lines.append(" ".join(["s", str(m.bit_count()), *_members(m, names)]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: verdict "yes" (with the packing), "no", or "budget".

    "budget" means the node budget ran out before the search space was
    exhausted; it is never a claim about the instance. nodes counts candidate
    examinations in the DFS, so it is deterministic and monotone in budget.
    """

    verdict: str
    packing: tuple[int, ...] | None
    nodes: int


def solve_exact(instance: SetPackingInstance, budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Decide whether r pairwise disjoint sets exist, by ordered DFS.

    Branches on set indices in ascending order, keeps the union of chosen
    sets as a bit-vector, skips candidates that intersect it, and cuts a
    level short once too few indices remain to complete a packing. The first
    packing found is therefore the lexicographically least index list.
    Raises ValueError for a budget below 1.
    """
    if budget < 1:
        raise ValueError(f"node budget must be positive, got {budget}")
    r = instance.r
    masks = instance.masks
    count = len(masks)
    if r > count:
        return SolveResult(verdict="no", packing=None, nodes=0)

    nodes = 0
    chosen: list[int] = []

    def extend(start: int, union: int) -> str:
        nonlocal nodes
        need = r - len(chosen)
        if need == 0:
            return "yes"
        for i in range(start, count - need + 1):
            nodes += 1
            if nodes > budget:
                return "budget"
            if masks[i] & union:
                continue
            chosen.append(i)
            status = extend(i + 1, union | masks[i])
            if status != "no":
                if status == "budget":
                    chosen.pop()
                return status
            chosen.pop()
        return "no"

    verdict = extend(0, 0)
    if verdict == "yes":
        return SolveResult(verdict="yes", packing=tuple(chosen), nodes=nodes)
    return SolveResult(verdict=verdict, packing=None, nodes=nodes)


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
        if not isinstance(idx, int):
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

    With a witness map, also break the universe into its grid, tag, and dull
    components and cross-check its r, universe and set count against the
    instance. Requires at least 2 sets, since log2(1) = 0.
    """
    if instance.set_count < 2:
        raise ValueError(f"need at least 2 sets to audit, got {instance.set_count}")
    log2_count = math.log2(instance.set_count)
    ratio = instance.universe_size / (instance.r**3 * log2_count)
    grid = iss = dull = None
    if witness is not None:
        layout = witness.layout
        grid = layout.grid_size
        iss = layout.iss_total
        dull = layout.dull_width
        if witness.r != instance.r:
            raise ValueError(f"witness r {witness.r} does not match instance r {instance.r}")
        if layout.universe_size != instance.universe_size:
            raise ValueError(
                f"witness universe {layout.universe_size} does not match instance {instance.universe_size}"
            )
        if witness.core_count + witness.pad_count != instance.set_count:
            raise ValueError(
                f"witness set count {witness.core_count + witness.pad_count} "
                f"does not match instance {instance.set_count}"
            )
    return CompactnessReport(
        universe_size=instance.universe_size,
        set_count=instance.set_count,
        r=instance.r,
        log2_set_count=log2_count,
        ratio=ratio,
        grid_width=grid,
        iss_width=iss,
        dull_width=dull,
    )
