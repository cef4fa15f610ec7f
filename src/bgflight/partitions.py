"""Set partitions of {0, ..., n}: families, marks, reductions and bijections.

A partition here always covers the full index set {0, ..., n} with disjoint
non-empty blocks.  Five families are distinguished:

``all``      no constraint;
``circ``     0 and n lie in the same block;
``baro``     0 and n lie in different blocks;
``circ_nc``  / ``baro_nc``: additionally *non-consecutive*, i.e. no block
             contains two adjacent integers.

A *marked* partition carries a distinguished index (the mark) on top of a
``circ`` partition, subject to the admissibility rule that every block not
containing the mark is either a singleton or straddles the mark (contains an
index strictly below and one strictly above it).  Removing all singleton
blocks other than possibly the mark's own block and relabelling yields the
*reduced* form; the inverse needs only the vector of gap multiplicities.
Reduced marked partitions split into a *diagonal* class (0 and the mark share
a block) and an *off-diagonal* class (they do not).

Ordered variants fix the block listing as part of the identity.  Conventions:
the block of 0 always comes first; off-diagonal marked partitions also pin
the mark's block last.  The canonical order of an unordered partition sorts
blocks by their minimum.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import CapacityError, InvalidInputError

MARKED_CLASSES = ("all", "reduced", "reduced_diag", "reduced_off")

#: Hard ceiling on the number of items any enumeration may produce.
DEFAULT_ENUMERATION_CAP = 10**7

Blocks = tuple[tuple[int, ...], ...]


def _check_cover(n: int, blocks: Blocks) -> None:
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise InvalidInputError("empty block")
        for j in b:
            if j in seen:
                raise InvalidInputError(f"index {j} appears in two blocks")
            seen.add(j)
    if seen != set(range(n + 1)):
        raise InvalidInputError(f"blocks do not cover 0..{n}")


class _Blocks:
    """What the three partition types share: a block listing of {0..n} and
    the label of each index (its block's position in that listing)."""

    def _set_blocks(self, n: int, blocks, canonical: bool) -> None:
        """Freeze ``blocks`` (sorted by minimum when ``canonical``), check
        they cover 0..n, and store them with their label map."""
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if canonical:
            blocks = tuple(sorted(blocks, key=min))
        _check_cover(n, blocks)
        labels = [-1] * (n + 1)
        for i, b in enumerate(blocks):
            for j in b:
                labels[j] = i
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "labels", tuple(labels))

    @classmethod
    def _unchecked(cls, labels, blocks, **fields):
        """An instance holding ``blocks`` and their ``labels`` as given,
        without the constructor's sorting and checks: for the enumerators,
        whose pairs are valid by construction."""
        obj = object.__new__(cls)
        fields.update(blocks=blocks, labels=labels)
        # in field order, as the constructor sets them: obj.__dict__ would
        # give every item a dict of its own (about 140 bytes each)
        for name in cls.__dataclass_fields__:
            object.__setattr__(obj, name, fields[name])
        return obj

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_of(self, j: int) -> int:
        return self.labels[j]

    def is_circ(self) -> bool:
        return self.labels[0] == self.labels[self.n]

    def is_nonconsecutive(self) -> bool:
        return all(self.labels[j] != self.labels[j + 1] for j in range(self.n))


@dataclass(frozen=True)
class Partition(_Blocks):
    """Unordered partition of {0, ..., n}; blocks stored in canonical order."""

    n: int
    blocks: Blocks
    labels: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._set_blocks(self.n, self.blocks, canonical=True)


@dataclass(frozen=True)
class OrderedPartition(_Blocks):
    """Partition with a significant block order."""

    n: int
    blocks: Blocks
    labels: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self._set_blocks(self.n, self.blocks, canonical=False)

    def is_baro_ordered(self) -> bool:
        return self.labels[0] == 0 and self.labels[self.n] == self.k - 1

    def unordered(self) -> Partition:
        return Partition(self.n, self.blocks)


@dataclass(frozen=True)
class MarkedPartition(_Blocks):
    """Admissible marked partition; ``ordered`` makes the listing significant."""

    mark: int
    blocks: Blocks
    ordered: bool = False
    n: int = field(init=False)
    labels: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = max(max(b) for b in self.blocks)
        object.__setattr__(self, "n", n)
        self._set_blocks(n, self.blocks, canonical=not self.ordered)
        if not 0 <= self.mark <= n:
            raise InvalidInputError("mark outside 0..n")

    def mu(self, i: int) -> int:
        """Left multiplicity of block i: |F_i intersect [0, mark]| - 1."""
        return sum(1 for j in self.blocks[i] if j <= self.mark) - 1

    def nu(self, i: int) -> int:
        """Right multiplicity of block i: |F_i intersect [mark, n]| - 1."""
        return sum(1 for j in self.blocks[i] if j >= self.mark) - 1

    def is_admissible(self) -> bool:
        """0 and n share a block; non-mark blocks are singletons or straddle."""
        if not self.is_circ():
            return False
        li = self.labels[self.mark]
        for i, b in enumerate(self.blocks):
            if i == li or len(b) == 1:
                continue
            if not (b[0] < self.mark < b[-1]):
                return False
        return True

    def is_reduced(self) -> bool:
        """No singleton block other than possibly the mark's own."""
        return all(len(b) > 1 or b == (self.mark,) for b in self.blocks)

    def is_diagonal(self) -> bool:
        return self.labels[0] == self.labels[self.mark]


def preceq(finer: Partition, coarser: Partition) -> bool:
    """Refinement predicate: every block of ``coarser`` is a union of blocks
    of ``finer``."""
    if finer.n != coarser.n:
        raise InvalidInputError("partitions of different index sets")
    return all(
        all(coarser.labels[j] == coarser.labels[b[0]] for j in b)
        for b in finer.blocks
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _rgs_partitions(n, k, circ=None, nc=False):
    """Partitions of {0..n} into exactly k blocks as canonical ``(labels,
    blocks)`` pairs, built as the recursion goes, in restricted-growth
    (lexicographic) order of the labels a_0..a_n.  circ=True forces
    a_n = a_0, circ=False forbids it; nc forbids equal adjacent labels."""
    total = n + 1
    if k < 1 or k > total:
        return
    a = [0] * total
    blocks = [[0]] + [[] for _ in range(k - 1)]

    def rec(j, used):
        if used + (total - j) < k:
            return
        last = j == n
        for lab in range(min(used, k - 1) + 1):
            if nc and a[j - 1] == lab:
                continue
            if last and circ is not None and (lab == 0) != circ:
                continue
            a[j] = lab
            blocks[lab].append(j)
            # the last index yields itself: one generator less per item
            if not last:
                yield from rec(j + 1, used + (lab == used))
            elif used + (lab == used) == k:
                yield tuple(a), tuple(map(tuple, blocks))
            blocks[lab].pop()

    yield from rec(1, 1) if total > 1 else iter([((0,), ((0,),))])


_FAMILY_FLAGS = {
    "all": (None, False),
    "circ": (True, False),
    "circ_nc": (True, True),
    "baro": (False, False),
    "baro_nc": (False, True),
}
FAMILIES = tuple(_FAMILY_FLAGS)


def _orderings(labels, blocks: Blocks, head: tuple, tail: tuple):
    """``(labels, listing)`` for every listing ``head + perm + tail`` of
    ``blocks``, with head and tail given as block positions and perm running
    over the permutations of the other positions in lexicographic order;
    ``labels`` is relabelled to each listing."""
    rest = tuple(i for i in range(len(blocks)) if i not in head + tail)
    rank = [0] * len(blocks)
    for perm in itertools.permutations(rest):
        order = head + perm + tail
        for pos, i in enumerate(order):
            rank[i] = pos
        yield (tuple(map(rank.__getitem__, labels)),
               tuple(blocks[i] for i in order))


def _capped(items, cap: int) -> list:
    """The list of ``items``; CapacityError once it would pass ``cap``."""
    out = []
    for item in items:
        out.append(item)
        if len(out) > cap:
            raise CapacityError(f"enumeration exceeds cap {cap}")
    return out


def enumerate_partitions(n, k, family="all", ordered=False,
                         cap=DEFAULT_ENUMERATION_CAP):
    """Exhaustive, duplicate-free list of partitions of {0..n} into k blocks.

    Unordered results come in lexicographic restricted-growth order with
    canonical block listing; ordered results expand each by its admissible
    block permutations.  Raises CapacityError beyond ``cap`` items.
    """
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    if not 0 <= k <= n + 1:
        raise InvalidInputError("need 0 <= k <= n+1")
    if family.startswith("baro") and k < 2:
        return []
    circ, nc = _FAMILY_FLAGS[family]

    def items():
        for labels, blocks in _rgs_partitions(n, k, circ=circ, nc=nc):
            if not ordered:
                yield Partition._unchecked(labels, blocks, n=n)
                continue
            # circ and baro list the block of 0 first, baro n's block last
            head = (0,) if circ is not None else ()
            tail = (labels[n],) if circ is False else ()
            for pair in _orderings(labels, blocks, head, tail):
                yield OrderedPartition._unchecked(*pair, n=n)

    return _capped(items(), cap)


def enumerate_marked(n, k, marked_class="all", ordered=False,
                     cap=DEFAULT_ENUMERATION_CAP):
    """Admissible marked partitions of {0..n} with k blocks.

    ``marked_class`` selects the full admissible set, the reduced subset, or
    its diagonal / off-diagonal parts.  Ordered listings put the block of 0
    first; the off-diagonal class additionally pins the mark's block last,
    so each unordered item expands to (k-1)! resp. (k-2)! orderings.
    """
    if marked_class not in MARKED_CLASSES:
        raise InvalidInputError(f"unknown marked class {marked_class!r}")
    if marked_class == "reduced_off" and k < 2:
        raise InvalidInputError("off-diagonal class requires k >= 2")

    def items():
        for labels, blocks in _rgs_partitions(n, k, circ=True, nc=False):
            for mark in range(n + 1):
                mp = MarkedPartition._unchecked(labels, blocks, mark=mark,
                                                ordered=False, n=n)
                if not mp.is_admissible():
                    continue
                if marked_class != "all":
                    if not mp.is_reduced():
                        continue
                    if marked_class == "reduced_diag" and not mp.is_diagonal():
                        continue
                    if marked_class == "reduced_off" and mp.is_diagonal():
                        continue
                if not ordered:
                    yield mp
                    continue
                tail = (labels[mark],) if marked_class == "reduced_off" else ()
                for pair in _orderings(labels, blocks, (0,), tail):
                    yield MarkedPartition._unchecked(*pair, mark=mark,
                                                     ordered=True, n=n)

    return _capped(items(), cap)


# ---------------------------------------------------------------------------
# Reduction by singleton removal
# ---------------------------------------------------------------------------

def reduce_marked(mp: MarkedPartition):
    """Remove singleton blocks (other than the mark's own) and relabel.

    Returns ``(reduced, gaps)`` where gaps[i] counts removed singletons
    between the i-th and (i+1)-th surviving index.  ``expand_marked``
    inverts.
    """
    if not mp.is_admissible():
        raise InvalidInputError("not an admissible marked partition")
    keep_blocks = [b for b in mp.blocks if len(b) > 1 or b == (mp.mark,)]
    kept = sorted(j for b in keep_blocks for j in b)
    rank = {j: i for i, j in enumerate(kept)}
    gaps = tuple(kept[i + 1] - kept[i] - 1 for i in range(len(kept) - 1))
    new_blocks = tuple(tuple(rank[j] for j in b) for b in keep_blocks)
    reduced = MarkedPartition(rank[mp.mark], new_blocks, ordered=mp.ordered)
    return reduced, gaps


def expand_marked(reduced: MarkedPartition, gaps) -> MarkedPartition:
    """Inverse of :func:`reduce_marked`: re-insert singletons into the gaps."""
    if len(gaps) != reduced.n:
        raise InvalidInputError("gap vector must have length n")
    pos = [0] * (reduced.n + 1)
    for i in range(1, reduced.n + 1):
        pos[i] = pos[i - 1] + 1 + gaps[i - 1]
    blocks = [tuple(pos[j] for j in b) for b in reduced.blocks]
    total = pos[reduced.n]
    kept = set(pos)
    blocks += [(j,) for j in range(total + 1) if j not in kept]
    return MarkedPartition(pos[reduced.mark], tuple(blocks),
                           ordered=reduced.ordered)


# ---------------------------------------------------------------------------
# Splitting at the mark
# ---------------------------------------------------------------------------

def split_plus_minus(mp: MarkedPartition):
    """Split an ordered reduced marked partition at its mark.

    The plus part keeps each block's indices in [0, mark]; the minus part
    reflects each block's indices in [mark, n] through n.  For diagonal input
    both halves have 0 and their endpoint in the first block; for
    off-diagonal input the endpoint sits in the last block.
    ``merge_plus_minus`` inverts.
    """
    if not mp.ordered:
        raise InvalidInputError("split requires an ordered marked partition")
    if not (mp.is_admissible() and mp.is_reduced()):
        raise InvalidInputError("split requires a reduced marked partition")
    ell, n = mp.mark, mp.n
    plus = tuple(tuple(j for j in b if j <= ell) for b in mp.blocks)
    minus = tuple(tuple(sorted(n - j for j in b if j >= ell))
                  for b in mp.blocks)
    if any(not b for b in plus) or any(not b for b in minus):
        raise InvalidInputError("mark does not straddle every block")
    return OrderedPartition(ell, plus), OrderedPartition(n - ell, minus)


def merge_plus_minus(plus: OrderedPartition,
                     minus: OrderedPartition) -> MarkedPartition:
    """Recombine split halves into the ordered marked partition."""
    if plus.k != minus.k:
        raise InvalidInputError("halves must have the same block count")
    ell = plus.n
    n = plus.n + minus.n
    blocks = tuple(
        tuple(sorted(set(pb) | {n - j for j in mb}))
        for pb, mb in zip(plus.blocks, minus.blocks)
    )
    return MarkedPartition(ell, blocks, ordered=True)


# ---------------------------------------------------------------------------
# Non-consecutive reduction (run contraction)
# ---------------------------------------------------------------------------

def nc_reduce(op: OrderedPartition):
    """Contract runs of consecutive same-block indices to single indices.

    Returns ``(contracted, mults)`` with ``mults[s]`` the number of indices
    absorbed into run starter s (index 0 included), so
    n = n' + sum(mults).  A non-consecutive input returns itself with a zero
    vector.  ``nc_expand`` inverts; block order survives.
    """
    lab = op.labels
    starters = [0] + [j for j in range(1, op.n + 1) if lab[j] != lab[j - 1]]
    mults = []
    for s, j in enumerate(starters):
        end = starters[s + 1] if s + 1 < len(starters) else op.n + 1
        mults.append(end - j - 1)
    rank = {j: s for s, j in enumerate(starters)}
    blocks = tuple(
        tuple(sorted(rank[j] for j in b if j in rank)) for b in op.blocks
    )
    return OrderedPartition(len(starters) - 1, blocks), tuple(mults)


def nc_expand(op: OrderedPartition, mults) -> OrderedPartition:
    """Inverse of :func:`nc_reduce`: expand run starter s into a run of
    1 + mults[s] consecutive indices."""
    if not op.is_nonconsecutive():
        raise InvalidInputError("expansion target must be non-consecutive")
    if len(mults) != op.n + 1:
        raise InvalidInputError("multiplicity vector must have length n+1")
    start = [0] * (op.n + 1)
    for s in range(1, op.n + 1):
        start[s] = start[s - 1] + 1 + mults[s - 1]
    blocks = tuple(
        tuple(sorted(itertools.chain.from_iterable(
            range(start[s], start[s] + 1 + mults[s]) for s in b)))
        for b in op.blocks
    )
    return OrderedPartition(start[op.n] + mults[op.n], blocks)


# ---------------------------------------------------------------------------
# Embedding and export
# ---------------------------------------------------------------------------

def iota_embed(p, values):
    """Spread k block values over n+1 positions: position j receives the
    value of its block.  Unordered partitions use canonical block order."""
    if len(values) != p.k:
        raise InvalidInputError(f"need {p.k} values, got {len(values)}")
    return [values[p.labels[j]] for j in range(p.n + 1)]


def to_diagram(obj) -> dict:
    """JSON-friendly description of the arc diagram of a partition:
    one circle per index, the filled mark if any, and one arc group per
    block with depth equal to its listing order."""
    mark = obj.mark if isinstance(obj, MarkedPartition) else None
    return {
        "n": obj.n,
        "circles": list(range(obj.n + 1)),
        "mark": mark,
        "blocks": [
            {"members": list(b), "depth": i + 1}
            for i, b in enumerate(obj.blocks)
        ],
    }


def weight_bound_pair(n: int, k: int):
    """Left and right side of the factorial weight bound over the circ family:
    sum over partitions of prod 1/|F_i|! against k^(n+1)/(n+1)!."""
    lhs = 0.0
    for p in enumerate_partitions(n, k, family="circ"):
        w = 1.0
        for b in p.blocks:
            w /= math.factorial(len(b))
        lhs += w
    rhs = k ** (n + 1) / math.factorial(n + 1)
    return lhs, rhs
