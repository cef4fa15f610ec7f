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

Enumeration works on label rows: an (N, n + 1) integer array with one row
per item, whose entry j is the position of index j's block in the item's
listing (for an unordered item, the restricted-growth string a_0..a_n).
:func:`partition_rows` grows the rows of a family one index at a time, in
lexicographic order, with the family rules as masks; the ordered listings
are one relabelling of those rows per block permutation;
:func:`marked_rows` picks the admissible (row, mark) pairs of a marked class
by one mask over the ``circ`` rows.  Work proceeds in pieces of at most
``ROW_CHUNK`` rows, and the cap on the item count is checked before a piece
past it is built.  :func:`enumerate_partitions` and
:func:`enumerate_marked` build the partition objects from those rows.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidInputError

MARKED_CLASSES = ("all", "reduced", "reduced_diag", "reduced_off")

#: Hard ceiling on the number of items any enumeration may produce.
DEFAULT_ENUMERATION_CAP = 10**7

#: Rows per whole-array step of the enumeration core and of the JSONL
#: writer: what bounds their working memory.
ROW_CHUNK = 1 << 14

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
        """Freeze ``blocks``, check they cover 0..n, and store them (sorted
        by minimum when ``canonical``) with their label map."""
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        _check_cover(n, blocks)
        if canonical:
            blocks = tuple(sorted(blocks, key=min))
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
        n = max((j for b in self.blocks for j in b), default=-1)
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

_FAMILY_FLAGS = {
    "all": (None, False),
    "circ": (True, False),
    "circ_nc": (True, True),
    "baro": (False, False),
    "baro_nc": (False, True),
}
FAMILIES = tuple(_FAMILY_FLAGS)


def _rgs_chunks(n, k, circ=None, nc=False):
    """Label rows a_0..a_n of the partitions of {0..n} into exactly k
    blocks, in restricted-growth (lexicographic) order, as arrays of at most
    ROW_CHUNK rows.  circ=True forces a_n = a_0, circ=False forbids it; nc
    forbids equal adjacent labels.

    The rows grow one index at a time, every prefix repeated once per
    candidate label in label order; a prefix is dropped as soon as too few
    indices remain to open the missing blocks.  Prefixes are split into
    pieces before a step would pass ROW_CHUNK rows, so memory stays bounded
    whatever the number of rows."""
    if k < 1 or k > n + 1:
        return
    dtype = np.min_scalar_type(k)

    def grow(rows, used):
        j = rows.shape[1]
        if not len(rows):
            return
        if j > n:
            yield rows
            return
        step = max(ROW_CHUNK // k, 1)
        if len(rows) > step:
            for s in range(0, len(rows), step):
                yield from grow(rows[s:s + step], used[s:s + step])
            return
        width = np.minimum(used, k - 1) + 1
        parent = np.repeat(np.arange(len(rows)), width)
        lab = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width,
                                                 width)
        used = used[parent] + (lab == used[parent])
        # index n opens no block when it must join the block of 0
        keep = used + (n - j) - (circ is True and j < n) >= k
        if nc:
            keep &= lab != rows[parent, j - 1]
        if circ is not None and j == n:
            keep &= (lab == 0) == circ
        if circ and nc and j == n - 1:
            keep &= lab != 0
        grown = np.empty((keep.sum(), j + 1), dtype)
        grown[:, :j] = rows[parent[keep]]
        grown[:, j] = lab[keep]
        yield from grow(grown, used[keep])

    yield from grow(np.zeros((1, 1), dtype), np.ones(1, np.intp))


def _listed(rows, k, head, tail):
    """Every listing of each row's blocks, item-major, as ``(rows, source)``:
    the relabelled rows (label = position in the listing) and the index of
    the row each came from.  A listing is ``head + perm + tail`` in block
    positions, with head the block of 0 when ``head``, tail the block of
    label ``tail[i]`` for row i unless ``tail`` is None, and perm running
    over the permutations of the other blocks in lexicographic order."""
    out = []
    tails = [None] if tail is None else np.unique(tail).tolist()
    for t in tails:
        first = (0,) if head else ()
        last = () if t is None else (t,)
        rest = [b for b in range(k) if b not in first + last]
        orders = np.array([first + perm + last
                           for perm in itertools.permutations(rest)],
                          dtype=np.intp).reshape(-1, k)
        # rank[p, b]: the position of block b in listing p
        rank = np.argsort(orders, axis=1).astype(rows.dtype)
        sel = (np.arange(len(rows)) if t is None
               else np.flatnonzero(tail == t))
        out.append((sel, rank.T[rows[sel]].transpose(0, 2, 1)))
    listings = out[0][1].shape[1] if out else 1
    source = np.repeat(np.arange(len(rows)), listings)
    listed = np.empty((len(rows), listings, rows.shape[1]), rows.dtype)
    for sel, relabelled in out:
        listed[sel] = relabelled
    return listed.reshape(-1, rows.shape[1]), source


def _marked_mask(rows, k, marked_class):
    """(row, mark) -> whether mark on that circ row is an admissible marked
    partition of ``marked_class``: every block without the mark is a
    singleton or straddles it; the reduced classes keep no singleton but
    the mark's own; diagonal puts the mark in the block of 0."""
    width = rows.shape[1]
    # member[r, j, b]: index j lies in block b of row r
    member = rows[:, :, None] == np.arange(k)
    size = member.sum(axis=1)[:, None, :]
    lo = member.argmax(axis=1)[:, None, :]
    hi = (width - 1 - member[:, ::-1].argmax(axis=1))[:, None, :]
    mark = np.arange(width)[None, :, None]
    mask = ((size == 1) | ((lo < mark) & (mark < hi)) | member).all(axis=2)
    if marked_class != "all":
        mask &= ((size > 1) | member).all(axis=2)
    if marked_class == "reduced_diag":
        mask &= rows == 0
    elif marked_class == "reduced_off":
        mask &= rows != 0
    return mask


def _check_cap(count, cap):
    if count > cap:
        raise CapacityError(f"enumeration exceeds cap {cap}")


def partition_rows(n, k, family="all", ordered=False,
                   cap=DEFAULT_ENUMERATION_CAP):
    """Label rows of the partitions of {0..n} into k blocks of ``family``:
    an (N, n + 1) integer array whose row i gives, for each index, the
    position of its block in item i's listing.  The rows and their order
    are those of :func:`enumerate_partitions`; CapacityError beyond ``cap``
    rows, before any listing past it is built."""
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}")
    if not 0 <= k <= n + 1:
        raise InvalidInputError("need 0 <= k <= n+1")
    circ, nc = _FAMILY_FLAGS[family]
    parts = [np.zeros((0, n + 1), np.min_scalar_type(k))]
    if family.startswith("baro") and k < 2:
        return parts[0]
    # circ and baro list the block of 0 first, baro n's block last
    head = circ is not None
    pinned = head + (circ is False)
    listings = math.factorial(max(k - pinned, 0)) if ordered else 1
    count = 0
    for rows in _rgs_chunks(n, k, circ=circ, nc=nc):
        count += len(rows) * listings
        _check_cap(count, cap)
        if ordered:
            rows = _listed(rows, k, head, rows[:, n] if circ is False
                           else None)[0]
        parts.append(rows)
    return np.concatenate(parts)


def marked_rows(n, k, marked_class="all", ordered=False,
                cap=DEFAULT_ENUMERATION_CAP):
    """``(rows, marks)`` of the admissible marked partitions of {0..n} with
    k blocks in ``marked_class``: label rows as in :func:`partition_rows`
    and the mark of each, in the order of :func:`enumerate_marked`;
    CapacityError beyond ``cap`` rows."""
    if marked_class not in MARKED_CLASSES:
        raise InvalidInputError(f"unknown marked class {marked_class!r}")
    if marked_class == "reduced_off" and k < 2:
        raise InvalidInputError("off-diagonal class requires k >= 2")
    off = marked_class == "reduced_off"
    listings = math.factorial(max(k - 1 - off, 0)) if ordered else 1
    parts = [np.zeros((0, max(n + 1, 0)), np.min_scalar_type(k))]
    marks = [np.zeros(0, np.intp)]
    count = 0
    for rows in _rgs_chunks(n, k, circ=True):
        item, mark = np.nonzero(_marked_mask(rows, k, marked_class))
        count += len(item) * listings
        _check_cap(count, cap)
        rows = rows[item]
        if ordered:
            rows, source = _listed(rows, k, True,
                                   rows[np.arange(len(rows)), mark]
                                   if off else None)
            mark = mark[source]
        parts.append(rows)
        marks.append(mark)
    return np.concatenate(parts), np.concatenate(marks)


def _block_tuples(rows, k):
    """The listing of each label row (a list) as a tuple of blocks: block i
    holds the indices of label i in ascending order."""
    out = []
    for labels in rows:
        blocks = [[] for _ in range(k)]
        for j, label in enumerate(labels):
            blocks[label].append(j)
        out.append(tuple(map(tuple, blocks)))
    return out


def _block_sizes(rows, k):
    """(N, k) array: the size of each block of each label row."""
    offset = k * np.arange(len(rows))[:, None]
    return np.bincount((rows + offset).ravel(),
                       minlength=len(rows) * k).reshape(len(rows), k)


def enumerate_partitions(n, k, family="all", ordered=False,
                         cap=DEFAULT_ENUMERATION_CAP):
    """Exhaustive, duplicate-free list of partitions of {0..n} into k blocks.

    Unordered results come in lexicographic restricted-growth order with
    canonical block listing; ordered results expand each by its admissible
    block permutations.  Raises CapacityError beyond ``cap`` items.
    """
    cls = OrderedPartition if ordered else Partition
    rows = partition_rows(n, k, family, ordered=ordered, cap=cap).tolist()
    return [cls._unchecked(tuple(labels), blocks, n=n)
            for labels, blocks in zip(rows, _block_tuples(rows, k))]


def enumerate_marked(n, k, marked_class="all", ordered=False,
                     cap=DEFAULT_ENUMERATION_CAP):
    """Admissible marked partitions of {0..n} with k blocks.

    ``marked_class`` selects the full admissible set, the reduced subset, or
    its diagonal / off-diagonal parts.  Ordered listings put the block of 0
    first; the off-diagonal class additionally pins the mark's block last,
    so each unordered item expands to (k-1)! resp. (k-2)! orderings.
    """
    rows, marks = marked_rows(n, k, marked_class, ordered=ordered, cap=cap)
    rows = rows.tolist()
    return [MarkedPartition._unchecked(tuple(labels), blocks, mark=mark,
                                       ordered=ordered, n=n)
            for labels, blocks, mark in zip(rows, _block_tuples(rows, k),
                                            marks.tolist())]


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
    sizes = _block_sizes(partition_rows(n, k, family="circ"), k)
    factorials = np.array([math.factorial(m) for m in range(n + 2)], float)
    # block by block and row by row, as a loop over the items would round
    w = np.ones(len(sizes))
    for column in sizes.T:
        w /= factorials[column]
    lhs = float(np.cumsum(w)[-1]) if len(w) else 0.0
    rhs = k ** (n + 1) / math.factorial(n + 1)
    return lhs, rhs
