import functools
import itertools
import math

import numpy as np
import pytest

from bgflight import partitions as pa
from bgflight.errors import CapacityError, InvalidInputError


def bell_numbers(m):
    """Bell numbers B_0..B_m via the Bell triangle (independent oracle)."""
    rows = [[1]]
    for _ in range(m):
        prev = rows[-1]
        row = [prev[-1]]
        for x in prev:
            row.append(row[-1] + x)
        rows.append(row)
    return [r[0] for r in rows]


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_basic_counts():
    assert len(pa.enumerate_partitions(2, 2)) == 3
    # total over k equals the Bell number of n+1
    bells = bell_numbers(9)
    for n in range(0, 8):
        total = sum(len(pa.enumerate_partitions(n, k)) for k in range(n + 2))
        assert total == bells[n + 1]


def test_enumerate_stirling_counts():
    # gluing 0 and n together turns circ partitions into partitions of n items
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert len(pa.enumerate_partitions(n, k, family="circ")) == \
                stirling2(n, k)
            nb = len(pa.enumerate_partitions(n, k, family="baro"))
            assert nb == stirling2(n + 1, k) - stirling2(n, k)


def test_enumerate_unique_and_deterministic():
    got = pa.enumerate_partitions(6, 3, family="circ", ordered=True)
    assert len(set(p.blocks for p in got)) == len(got)
    again = pa.enumerate_partitions(6, 3, family="circ", ordered=True)
    assert [p.blocks for p in got] == [p.blocks for p in again]


def test_enumerate_circ_nc_even_window():
    got = pa.enumerate_partitions(4, 2, family="circ_nc")
    assert [p.blocks for p in got] == [((0, 2, 4), (1, 3))]


def test_enumerate_baro_nc_odd_window():
    got = pa.enumerate_partitions(3, 2, family="baro_nc", ordered=True)
    assert [p.blocks for p in got] == [((0, 2), (1, 3))]


def test_nc_two_block_parity_counts():
    for n in range(1, 11):
        n_circ = len(pa.enumerate_partitions(n, 2, family="circ_nc"))
        n_baro = len(pa.enumerate_partitions(n, 2, family="baro_nc"))
        assert n_circ == (1 if n >= 2 and n % 2 == 0 else 0)
        assert n_baro == (1 if n % 2 == 1 else 0)


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        pa.enumerate_partitions(11, 5, cap=100)


def test_ordered_counts_match_family_conventions():
    for n in range(2, 6):
        for k in range(2, n + 1):
            unord = len(pa.enumerate_partitions(n, k, family="circ"))
            order = len(pa.enumerate_partitions(n, k, family="circ",
                                                ordered=True))
            assert order == unord * math.factorial(k - 1)
            ub = len(pa.enumerate_partitions(n, k, family="baro"))
            ob = len(pa.enumerate_partitions(n, k, family="baro",
                                             ordered=True))
            assert ob == ub * math.factorial(k - 2)


def _checked_copy(item):
    """``item`` rebuilt through its validating public constructor."""
    if isinstance(item, pa.MarkedPartition):
        return pa.MarkedPartition(item.mark, item.blocks,
                                  ordered=item.ordered)
    return type(item)(item.n, item.blocks)


@pytest.mark.parametrize("n", range(7))
def test_enumerated_items_equal_their_checked_construction(n):
    # the enumerators build their items from canonical (labels, blocks)
    # pairs without the constructors' checks; every item must equal, labels
    # and hash included, what the validating constructor makes of it
    items = []
    for k in range(n + 2):
        for ordered in (False, True):
            for family in pa.FAMILIES:
                items += pa.enumerate_partitions(n, k, family,
                                                 ordered=ordered)
            for cls in pa.MARKED_CLASSES:
                if k >= (2 if cls == "reduced_off" else 1):
                    items += pa.enumerate_marked(n, k, cls, ordered=ordered)
    assert {type(item) for item in items} >= {pa.Partition,
                                              pa.MarkedPartition}
    for item in items:
        again = _checked_copy(item)
        assert item == again
        assert item.labels == again.labels
        assert hash(item) == hash(again)


@functools.lru_cache(maxsize=None)
def _growth_strings(n, k):
    """Every vector a_0..a_n of itertools.product with a_j <= j that grows
    by at most one new label at a time and uses labels 0..k-1; product
    order is lexicographic."""
    return [a for a in itertools.product(*(range(min(j, k - 1) + 1)
                                           for j in range(n + 1)))
            if max(a) == k - 1
            and all(a[j] <= max(a[:j]) + 1 for j in range(1, n + 1))]


def _rgs_oracle(n, k, family):
    """Label vectors of the partitions of {0..n} into k blocks of
    ``family``, by brute force: the growth strings that obey the family
    rule."""
    rows = []
    for a in _growth_strings(n, k):
        if family.startswith("circ") and a[n] != a[0]:
            continue
        if family.startswith("baro") and a[n] == a[0]:
            continue
        if family.endswith("_nc") and any(a[j] == a[j + 1]
                                          for j in range(n)):
            continue
        rows.append(list(a))
    return rows


@functools.lru_cache(maxsize=None)
def _orders(k):
    """Every permutation of range(k) in lexicographic order, read as the
    block at each position, with the position of each block."""
    return [(order, [order.index(b) for b in range(k)])
            for order in itertools.permutations(range(k))]


def _listings_oracle(row, k, head, tail):
    """``row`` relabelled to each listing of its blocks in :func:`_orders`
    kept when it puts block 0 first (``head``) and block ``tail`` last."""
    return [[rank[b] for b in row] for order, rank in _orders(k)
            if not (head and order[0] != 0)
            and not (tail is not None and order[-1] != tail)]


def _marked_oracle(n, k, cls):
    """(mark, row) of the admissible marked partitions of ``cls`` straight
    from the definitions, over the circ rows of the brute-force oracle."""
    out = []
    for row in _rgs_oracle(n, k, "circ"):
        blocks = [[j for j in range(n + 1) if row[j] == b] for b in range(k)]
        for mark in range(n + 1):
            if not all(mark in b or len(b) == 1 or b[0] < mark < b[-1]
                       for b in blocks):
                continue
            if cls != "all" and not all(len(b) > 1 or b == [mark]
                                        for b in blocks):
                continue
            if cls == "reduced_diag" and row[mark] != row[0]:
                continue
            if cls == "reduced_off" and row[mark] == row[0]:
                continue
            out.append((mark, row))
    return out


@pytest.mark.parametrize("n", range(8))
def test_rows_equal_the_brute_force_oracle_in_order(n):
    for k in range(n + 2):
        for family in pa.FAMILIES:
            rows = _rgs_oracle(n, k, family)
            assert pa.partition_rows(n, k, family).tolist() == rows
            head = family != "all"
            listed = [r for row in rows for r in _listings_oracle(
                row, k, head, row[n] if family.startswith("baro") else None)]
            assert pa.partition_rows(n, k, family,
                                     ordered=True).tolist() == listed
        for cls in pa.MARKED_CLASSES:
            if cls == "reduced_off" and k < 2:
                continue
            pairs = _marked_oracle(n, k, cls)
            rows, marks = pa.marked_rows(n, k, cls)
            assert list(zip(marks.tolist(), rows.tolist())) == pairs
            listed = [(mark, r) for mark, row in pairs
                      for r in _listings_oracle(
                          row, k, True,
                          row[mark] if cls == "reduced_off" else None)]
            rows, marks = pa.marked_rows(n, k, cls, ordered=True)
            assert list(zip(marks.tolist(), rows.tolist())) == listed


@pytest.mark.parametrize("ordered", [False, True])
def test_cap_refuses_exactly_the_listings_past_it(ordered):
    # cap = count passes, cap = count - 1 raises, for every family and
    # marked class; counts from 2 to 1806
    n, k = 6, 3
    for family in pa.FAMILIES:
        count = len(pa.partition_rows(n, k, family, ordered=ordered))
        assert count > 1
        got = pa.enumerate_partitions(n, k, family, ordered=ordered,
                                      cap=count)
        assert len(got) == count
        with pytest.raises(CapacityError):
            pa.enumerate_partitions(n, k, family, ordered=ordered,
                                    cap=count - 1)
    for cls in pa.MARKED_CLASSES:
        count = len(pa.marked_rows(n, k, cls, ordered=ordered)[0])
        assert count > 1
        got = pa.enumerate_marked(n, k, cls, ordered=ordered, cap=count)
        assert len(got) == count
        with pytest.raises(CapacityError):
            pa.enumerate_marked(n, k, cls, ordered=ordered, cap=count - 1)


def test_chunked_rows_keep_the_order(monkeypatch):
    # rows made a few prefixes at a time come out as in one pass
    whole = pa.partition_rows(8, 4, "all", ordered=True)
    marked = pa.marked_rows(8, 3, "all", ordered=True)
    monkeypatch.setattr(pa, "ROW_CHUNK", 16)
    assert np.array_equal(pa.partition_rows(8, 4, "all", ordered=True),
                          whole)
    got = pa.marked_rows(8, 3, "all", ordered=True)
    assert all(map(np.array_equal, got, marked))


# ---------------------------------------------------------------------------
# marked partitions
# ---------------------------------------------------------------------------

def test_marked_k1_all_marks_admissible():
    # one single block: every mark is admissible and reduced; the diagonal
    # class therefore has n+1 members (needed for the one-leg density).
    got = pa.enumerate_marked(2, 1, marked_class="reduced_diag")
    assert [(m.mark, m.blocks) for m in got] == [
        (0, ((0, 1, 2),)), (1, ((0, 1, 2),)), (2, ((0, 1, 2),))]


def test_marked_off_requires_straddle():
    got = pa.enumerate_marked(1, 2, marked_class="reduced_off")
    assert got == []


def test_marked_ordered_count_ratios():
    for n in range(3, 8):
        for k in range(2, 4):
            d = len(pa.enumerate_marked(n, k, marked_class="reduced_diag"))
            od = len(pa.enumerate_marked(n, k, marked_class="reduced_diag",
                                         ordered=True))
            assert od == d * math.factorial(k - 1)
            o = len(pa.enumerate_marked(n, k, marked_class="reduced_off"))
            oo = len(pa.enumerate_marked(n, k, marked_class="reduced_off",
                                         ordered=True))
            assert oo == o * math.factorial(k - 2)


def test_marked_mu_nu():
    mp = pa.MarkedPartition(6, [(0, 5, 11), (1,), (2, 7), (3, 8, 10), (4,),
                                (6,), (9,)])
    i = mp.block_of(3)
    assert mp.mu(i) == 0 and mp.nu(i) == 1
    i0 = mp.block_of(0)
    assert mp.mu(i0) == 1 and mp.nu(i0) == 0


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_marked_worked_example():
    mp = pa.MarkedPartition(6, [(0, 5, 11), (1,), (2, 7), (3, 8, 10), (4,),
                                (6,), (9,)])
    red, gaps = pa.reduce_marked(mp)
    assert red.mark == 4
    assert set(red.blocks) == {(0, 3, 8), (1, 5), (2, 6, 7), (4,)}
    assert sum(gaps) == 3
    assert pa.expand_marked(red, gaps) == mp


def test_reduce_marked_identity_on_reduced():
    mp = pa.MarkedPartition(2, [(0, 1, 2)])
    red, gaps = pa.reduce_marked(mp)
    assert red == mp
    assert gaps == (0, 0)


def test_reduce_marked_rejects_inadmissible():
    bad = pa.MarkedPartition(0, [(0, 2), (1, 3)])  # 0 and n split
    with pytest.raises(InvalidInputError):
        pa.reduce_marked(bad)


@pytest.mark.parametrize("n", range(1, 8))
def test_reduce_marked_roundtrip_exhaustive(n):
    for k in range(1, n + 2):
        for mp in pa.enumerate_marked(n, k, marked_class="all"):
            red, gaps = pa.reduce_marked(mp)
            assert red.is_admissible() and red.is_reduced()
            assert red.n == n - sum(gaps)
            assert pa.expand_marked(red, gaps) == mp


def test_reduce_is_injective():
    # distinct inputs map to distinct (reduced, gaps) pairs
    seen = {}
    for n in range(1, 7):
        for k in range(1, n + 2):
            for mp in pa.enumerate_marked(n, k):
                key = pa.reduce_marked(mp)
                key = (key[0].mark, key[0].blocks, key[1])
                assert key not in seen
                seen[key] = mp


# ---------------------------------------------------------------------------
# splitting at the mark
# ---------------------------------------------------------------------------

def test_split_worked_example():
    mp = pa.MarkedPartition(4, [(0, 4, 6, 8), (1, 3, 5), (2, 7)],
                            ordered=True)
    plus, minus = pa.split_plus_minus(mp)
    assert plus.blocks == ((0, 4), (1, 3), (2,))
    assert minus.blocks == ((0, 2, 4), (3,), (1,))
    assert pa.merge_plus_minus(plus, minus) == mp


def test_split_single_block():
    mp = pa.MarkedPartition(1, [(0, 1, 2)], ordered=True)
    plus, minus = pa.split_plus_minus(mp)
    assert plus.blocks == ((0, 1),)
    assert minus.blocks == ((0, 1),)


@pytest.mark.parametrize("n", range(1, 8))
def test_split_roundtrip_exhaustive(n):
    for k in range(1, n + 2):
        for cls, fam in (("reduced_diag", "circ"), ("reduced_off", "baro")):
            if cls == "reduced_off" and k < 2:
                continue
            for mp in pa.enumerate_marked(n, k, marked_class=cls,
                                          ordered=True):
                plus, minus = pa.split_plus_minus(mp)
                assert plus.n + minus.n == n
                assert plus.k == minus.k == k
                # family of the halves follows the class
                if cls == "reduced_diag":
                    assert plus.is_circ() and minus.is_circ()
                    assert plus.block_of(0) == 0
                else:
                    assert plus.is_baro_ordered()
                    assert minus.is_baro_ordered()
                assert pa.merge_plus_minus(plus, minus) == mp


def test_split_surjective_onto_half_products():
    # every compatible pair of halves is hit (diagonal class, small case)
    n, k = 6, 2
    images = set()
    for mp in pa.enumerate_marked(n, k, marked_class="reduced_diag",
                                  ordered=True):
        plus, minus = pa.split_plus_minus(mp)
        images.add((plus.n, plus.blocks, minus.blocks))
    expected = set()
    for m in range(k, n - k + 1):
        for p in pa.enumerate_partitions(m, k, family="circ", ordered=True):
            for q in pa.enumerate_partitions(n - m, k, family="circ",
                                             ordered=True):
                expected.add((m, p.blocks, q.blocks))
    assert images == expected


# ---------------------------------------------------------------------------
# non-consecutive reduction
# ---------------------------------------------------------------------------

def test_nc_reduce_single_block():
    op = pa.OrderedPartition(2, [(0, 1, 2)])
    red, mults = pa.nc_reduce(op)
    assert red.blocks == ((0,),)
    assert mults == (2,)
    assert pa.nc_expand(red, mults) == op


def test_nc_reduce_fixes_nonconsecutive():
    for n, k, fam in ((4, 2, "circ_nc"), (5, 2, "baro_nc"), (6, 3, "circ_nc")):
        for op in pa.enumerate_partitions(n, k, family=fam, ordered=True):
            red, mults = pa.nc_reduce(op)
            assert red == op
            assert mults == (0,) * (n + 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_nc_roundtrip_exhaustive(n):
    for k in range(1, min(n + 2, 5)):
        for fam in ("circ", "baro", "all"):
            for op in pa.enumerate_partitions(n, k, family=fam, ordered=True):
                red, mults = pa.nc_reduce(op)
                assert red.is_nonconsecutive()
                assert red.n + sum(mults) == n
                assert pa.nc_expand(red, mults) == op
                # family passes through
                if fam == "circ":
                    assert red.is_circ()
                if fam == "baro":
                    assert red.is_baro_ordered()


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_iota_basic():
    p = pa.Partition(2, [(0, 2), (1,)])
    assert pa.iota_embed(p, ["a", "b"]) == ["a", "b", "a"]


def test_iota_identity_partition():
    p = pa.Partition(3, [(0,), (1,), (2,), (3,)])
    assert pa.iota_embed(p, [10, 11, 12, 13]) == [10, 11, 12, 13]


def test_iota_arity_mismatch():
    p = pa.Partition(2, [(0, 2), (1,)])
    with pytest.raises(InvalidInputError):
        pa.iota_embed(p, ["a"])


@pytest.mark.parametrize("n", range(2, 7))
def test_iota_consistent_with_split(n):
    # embedding the plus half agrees with the whole on indices <= mark
    for k in range(1, n + 1):
        for mp in pa.enumerate_marked(n, k, marked_class="reduced_diag",
                                      ordered=True):
            vals = [f"v{i}" for i in range(k)]
            whole = pa.iota_embed(pa.OrderedPartition(mp.n, mp.blocks), vals)
            plus, _ = pa.split_plus_minus(mp)
            half = pa.iota_embed(plus, vals)
            assert half == whole[: mp.mark + 1]


# ---------------------------------------------------------------------------
# order predicate, weight bound, diagram export
# ---------------------------------------------------------------------------

def test_preceq():
    finest = pa.Partition(3, [(0,), (1,), (2,), (3,)])
    mid = pa.Partition(3, [(0, 1), (2,), (3,)])
    top = pa.Partition(3, [(0, 1, 2, 3)])
    assert pa.preceq(finest, mid) and pa.preceq(mid, top)
    assert pa.preceq(finest, top)
    other = pa.Partition(3, [(0, 2), (1, 3)])
    assert not pa.preceq(mid, other)


def test_weight_bound_exhaustive():
    # the factorial weights are controlled by k^(n+1)/k!; the sharper
    # k^(n+1)/(n+1)! candidate is false already at n=4, k=2
    for n in range(1, 9):
        for k in range(1, n + 1):
            lhs, _ = pa.weight_bound_pair(n, k)
            assert lhs < k ** (n + 1) / math.factorial(k)
    lhs, rhs = pa.weight_bound_pair(4, 2)
    assert lhs > rhs


def test_diagram_export():
    mp = pa.MarkedPartition(1, [(0, 2), (1, 3)], ordered=True)
    d = pa.to_diagram(mp)
    assert d["mark"] == 1
    assert d["circles"] == [0, 1, 2, 3]
    assert d["blocks"][0] == {"members": [0, 2], "depth": 1}


@pytest.mark.parametrize("make", [
    lambda: pa.Partition(2, [(0, 1, 2), ()]),
    lambda: pa.Partition(2, [(0, 1), (1, 2)]),
    lambda: pa.Partition(2, [(0,), (2,)]),
    lambda: pa.OrderedPartition(2, [(), (0, 1, 2)]),
    lambda: pa.OrderedPartition(2, [(0, 2), (2, 1)]),
    lambda: pa.OrderedPartition(3, [(0, 2), (1,)]),
    lambda: pa.MarkedPartition(3, [(0, 2), (1,)]),
    lambda: pa.MarkedPartition(-1, [(0, 2), (1,)]),
    lambda: pa.MarkedPartition(1, [(0, 1), ()]),
    lambda: pa.MarkedPartition(0, [()]),
], ids=["empty_block", "index_twice", "index_missing", "ordered_empty_block",
        "ordered_index_twice", "ordered_index_missing", "mark_above_n",
        "mark_negative", "marked_empty_block", "marked_only_empty"])
def test_records_refuse_invalid_input(make):
    with pytest.raises(InvalidInputError):
        make()
