"""Weighted paths on complete graphs and the factorial (Borel-type) transform.

A path of length n on the complete graph with k vertices is a vertex sequence
i_0 i_1 ... i_n with no immediate repetition; backtracking (i_0 i_1 i_0) is
allowed.  Vertices are 0-based here.  Non-consecutive ordered partitions are
in bijection with the surjective paths: position s sits in block i exactly
when the path visits vertex i at step s.

Edge weights w_ij (zero diagonal) and vertex times u_i turn a path into the
total weight u_{i_0} w_{i_0 i_1} u_{i_1} ... w_{i_{n-1} i_n} u_{i_n}.  Summed
over all paths from i to j these weights are the entries of the matrix power
[D(u) W]^n D(u), and the factorial transform L (coefficient-wise division,
C u^nu -> C u^(nu-1) / (nu-1)!, terms with any exponent zero dropped) kills
exactly the contribution of non-surjective paths.  That identity is the
engine behind the generating matrix function computed in ``gmatrix``.

A polynomial in the vertex times is stored in one layout: a dense array of
coefficients over the exponent vectors ``_monomials(k, degree)``.
``_first_layer`` and ``_next_layer`` are the one implementation of the
layers [D(u) W]^n D(u) and ``_borel_weights`` the one implementation of L,
both in that layout and both batched over graphs: the layers are
right-multiplied, layer n + 1 = layer n W D(u), for a batch of weight
matrices and a choice of start rows, and L reads a power table of the
vertex times (``_power_table``).  ``gmatrix.g_series_batch`` sums the
layers with those weights, and the path identity compares path sums with
the same layers under the same L.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapacityError, InvalidInputError
from .partitions import OrderedPartition

DEFAULT_PATH_CAP = 10**7


@dataclass(frozen=True)
class WeightedCollisionGraph:
    """Complete graph on k >= 2 vertices with finite complex edge weights
    (zero diagonal) and finite non-negative vertex times."""

    weights: np.ndarray
    times: np.ndarray
    k: int = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        u = np.asarray(self.times, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInputError("weight matrix must be square")
        k = w.shape[0]
        if k < 2:
            raise InvalidInputError("need at least 2 vertices")
        if u.shape != (k,):
            raise InvalidInputError("times must have one entry per vertex")
        if not (np.isfinite(w).all() and np.isfinite(u).all()):
            raise InvalidInputError("weights and times must be finite")
        if np.any(np.diag(w) != 0):
            raise InvalidInputError("diagonal weights must vanish")
        if np.any(u < 0):
            raise InvalidInputError("vertex times must be non-negative")
        w = w.copy()
        u = u.copy()
        w.flags.writeable = False
        u.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "times", u)
        object.__setattr__(self, "k", k)

    @property
    def r0(self) -> float:
        """Pole radius bound k * max |w_ij|."""
        return self.k * float(np.max(np.abs(self.weights)))


def random_graph(rng, k, low=0.1, high=1.0) -> WeightedCollisionGraph:
    """A random graph on k vertices from the generator ``rng``: weights with
    uniform real, then imaginary, parts in [-1, 1], scaled to a maximum
    modulus of 1, with the diagonal zeroed; then uniform vertex times in
    [low, high)."""
    w = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
    w /= np.max(np.abs(w))
    np.fill_diagonal(w, 0)
    return WeightedCollisionGraph(w, rng.uniform(low, high, k))


def enumerate_paths(k, n, start, end, surjective=False, cap=DEFAULT_PATH_CAP):
    """All length-n paths from ``start`` to ``end`` on the complete graph.

    With ``surjective`` only paths visiting every vertex are kept.  The raw
    path count is ((J-I)^n)_{start,end}; a CapacityError fires beyond ``cap``.
    """
    if k < 2:
        raise InvalidInputError("need at least 2 vertices")
    if not (0 <= start < k and 0 <= end < k):
        raise InvalidInputError("endpoint outside vertex range")
    if n < 0:
        raise InvalidInputError("length must be non-negative")
    if n == 0:
        if start != end:
            return []
        return [] if surjective else [(start,)]
    raw = np.linalg.matrix_power(np.ones((k, k)) - np.eye(k), n)[start, end]
    if raw > cap:
        raise CapacityError(f"{int(raw)} paths exceed cap {cap}")
    out = []
    stack = [(start,)]
    while stack:
        p = stack.pop()
        if len(p) == n + 1:
            if p[-1] == end and (not surjective or len(set(p)) == k):
                out.append(p)
            continue
        last = p[-1]
        # keep lexicographic output order despite the stack
        for v in range(k - 1, -1, -1):
            if v != last:
                stack.append(p + (v,))
    return out


def partition_to_path(op: OrderedPartition) -> tuple:
    """Surjective path of a non-consecutive ordered partition: step s visits
    the vertex whose block contains s."""
    if not op.is_nonconsecutive():
        raise InvalidInputError("blocks contain consecutive indices")
    return tuple(op.labels)


def path_to_partition(path) -> OrderedPartition:
    """Inverse of :func:`partition_to_path`; the path must be surjective
    onto 0..k-1."""
    k = max(path) + 1
    if set(path) != set(range(k)):
        raise InvalidInputError("path skips a vertex label")
    blocks = [[] for _ in range(k)]
    for s, v in enumerate(path):
        blocks[v].append(s)
    return OrderedPartition(len(path) - 1, tuple(tuple(b) for b in blocks))


def total_weight(path, graph: WeightedCollisionGraph) -> complex:
    """u_{i_0} w_{i_0 i_1} u_{i_1} ... w_{i_{n-1} i_n} u_{i_n}."""
    w, u = graph.weights, graph.times
    acc = complex(u[path[0]])
    for a, b in zip(path[:-1], path[1:]):
        if a == b:
            raise InvalidInputError("immediate repetition in path")
        acc *= w[a, b] * u[b]
    return acc


# ---------------------------------------------------------------------------
# Polynomials in the vertex times: layers and the factorial transform
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _monomials(k: int, degree: int) -> np.ndarray:
    """All exponent vectors of total degree ``degree`` over k variables, as
    a read-only (M, k) array in lexicographic order.  Stars and bars: the
    k - 1 bar positions among degree + k - 1 slots, taken as combinations
    in lexicographic order, give the exponents as the gaps between bars."""
    slots, count = degree + k - 1, math.comb(degree + k - 1, k - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots),
                                                             k - 1)),
        dtype=np.int64, count=count * (k - 1)).reshape(count, k - 1)
    edges = np.hstack([np.full((count, 1), -1), bars,
                       np.full((count, 1), slots)])
    out = np.diff(edges, axis=1) - 1
    out.setflags(write=False)
    return out


def _monomial_index(k: int, degree: int, expo) -> np.ndarray:
    """Row of each exponent vector (last axis of ``expo``) in
    ``_monomials(k, degree)``.  Exponents are digits of a base degree + 1
    number, whose order is the lexicographic one, so the row is a binary
    search for that number; vectors outside the table get meaningless rows."""
    place = (degree + 1) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(_monomials(k, degree) @ place,
                           np.asarray(expo) @ place)


@lru_cache(maxsize=256)
def _shift_sources(k: int, degree: int) -> np.ndarray:
    """For each axis j, the source of every monomial of ``_monomials(k,
    degree)`` in a (k, M + 1) block flattened row by row, M the monomial
    count of degree - 1: row j, column of monomial - e_j, or row j, column
    M (an appended zero column) when the exponent on axis j vanishes."""
    monos = _monomials(k, degree)
    width = math.comb(degree + k - 2, k - 1) + 1
    shifted = monos[None, :, :] - np.eye(k, dtype=np.int64)[:, None, :]
    src = _monomial_index(k, degree - 1, shifted)
    src[monos.T == 0] = width - 1
    src += width * np.arange(k)[:, None]
    src.setflags(write=False)
    return src


def _first_layer(k, rows, batch):
    """Layer 0, D(u), of ``batch`` graphs on k vertices: entry (i, i) is the
    monomial u_i, as a (batch, r, k, k) array of coefficients over
    ``_monomials(k, 1)`` for the start rows ``rows``."""
    diag = np.eye(k)[:, :, None] * _monomials(k, 1).T[:, None, :]
    return np.broadcast_to(diag[rows], (batch, len(rows), k, k)) + 0j


def _next_layer(layer, weights, degree):
    """Layer n + 1 = layer n W D(u), of total degree ``degree``, from layer
    n (B, r, k, M) and each graph's W transposed, ``weights`` (B, 1, k, k)
    with [b, 0, j, l] = w_lj: column j is u_j sum_l (column l of layer n)
    w_lj, one matmul over the batch and the rows, then one gather through
    ``_shift_sources`` from the product with a zero column appended to each
    of its k rows."""
    prod = weights @ layer
    zero = np.zeros(prod.shape[:-1] + (1,), dtype=complex)
    padded = np.concatenate([prod, zero], axis=-1)
    return np.take(padded.reshape(prod.shape[:2] + (-1,)),
                   _shift_sources(layer.shape[-2], degree), axis=-1)


def _power_table(times, degree):
    """The power table of the factorial transform at a batch of vertex times
    ``times`` (B, k) up to ``degree``: a (B, k, degree + 1) array whose
    column e >= 1 holds u^(e - 1) / (e - 1)!, each column the one before it
    times u / (e - 1), and whose column 0 is zero.  Its first d + 1 columns
    are the table of degree d."""
    u = np.asarray(times, dtype=float)
    table = np.zeros(u.shape + (degree + 1,))
    table[..., 1] = 1.0
    for e in range(2, degree + 1):
        table[..., e] = table[..., e - 1] * u / (e - 1)
    return table


def _borel_weights(table: np.ndarray) -> np.ndarray:
    """The factorial transform L on the monomials ``_monomials(k, degree)``,
    evaluated at the vertex times of a power table (..., k, degree + 1) of
    ``_power_table``: prod_i u_i^(nu_i - 1) / (nu_i - 1)! per monomial,
    zero if any nu_i = 0.  A coefficient array over those monomials, dotted
    with these weights, is L of its polynomial at u."""
    k, degree = table.shape[-2], table.shape[-1] - 1
    expo = _monomials(k, degree)
    out = table[..., 0, expo[:, 0]]
    for i in range(1, k):
        out = out * table[..., i, expo[:, i]]
    return out


def path_sum_table(graph: WeightedCollisionGraph, n, start, end,
                   surjective=True, cap=DEFAULT_PATH_CAP) -> np.ndarray:
    """Sum of total weights over paths as a polynomial in the vertex times:
    its coefficients over ``_monomials(k, n + 1)``, the layout of layer n.
    Terms are added in path order."""
    k = graph.k
    out = np.zeros(len(_monomials(k, n + 1)), dtype=complex)
    paths = enumerate_paths(k, n, start, end, surjective=surjective, cap=cap)
    if paths:
        p = np.array(paths)
        # scalar products, edge by edge as in total_weight: the vectorised
        # complex product may fuse multiply-adds, which moves the last bits
        # of the identity residuals
        coeff = [math.prod(graph.weights[q[:-1], q[1:]]) for q in p]
        expo = (p[:, :, None] == np.arange(k)).sum(axis=1)
        np.add.at(out, _monomial_index(k, n + 1, expo), coeff)
    return out


def _unit_layers(graph: WeightedCollisionGraph, n_max):
    """[(layer n, the ``_borel_weights`` on its monomials at u = 1)] of the
    one graph for n = 0..n_max, the layers built as ``g_series_batch``
    builds them."""
    k = graph.k
    weights = np.ascontiguousarray(graph.weights.T)[None, None]
    table = _power_table(np.ones((1, k)), n_max + 1)[0]
    layers = [_first_layer(k, np.arange(k), 1)]
    for degree in range(2, n_max + 2):
        layers.append(_next_layer(layers[-1], weights, degree))
    return [(layer[0], _borel_weights(table[:, :n + 2]))
            for n, layer in enumerate(layers)]


def _identity_residual(graph, layer, bw, n, start, end, cap):
    """Max coefficient modulus of L(surjective path sum) - L(entry
    (start, end) of ``layer``), layer n of ``_unit_layers``, with L applied
    as the Borel weights ``bw`` at u = 1."""
    lhs = path_sum_table(graph, n, start, end, surjective=True, cap=cap)
    diff = lhs * bw - layer[start, end] * bw
    # the modulus as complex scalar abs takes it; a vector loop for the
    # complex abs may round differently
    return float(np.max(np.hypot(diff.real, diff.imag)))


def path_sum_identity_check(graph: WeightedCollisionGraph, n, start, end,
                            cap=DEFAULT_PATH_CAP) -> float:
    """Residual of the path/matrix-power identity after the factorial
    transform: max coefficient difference between L(sum over surjective
    paths) and L([D(u)W]^n D(u))_{start,end}, layer n of ``_unit_layers``,
    with L applied as the ``_borel_weights`` at u = 1 that ``g_series``
    uses.  Exact up to rounding."""
    if n < 1:
        raise InvalidInputError("identity needs n >= 1")
    layer, bw = _unit_layers(graph, n)[n]
    return _identity_residual(graph, layer, bw, n, start, end, cap)


def path_sum_identity_residuals(graph: WeightedCollisionGraph, n_max,
                                cap=DEFAULT_PATH_CAP):
    """(n, start, end, residual) of path_sum_identity_check for every
    n = 1..n_max and every pair of vertices, in that order, from one list
    of ``_unit_layers``.  The run enumerates every path of length 1..n_max,
    k (k - 1)^n of length n; a CapacityError fires before the first one is
    built when they number more than ``cap``."""
    k = graph.k
    total = 0
    for n in range(1, n_max + 1):
        total += k * (k - 1) ** n
        if total > cap:
            raise CapacityError(f"paths of length 1..{n_max} exceed cap {cap}")
    layers = _unit_layers(graph, n_max)
    return [(n, i, j, _identity_residual(graph, *layers[n], n, i, j, cap))
            for n in range(1, n_max + 1) for i in range(k) for j in range(k)]


def nonsurjective_terms_constant_in_missed_vertex(graph, n, start, end,
                                                  cap=DEFAULT_PATH_CAP):
    """Degree bookkeeping behind the identity: the difference between the
    all-paths table and the surjective-paths table has, in every nonzero
    term, at least one vertex with exponent zero."""
    allp = path_sum_table(graph, n, start, end, surjective=False, cap=cap)
    surj = path_sum_table(graph, n, start, end, surjective=True, cap=cap)
    expo = _monomials(graph.k, n + 1)[allp - surj != 0]
    return bool(np.all(expo.min(axis=1) == 0))
