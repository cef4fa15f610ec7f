"""The generating matrix function of a weighted collision graph.

For an edge-weight matrix W (zero diagonal) and vertex times u the object of
interest is the factorial-transformed resolvent series

    G(u) = L[ sum_n (D(u) W)^n D(u) ],

an entire matrix function of u whose entries collect surjective path weights
with per-vertex factorial damping.  Equivalently it is the iterated contour
integral of (D(z) - W)^{-1} exp(u . z) over k circles enclosing the origin
with radius strictly greater than r0 = k max |w_ij|.  For k = 2 the entries
close in Bessel functions:

    g_00 = -sqrt(u1/u2) chi J_1(2 sqrt(u1 u2) chi),   chi = sqrt(-w01 w10),
    g_01 = w01 J_0(2 sqrt(u1 u2) chi),
    g_10 = w10 J_0(...),            g_11 = g_00 with u1 <-> u2,

independent of the square-root branch since J_0 and J_1(z)/z are even.

Three evaluation routes are provided (series, contour quadrature, k=2 Bessel
closed form); their mutual agreement is the module's main correctness check.
The series route sums the layers (D(u) W)^n D(u) of ``paths._layers``
under the factorial transform ``paths._borel_weights``: the layers and the
transform that the path identity of ``paths`` is checked on.  One driver,
``g_series_batch``, sums them for a batch of graphs at once, right-multiplied
layer by layer, for all rows of G or for one start row, judges convergence
per graph and lets converged graphs leave the batch; ``g_series`` is its
one-graph, all-rows case.  Indices are 0-based throughout.

``g_rows`` (closed form at k = 2, batched series above, no fallback) gives G
to the Monte Carlo reweighting and the density, as ``g_auto`` does by
default; the contour runs only on request.

The contour route has one kernel for every k: det(D(z) - W) and
adj(D(z) - W) are affine in each z_i, so the integral of adj/det times
exp(u . z) is a combination of 2^k moments of exp(u . z)/det.  Each circle
j >= 1 has a radius ``_radii`` above the row sum rho_j of W on axes
1..k-1, so det = c0 + z_0 c1 with |c1| >= prod (R_j - rho_j) > 0
(Ostrowski): its one pole z_0* = -c0/c1 gives circle 0 exactly, by the
residue exp(u_0 z_0*) z_0*^e / c1, and the trapezoid runs over circles
1..k-1 only, whose even-index nodes give the half-node error estimate.
CONTOUR_GRID_CAP bounds the arrays a call builds (CapacityError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError
from .paths import (WeightedCollisionGraph, _borel_weights, _layers,
                    _power_tables)

# g_series stops once two consecutive layers fall below this fraction of
# max(1, max |G|)
SERIES_TOL = 1e-16
# g_series fails when the rounding error of its largest layer exceeds this
# fraction of max(1, max |G|)
SERIES_ROUNDING_RTOL = 1e-10
# g_contour refuses a call whose largest array, the nodes**(k-1) grid of its
# pass or the 2**k * k**4 stack of its coefficient dets, has more elements
CONTOUR_GRID_CAP = 1 << 22


def bessel_j_quadrature(n: int, z: complex) -> complex:
    """Independent oracle: 512-node trapezoid of the periodic integral
    representation (1/2pi) int_0^2pi exp(i z sin t - i n t) dt."""
    t = 2 * np.pi * np.arange(512) / 512
    vals = np.exp(1j * z * np.sin(t) - 1j * n * t)
    return complex(np.mean(vals))


@dataclass
class GMatrix:
    """k x k value of the generating matrix function, tagged with the
    route that produced it and its accuracy metadata."""

    entries: np.ndarray
    method: str
    order: int | None = None
    nodes: int | None = None
    tail_estimate: float | None = None
    quad_error: float | None = None
    converged: bool = True

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def entry(self, ell: int, m: int) -> complex:
        return complex(self.entries[ell, m])


# ---------------------------------------------------------------------------
# series route: homogeneous layers of the resolvent expansion
# ---------------------------------------------------------------------------

@dataclass
class GBatch:
    """G of a batch of B graphs: ``entries`` (B, k) for one start row,
    (B, k, k) for all rows, and per graph the series order reached, the
    tail estimate and the convergence flag."""

    entries: np.ndarray
    order: np.ndarray
    tail_estimate: np.ndarray
    converged: np.ndarray


def g_series_batch(weights, times, row: int | None = None,
                   max_order: int = 80) -> GBatch:
    """Truncated series of a batch of graphs (edge weights (B, k, k) with
    zero diagonals, vertex times (B, k)): accumulate the factorial
    transform ``paths._borel_weights`` of each homogeneous layer
    (D(u) W)^n D(u), as ``paths._layers`` yields them, at the vertex times.
    ``row`` keeps only that start row of G; by default all rows are summed.

    Each graph stops once two consecutive layer contributions fall below
    SERIES_TOL relative to max(1, max |entry|) over the rows summed (two,
    because parity can zero alternate layers), and then leaves the batch;
    ``converged`` is cleared when max_order runs out first.  It is also
    cleared when the largest layer is so much bigger than the result that
    its rounding error (machine epsilon times that layer) exceeds
    SERIES_ROUNDING_RTOL of the result's scale: cancellation has then eaten
    the digits, and the tail estimate reports that rounding error.  A
    graph's values do not depend on the other graphs in the batch.
    """
    w = np.asarray(weights, dtype=complex)
    u = np.asarray(times, dtype=float)
    n, k = u.shape
    rows = np.arange(k) if row is None else np.array([row])
    entries = np.zeros((n, len(rows), k), dtype=complex)
    order = np.zeros(n, dtype=int)
    tails = np.zeros(n)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    total = entries.copy()
    previous = np.full(n, np.inf)
    peak = np.zeros(n)
    layers, tables = _layers(w, rows), _power_tables(u)
    layer, table = next(layers), next(tables)
    keep = None
    for degree in range(1, max_order + 2):
        if not active.size:
            break
        if degree > 1:
            layer, table = layers.send(keep), tables.send(keep)
        value = (layer @ _borel_weights(table)[:, None, :, None])[..., 0]
        total += value
        vmax = np.abs(value).max(axis=(1, 2))
        peak = np.maximum(peak, vmax)
        last_two = np.maximum(previous, vmax)
        previous = vmax
        scale = np.maximum(1.0, np.abs(total).max(axis=(1, 2)))
        # layers below total degree k vanish identically (every exponent
        # must reach 1), so only judge convergence past that point
        done = (last_two <= SERIES_TOL * scale) & (degree > k)
        stop = done if degree <= max_order else np.ones_like(done)
        keep = None
        if stop.any():
            out = active[stop]
            rounding = np.finfo(float).eps * peak[stop]
            entries[out] = total[stop]
            order[out] = degree - 1
            tails[out] = np.maximum(last_two[stop], rounding)
            converged[out] = done[stop] & (
                rounding <= SERIES_ROUNDING_RTOL * scale[stop])
            keep = ~stop
            active, total = active[keep], total[keep]
            previous, peak = previous[keep], peak[keep]
    return GBatch(entries if row is None else entries[:, 0], order, tails,
                  converged)


def g_series(graph: WeightedCollisionGraph, max_order: int = 80) -> GMatrix:
    """Truncated series evaluation of one graph: the one-graph, all-rows
    case of ``g_series_batch``, with its convergence rule."""
    out = g_series_batch(graph.weights[None], graph.times[None],
                         max_order=max_order)
    return GMatrix(out.entries[0], "series", order=int(out.order[0]),
                   tail_estimate=float(out.tail_estimate[0]),
                   converged=bool(out.converged[0]))


# ---------------------------------------------------------------------------
# contour route: residue on circle 0, trapezoid over the other circles
# ---------------------------------------------------------------------------

def _contour_coefficients(w):
    """det(D(z) - W) and adj(D(z) - W) as polynomials affine in each z_i.

    The coefficient of prod_{i in S} z_i is the det, and the adjugate
    embedded in the rows and columns outside S, of -W restricted to the axes
    outside S.  Both are indexed by the (2,)*k indicator of S.  For every S
    at once: -W padded with the identity on S has that det, and with its
    row i replaced by e_j^T it has cofactor (i, j) as det; the rows and
    columns of S are then zeroed, so one batched det gives every adjugate.
    """
    k = w.shape[0]
    in_s = np.array(list(np.ndindex(*(2,) * k)), dtype=bool)
    rest = ~in_s[:, :, None] & ~in_s[:, None, :]
    pad = np.where(rest, -w, 0) + in_s[:, None, :] * np.eye(k)
    rows = np.repeat(pad[:, None, None], k, axis=1).repeat(k, axis=2)
    rows[:, np.arange(k), :, np.arange(k), :] = np.eye(k)
    cofactor = np.linalg.det(rows)
    adj = rest * cofactor.transpose(0, 2, 1)
    return (np.linalg.det(pad).reshape((2,) * k),
            adj.reshape((2,) * k + (k, k)))


def _on_grid(coef, axes):
    """Polynomial affine in each coordinate, with (2,)*m coefficients,
    evaluated on the outer grid of the m coordinate arrays."""
    for z in axes:
        coef = coef[0][..., None] + coef[1][..., None] * z
    return coef


def _moments(t, vecs):
    """sum over the grid of t * prod_i vecs[i][b_i] for every b in {0, 1}^m,
    flattened with b_0 most significant; ``vecs[i]`` has shape (2, len of
    axis i of t).  One einsum per axis, last axis first, each contracting
    that axis against its two vectors and putting the new index in front;
    no temporary is larger than t.  Without ``optimize`` einsum calls no
    BLAS: a BLAS contraction pays thread wake-ups that cost more than the
    sum itself on these sizes."""
    r = t
    for v in reversed(vecs):
        r = np.einsum("...j,bj->b...", r, v)
    return r.reshape(-1)


def _radii(graph: WeightedCollisionGraph) -> np.ndarray:
    """Radii of circles 1..k-1: R_j = min(1.5 rho_j + 0.2 + sqrt(u_0 |w_0j|
    |w_j0| / u_j), 1 + 1.1 r0) with rho_j = sum_{l >= 1, l != j} |w_jl|.
    The root, infinite at u_j = 0, is the k = 2 saddle of exp(u_j R_j +
    u_0 |w_0j w_j0| / R_j); the cap bounds it where u_j is small.  Either
    branch leaves R_j - rho_j >= 0.2."""
    a, u = np.abs(graph.weights), graph.times
    saddle = np.divide(u[0] * a[0, 1:] * a[1:, 0], u[1:],
                       out=np.full(graph.k - 1, np.inf), where=u[1:] > 0)
    return np.minimum(1.5 * a[1:, 1:].sum(axis=1) + 0.2 + np.sqrt(saddle),
                      1.0 + 1.1 * graph.r0)


def _contour_sum(times, radii, nodes, det_c, adj_c):
    """Integral of (D(z) - W)^{-1} exp(u . z) over the product of circles,
    exact on circle 0 and a trapezoid of ``nodes`` (even) per circle on
    circles 1..k-1 of ``radii``, as sum_S m_S adj_S with the moments m_S of
    exp(u . z)/det against prod_{i in S} z_i; and the same at nodes // 2.

    At every node of circles 1..k-1 the circle-0 integral of exp(u_0 z_0)
    z_0^e/det is the residue exp(u_0 z_0*) z_0*^e/c1 at z_0* = -c0/c1
    (e = 0, 1), taken against eye(2) as the axis-0 vectors so that the
    moments keep b_0 most significant.

    The nodes // 2 grid is the even-index subgrid, the same floats, and its
    trapezoid factors are exactly twice these: its moments, taken on that
    subgrid, are bit for bit those of a separate nodes // 2 run."""
    k, n = len(times), nodes
    z = radii[:, None] * np.exp(2j * np.pi * np.arange(n) / n)
    # per-axis trapezoid factor (z/n) exp(u z)
    s = (z / n) * np.exp(times[1:, None] * z)
    vecs = np.stack([s, s * z], axis=1)
    neg_c0, c1 = _on_grid(-det_c[0], z), _on_grid(det_c[1], z)
    # the residue pair in place, c0 and c1 freed once used: four grids at most
    pair = np.empty((2,) + c1.shape, dtype=complex)
    res, pole = pair
    np.divide(neg_c0, c1, out=pole)
    del neg_c0
    np.exp(np.multiply(times[0], pole, out=res), out=res)
    res /= c1
    del c1
    pole *= res
    # copied contiguous, so that einsum sums in the order of a separate run
    even = np.ascontiguousarray(
        pair[(slice(None),) + (slice(None, None, 2),) * (k - 1)])
    adj = adj_c.reshape(-1, k, k)
    return tuple((m[:, None, None] * adj).sum(axis=0) for m in (
        _moments(pair, [np.eye(2), *vecs]),
        _moments(even, [np.eye(2), *(2 * vecs[:, :, ::2])])))


def g_contour(graph: WeightedCollisionGraph, *, nodes: int = 256) -> GMatrix:
    """Iterated contour integral over k circles of (D(z) - W)^{-1}
    exp(u . z): circle 0 exactly, by the residue at the one pole of 1/det
    inside it (``_contour_sum``), and circles 1..k-1, of the radii
    ``_radii``, by a trapezoid of ``nodes`` each, exponentially accurate
    here (periodic analytic integrand).  ``quad_error`` is the largest entry
    difference from the trapezoid on the even-index nodes (so ``nodes`` is
    even), the conservative estimate for the doubling step that produced the
    returned value.  CONTOUR_GRID_CAP is checked before anything is built.
    """
    k = graph.k
    if nodes < 4 or nodes % 2:
        raise InvalidInputError(
            f"need an even count of at least 4 nodes per circle, not {nodes}")
    size = max(nodes ** (k - 1), 2 ** k * k ** 4)
    if size > CONTOUR_GRID_CAP:
        raise CapacityError(
            f"contour array of {size} elements ({nodes}^{k - 1} points or "
            f"2^{k}*{k}^4 coefficients) exceeds the cap {CONTOUR_GRID_CAP}")
    fine, half = _contour_sum(graph.times, _radii(graph), nodes,
                              *_contour_coefficients(graph.weights))
    return GMatrix(fine, "contour", nodes=nodes,
                   quad_error=float(np.max(np.abs(fine - half))))


# ---------------------------------------------------------------------------
# k = 2 closed form
# ---------------------------------------------------------------------------

def _k2_entries(u1, u2, w01, w10):
    """The four k = 2 entries (g_00, g_01, g_10, g_11), broadcast over arrays
    of times and weights.

    The diagonal is written as u_i w01 w10 (J_0 + J_2)(z), which equals the
    -sqrt(u_i/u_j) chi J_1(z) of the module docstring because
    J_0 + J_2 = 2 J_1(z)/z; the form is even in z and finite at z = 0, so
    degenerate times need no special case.
    """
    # imported here: scipy.special is over half of the CLI's start-up
    from scipy import special

    prod = w01 * w10
    z = 2.0 * np.sqrt(-prod * u1 * u2 + 0j)
    j0 = special.jv(0, z)
    ratio = j0 + special.jv(2, z)
    return u1 * prod * ratio, w01 * j0, w10 * j0, u2 * prod * ratio


def g_bessel_k2(u1: float, u2: float, w12: complex, w21: complex) -> GMatrix:
    """Bessel closed form for k = 2 (0-based entries); at u = 0 the diagonal
    vanishes and the off-diagonal reduces to the edge weights themselves."""
    if u1 < 0 or u2 < 0:
        raise InvalidInputError("times must be non-negative")
    g00, g01, g10, g11 = _k2_entries(u1, u2, w12, w21)
    return GMatrix(np.array([[g00, g01], [g10, g11]], dtype=complex),
                   "bessel_k2")


def g_rows(weights, times, row: int | None = None) -> GBatch:
    """G of a batch of graphs (weights (B, k, k), times (B, k)), all rows or
    start row ``row``: ``_k2_entries`` at k = 2 (order 0, tail 0,
    converged) and ``g_series_batch`` at its default max_order above it,
    with no fallback.  Both are read as module globals, so replacing one
    here reaches every caller."""
    n, k = np.shape(times)
    if k != 2:
        return g_series_batch(weights, times, row=row)
    g = np.stack(_k2_entries(times[:, 0], times[:, 1], weights[:, 0, 1],
                             weights[:, 1, 0]), axis=1).reshape(n, 2, 2)
    return GBatch(g if row is None else g[:, row], np.zeros(n, dtype=int),
                  np.zeros(n), np.ones(n, dtype=bool))


def g_auto(graph: WeightedCollisionGraph, prefer: str | None = None,
           max_order: int = 80, *, nodes: int = 256) -> GMatrix:
    """Dispatch as ``g_rows`` does: Bessel closed form for k = 2, series
    otherwise, unless ``prefer`` names a route ("bessel_k2", "series" or
    "contour", which alone reads ``nodes``).  The series is never replaced
    by the contour when it does not converge."""
    method = prefer or ("bessel_k2" if graph.k == 2 else "series")
    if method == "bessel_k2":
        if graph.k != 2:
            raise InvalidInputError("closed form only exists for k = 2")
        w = graph.weights
        return g_bessel_k2(graph.times[0], graph.times[1], w[0, 1], w[1, 0])
    if method == "series":
        return g_series(graph, max_order=max_order)
    if method == "contour":
        return g_contour(graph, nodes=nodes)
    raise InvalidInputError(f"unknown method {method!r}")
