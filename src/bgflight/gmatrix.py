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
adj(D(z) - W) are affine in each z_i, so the grid sum of the trapezoid
weights times adj/det is a combination of 2^k moments of weight/det, taken
in one pass over the grid.  Grids beyond CONTOUR_GRID_CAP points are refused
with a CapacityError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import CapacityError, InvalidInputError, SingularContourError
from .paths import (WeightedCollisionGraph, _borel_weights, _layers,
                    _power_tables)

# g_series stops once two consecutive layers fall below this fraction of
# max(1, max |G|)
SERIES_TOL = 1e-16
# g_series fails when the rounding error of its largest layer exceeds this
# fraction of max(1, max |G|)
SERIES_ROUNDING_RTOL = 1e-10
# g_contour refuses a grid (nodes**k points) beyond this many points
CONTOUR_GRID_CAP = 1 << 26
# grid points per chunk of the contour pass
_CONTOUR_CHUNK = 1 << 20


def bessel_j_quadrature(n: int, z: complex, nodes: int = 512) -> complex:
    """Independent oracle: trapezoid of the periodic integral representation
    (1/2pi) int_0^2pi exp(i z sin t - i n t) dt."""
    t = 2 * np.pi * np.arange(nodes) / nodes
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
# contour route: iterated trapezoid over circles
# ---------------------------------------------------------------------------

def _adjugate(a):
    """Transposed cofactor matrix; defined for singular ``a`` too."""
    m = a.shape[0]
    minors = np.array([[np.delete(np.delete(a, i, 0), j, 1) for j in range(m)]
                       for i in range(m)])
    sign = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    return (sign * np.linalg.det(minors)).T


def _contour_coefficients(w):
    """det(D(z) - W) and adj(D(z) - W) as polynomials affine in each z_i.

    The coefficient of prod_{i in S} z_i is the det, and the adjugate
    embedded in the rows and columns outside S, of -W restricted to the axes
    outside S.  Both are indexed by the (2,)*k indicator of S.
    """
    k = w.shape[0]
    det_c = np.zeros((2,) * k, dtype=complex)
    adj_c = np.zeros((2,) * k + (k, k), dtype=complex)
    for bits in np.ndindex(*(2,) * k):
        rest = [i for i in range(k) if not bits[i]]
        if not rest:
            det_c[bits] = 1.0
            continue
        a = -w[np.ix_(rest, rest)]
        det_c[bits] = np.linalg.det(a)
        adj_c[bits][np.ix_(rest, rest)] = _adjugate(a)
    return det_c, adj_c


def _on_grid(coef, axes):
    """Polynomial affine in each coordinate, with (2,)*m coefficients,
    evaluated on the outer grid of the m coordinate arrays."""
    for z in axes:
        coef = coef[0][..., None] + coef[1][..., None] * z
    return coef


def _moments(t, vecs):
    """sum over the grid of t * prod_i vecs[i][b_i] for every b in {0, 1}^m,
    flattened with b_0 most significant; ``vecs[i]`` has shape (2, len of
    axis i of t).  Plain ufunc reductions: a BLAS contraction pays thread
    wake-ups that cost more than the sum itself on these grid sizes."""
    r = t[..., None]
    for v in reversed(vecs):
        r = (np.swapaxes(r, -1, -2)[..., None, :, :] * v[:, None, :]).sum(
            axis=-1)
        r = r.reshape(r.shape[:-2] + (-1,))
    return r


def _contour_sum(times, radius, nodes, det_c, adj_c):
    """Trapezoid sum of (D(z) - W)^{-1} exp(u . z) over the product of
    circles, as sum_S m_S adj_S with the moments m_S of s/det against
    prod_{i in S} z_i taken in one pass over the grid, in chunks along
    axis 0 with det = c0 + z_0 c1."""
    k, n = len(times), nodes
    z = radius[:, None] * np.exp(2j * np.pi * np.arange(n) / n)
    # per-axis trapezoid factor (z/n) exp(u z)
    s = (z / n) * np.exp(times[:, None] * z)
    vecs = np.stack([s, s * z], axis=1)
    c0, c1 = _on_grid(det_c[0], z[1:]), _on_grid(det_c[1], z[1:])
    z0 = z[0].reshape((-1,) + (1,) * (k - 1))
    floor = 1e-12 * float(np.prod(radius))
    m = np.zeros(2 ** k, dtype=complex)
    step = max(1, _CONTOUR_CHUNK // n ** (k - 1))
    for start in range(0, n, step):
        sl = slice(start, start + step)
        det = c0 + z0[sl] * c1
        if np.abs(det).min() < floor:
            raise SingularContourError(
                "near-singular matrix on the contour; increase the radius")
        m += _moments(1 / det, [vecs[0][:, sl], *vecs[1:]])
    return (m[:, None, None] * adj_c.reshape(-1, k, k)).sum(axis=0)


def g_contour(graph: WeightedCollisionGraph, *, nodes: int = 256,
              radius=None, error_estimate: bool = True) -> GMatrix:
    """Iterated trapezoid over k circles of (D(z) - W)^{-1} exp(u . z),
    ``nodes`` per circle, of radius ``radius`` (scalar or per coordinate;
    None picks 1 + 1.1 r0).  The trapezoid rule is exponentially accurate
    here (periodic analytic integrand).  The reported quadrature error
    compares the result against a half-node run, i.e. the conservative
    estimate for the doubling step that produced the returned value.
    """
    k = graph.k
    radius = np.asarray(1.0 + 1.1 * graph.r0 if radius is None else radius,
                        dtype=float)
    if radius.shape not in ((), (k,)):
        raise InvalidInputError(f"radius must be a number or {k} numbers")
    radius = np.broadcast_to(radius, (k,)).copy()
    if np.any(radius <= graph.r0):
        raise InvalidInputError(
            f"radius must exceed r0 = {graph.r0:.6g} on every coordinate")
    if nodes < 4:
        raise InvalidInputError("need at least 4 nodes per circle")
    if nodes ** k > CONTOUR_GRID_CAP:
        raise CapacityError(
            f"contour grid of {nodes}^{k} points exceeds the cap of "
            f"{CONTOUR_GRID_CAP}; lower nodes")
    coef = _contour_coefficients(graph.weights)
    fine = _contour_sum(graph.times, radius, nodes, *coef)
    err = None
    if error_estimate:
        half = _contour_sum(graph.times, radius, max(4, nodes // 2), *coef)
        err = float(np.max(np.abs(fine - half)))
    return GMatrix(fine, "contour", nodes=nodes, quad_error=err)


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


def g_rows(weights, times, row: int | None = None,
           max_order: int = 80) -> GBatch:
    """G of a batch of graphs (weights (B, k, k), times (B, k)), all rows or
    start row ``row``: ``_k2_entries`` at k = 2 (order 0, tail 0,
    converged) and ``g_series_batch`` above it, with no fallback.  Both are
    read as module globals, so replacing one here reaches every caller."""
    n, k = np.shape(times)
    if k != 2:
        return g_series_batch(weights, times, row=row, max_order=max_order)
    g = np.stack(_k2_entries(times[:, 0], times[:, 1], weights[:, 0, 1],
                             weights[:, 1, 0]), axis=1).reshape(n, 2, 2)
    return GBatch(g if row is None else g[:, row], np.zeros(n, dtype=int),
                  np.zeros(n), np.ones(n, dtype=bool))


def g_auto(graph: WeightedCollisionGraph, prefer: str | None = None,
           max_order: int = 80, *, nodes: int = 256,
           radius=None) -> GMatrix:
    """Dispatch as ``g_rows`` does: Bessel closed form for k = 2, series
    otherwise, unless ``prefer`` names a route ("bessel_k2", "series" or
    "contour", which alone reads ``nodes`` and ``radius``).  The series is
    never replaced by the contour when it does not converge."""
    method = prefer or ("bessel_k2" if graph.k == 2 else "series")
    if method == "bessel_k2":
        if graph.k != 2:
            raise InvalidInputError("closed form only exists for k = 2")
        w = graph.weights
        return g_bessel_k2(graph.times[0], graph.times[1], w[0, 1], w[1, 0])
    if method == "series":
        return g_series(graph, max_order=max_order)
    if method == "contour":
        return g_contour(graph, nodes=nodes, radius=radius)
    raise InvalidInputError(f"unknown method {method!r}")
