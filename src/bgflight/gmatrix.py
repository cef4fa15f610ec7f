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
Indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import InvalidInputError, SingularContourError
from .paths import WeightedCollisionGraph

# g_series fails when the rounding error of its largest layer exceeds this
# fraction of max(1, max |G|)
SERIES_ROUNDING_RTOL = 1e-10


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


@dataclass
class ContourSpec:
    """Quadrature layout: one circle per coordinate.

    ``radius`` may be a scalar or per-coordinate sequence; None picks
    1.0 + 1.1 r0.  ``nodes`` is the trapezoid count per circle; the error
    estimate compares against a half-node run.
    """

    radius: object = None
    nodes: int = 256


def default_radius(graph: WeightedCollisionGraph) -> float:
    return 1.0 + 1.1 * graph.r0


# ---------------------------------------------------------------------------
# series route: homogeneous layers of the resolvent expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomials(k: int, degree: int):
    """All exponent tuples of total degree ``degree`` over k variables,
    lexicographic, with an index lookup."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, k)
    index = {m: i for i, m in enumerate(out)}
    return tuple(out), index


@lru_cache(maxsize=None)
def _shift_sources(k: int, degree: int):
    """For each axis i, the layer-(degree-1) index of monomial - e_i,
    or -1 when the exponent on axis i vanishes."""
    monos, _ = _monomials(k, degree)
    _, prev_index = _monomials(k, degree - 1)
    src = np.full((k, len(monos)), -1, dtype=np.int64)
    for j, m in enumerate(monos):
        for i in range(k):
            if m[i] >= 1:
                key = m[:i] + (m[i] - 1,) + m[i + 1:]
                src[i, j] = prev_index[key]
    return src


def _borel_weights(k: int, degree: int, u: np.ndarray) -> np.ndarray:
    """prod_i u_i^(nu_i - 1) / (nu_i - 1)! per monomial; zero if any nu_i = 0."""
    monos, _ = _monomials(k, degree)
    expo = np.array(monos)
    pw = np.zeros((k, degree + 1))
    for e in range(1, degree + 1):
        pw[:, e] = u ** (e - 1) / math.factorial(e - 1)
    out = np.ones(len(monos))
    for i in range(k):
        out *= pw[i, expo[:, i]]
    return out


def g_series(graph: WeightedCollisionGraph, max_order: int = 80,
             tol: float = 1e-16) -> GMatrix:
    """Truncated series evaluation: accumulate the factorial transform of
    each homogeneous layer (D(u) W)^n D(u) at the vertex times.

    Stops once two consecutive layer contributions fall below ``tol``
    relative to the running value (two, because parity can zero alternate
    layers); ``converged`` is cleared when max_order runs out first.  It is
    also cleared when the largest layer is so much bigger than the result
    that its rounding error (machine epsilon times that layer) exceeds
    SERIES_ROUNDING_RTOL of the result's scale: cancellation has then eaten
    the digits, and the tail estimate reports that rounding error.
    """
    k, w, u = graph.k, graph.weights, graph.times
    monos1, idx1 = _monomials(k, 1)
    layer = np.zeros((k, k, len(monos1)), dtype=complex)
    for i in range(k):
        e = tuple(1 if a == i else 0 for a in range(k))
        layer[i, i, idx1[e]] = 1.0
    total = np.zeros((k, k), dtype=complex)
    last_two = [np.inf, np.inf]
    peak, scale = 0.0, 1.0
    order_reached = 0
    converged = False
    for degree in range(1, max_order + 2):
        bw = _borel_weights(k, degree, u)
        value = layer @ bw
        total += value
        order_reached = degree - 1
        vmax = float(np.max(np.abs(value)))
        peak = max(peak, vmax)
        last_two = [last_two[1], vmax]
        scale = max(1.0, float(np.max(np.abs(total))))
        # layers below total degree k vanish identically (every exponent
        # must reach 1), so only judge convergence past that point
        if degree > k and max(last_two) <= tol * scale:
            converged = True
            break
        if degree == max_order + 1:
            break
        src = _shift_sources(k, degree + 1)
        new = np.zeros((k, k, src.shape[1]), dtype=complex)
        for i in range(k):
            valid = src[i] >= 0
            if not np.any(valid):
                continue
            gathered = layer[:, :, src[i, valid]]
            new[i][:, valid] = np.tensordot(w[i], gathered, axes=(0, 0))
        layer = new
    rounding = np.finfo(float).eps * peak
    if rounding > SERIES_ROUNDING_RTOL * scale:
        converged = False
    return GMatrix(total, "series", order=order_reached,
                   tail_estimate=max(max(last_two), rounding),
                   converged=converged)


# ---------------------------------------------------------------------------
# contour route: iterated trapezoid over circles
# ---------------------------------------------------------------------------

def _contour_axes(graph, radius, nodes):
    theta = 2 * np.pi * np.arange(nodes) / nodes
    ring = np.exp(1j * theta)
    z_ax = [radius[i] * ring for i in range(graph.k)]
    # per-axis trapezoid factor (z/n) exp(u z)
    s_ax = [(z_ax[i] / nodes) * np.exp(graph.times[i] * z_ax[i])
            for i in range(graph.k)]
    return z_ax, s_ax


def _guard_det(min_det, radius):
    if min_det < 1e-12 * float(np.prod(radius)):
        raise SingularContourError(
            "near-singular matrix on the contour; increase the radius")


def _contour_k2(graph, radius, nodes):
    w = graph.weights
    z_ax, s_ax = _contour_axes(graph, radius, nodes)
    z1, z2 = z_ax[0][:, None], z_ax[1][None, :]
    det = z1 * z2 - w[0, 1] * w[1, 0]
    _guard_det(float(np.min(np.abs(det))), radius)
    t = (s_ax[0][:, None] * s_ax[1][None, :]) / det
    m0 = t.sum()
    m1 = t.sum(axis=1) @ z_ax[0]
    m2 = t.sum(axis=0) @ z_ax[1]
    return np.array([[m2, w[0, 1] * m0], [w[1, 0] * m0, m1]])


def _contour_k3(graph, radius, nodes, chunk_elems=1 << 21):
    # adjugate entries are affine in each z, so the full grid sum reduces
    # to moments of t = s/det against 1, z_i and z_i z_j
    w = graph.weights
    n = nodes
    z_ax, s_ax = _contour_axes(graph, radius, nodes)
    a12, a13, a23 = w[0, 1] * w[1, 0], w[0, 2] * w[2, 0], w[1, 2] * w[2, 1]
    cyc = w[0, 1] * w[1, 2] * w[2, 0] + w[0, 2] * w[2, 1] * w[1, 0]
    t12 = np.zeros((n, n), dtype=complex)
    t13 = np.zeros((n, n), dtype=complex)
    t23 = np.zeros((n, n), dtype=complex)
    min_det = np.inf
    z2 = z_ax[1][None, :, None]
    z3 = z_ax[2][None, None, :]
    z2z3 = z_ax[1][:, None] * z_ax[2][None, :]
    s23 = s_ax[1][:, None] * s_ax[2][None, :]
    chunk = max(1, chunk_elems // (n * n))
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        z1 = z_ax[0][sl][:, None, None]
        det = (z1 * (z2z3[None] - a23) - z2 * a13 - z3 * a12 - cyc)
        min_det = min(min_det, float(np.min(np.abs(det))))
        t = (s_ax[0][sl][:, None, None] * s23[None]) / det
        t12[sl] = t.sum(axis=2)
        t13[sl] = t.sum(axis=1)
        t23 += t.sum(axis=0)
    _guard_det(min_det, radius)
    m0 = t23.sum()
    m1 = t12.sum(axis=1) @ z_ax[0]
    m2 = t12.sum(axis=0) @ z_ax[1]
    m3 = t13.sum(axis=0) @ z_ax[2]
    m12 = z_ax[0] @ t12 @ z_ax[1]
    m13 = z_ax[0] @ t13 @ z_ax[2]
    m23 = z_ax[1] @ t23 @ z_ax[2]
    return np.array([
        [m23 - a23 * m0,
         w[0, 1] * m3 + w[0, 2] * w[2, 1] * m0,
         w[0, 1] * w[1, 2] * m0 + w[0, 2] * m2],
        [w[1, 0] * m3 + w[1, 2] * w[2, 0] * m0,
         m13 - a13 * m0,
         w[1, 2] * m1 + w[0, 2] * w[1, 0] * m0],
        [w[1, 0] * w[2, 1] * m0 + w[2, 0] * m2,
         w[2, 1] * m1 + w[0, 1] * w[2, 0] * m0,
         m12 - a12 * m0],
    ])


def _contour_generic(graph, radius, nodes, chunk_elems=1 << 19):
    k, w = graph.k, graph.weights
    n = nodes
    z_ax, s_ax = _contour_axes(graph, radius, nodes)
    total = np.zeros((k, k), dtype=complex)
    min_det = np.inf
    chunk = max(1, chunk_elems // max(1, n ** (k - 1)))
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        shape = (sl.stop - sl.start,) + (n,) * (k - 1)
        m = np.broadcast_to(-w, shape + (k, k)).copy()
        s = s_ax[0][sl].reshape([-1] + [1] * (k - 1)).astype(complex)
        for i in range(k):
            ax_shape = [1] * k
            ax_shape[i] = -1
            src = z_ax[i][sl] if i == 0 else z_ax[i]
            m[..., i, i] = np.broadcast_to(src.reshape(ax_shape), shape)
            if i > 0:
                s = s * s_ax[i].reshape(ax_shape)
        det = np.linalg.det(m)
        min_det = min(min_det, float(np.min(np.abs(det))))
        _guard_det(min_det, radius)
        inv = np.linalg.inv(m)
        total += np.sum(s[..., None, None] * inv, axis=tuple(range(k)))
    return total


def _contour_accumulate(graph, radius, nodes):
    if graph.k == 2:
        return _contour_k2(graph, radius, nodes)
    if graph.k == 3:
        return _contour_k3(graph, radius, nodes)
    return _contour_generic(graph, radius, nodes)


def g_contour(graph: WeightedCollisionGraph, spec: ContourSpec | None = None,
              error_estimate: bool = True) -> GMatrix:
    """Iterated trapezoid over k circles of (D(z) - W)^{-1} exp(u . z).

    The trapezoid rule is exponentially accurate here (periodic analytic
    integrand).  The reported quadrature error compares the result against a
    half-node run, i.e. the conservative estimate for the doubling step that
    produced the returned value.
    """
    spec = spec or ContourSpec()
    k = graph.k
    if spec.radius is None:
        radius = np.full(k, default_radius(graph))
    else:
        radius = np.broadcast_to(np.asarray(spec.radius, dtype=float),
                                 (k,)).copy()
    if np.any(radius <= graph.r0):
        raise InvalidInputError(
            f"radius must exceed r0 = {graph.r0:.6g} on every coordinate")
    if spec.nodes < 4:
        raise InvalidInputError("need at least 4 nodes per circle")
    fine = _contour_accumulate(graph, radius, spec.nodes)
    err = None
    if error_estimate:
        half = _contour_accumulate(graph, radius, max(4, spec.nodes // 2))
        err = float(np.max(np.abs(fine - half)))
    return GMatrix(fine, "contour", nodes=spec.nodes, quad_error=err)


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


def g_auto(graph: WeightedCollisionGraph, prefer: str | None = None,
           max_order: int = 80, spec: ContourSpec | None = None,
           **kwargs) -> GMatrix:
    """Dispatch: Bessel closed form for k = 2, contour otherwise, unless a
    method is forced.  ``max_order`` reaches the series route and ``spec``
    the contour route only when that route is the one taken; ``kwargs`` go
    to the chosen route."""
    method = prefer or ("bessel_k2" if graph.k == 2 else "contour")
    if method == "bessel_k2":
        if graph.k != 2:
            raise InvalidInputError("closed form only exists for k = 2")
        w = graph.weights
        return g_bessel_k2(graph.times[0], graph.times[1], w[0, 1], w[1, 0])
    if method == "series":
        return g_series(graph, max_order=max_order, **kwargs)
    if method == "contour":
        return g_contour(graph, spec, **kwargs)
    raise InvalidInputError(f"unknown method {method!r}")
