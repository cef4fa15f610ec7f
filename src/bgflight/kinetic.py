"""Collision-series densities and estimators for the two flight processes.

Two families of chain densities are evaluated in angular (on-shell) form,
where every kinetic-energy delta has been consumed against a sphere integral
and contributes a surface factor speed^(d-2):

* the memoryless chain: product of exponential survival factors and
  transition kernels 4 pi^2 speed^(d-2) |T|^2 between consecutive legs;
* the limit-process density for leg pair (ell, m): |g_{ell m}|^2 times the
  same survival factors, where g is the generating matrix function of the
  edge weights w_ij = -2 pi i T(y_i, y_j).

For k = 2 the matrix entries close in Bessel functions, which gives the
ratio identities used as tests: the (0,1) density is the memoryless one
times |J_0(4 pi sqrt(u1 u2 T01 T10))|^2, and the diagonal (0,0) density is
the memoryless one times (u1/u2)|T10/T01| |J_1(...)|^2.

An independent combinatorial route evaluates the same amplitude as a
truncated sum over non-consecutive ordered partitions (equivalently
surjective backtrack-free paths), with per-block factorial weights.

The Monte Carlo estimator samples its memoryless proposal chains in blocks
of arrays (sample_lb_block) from a counter-based stream: Philox4x64-10
under the key (seed, 0), draw j of lane l of chain i at the counter
(j + 1, i, l, 0), with seeds and chain indices in [0, 2**64).  A chain's
draws are a function of (seed, chain index) alone, so results do not
depend on how chains are grouped into blocks.  Collision rates and
scattering angles both come from the block's ScatteringModel.shell_table,
and the angles are drawn by its inverse CDF, with no rejection.  Every
chain that reaches leg k gives the k-leg term, its flight times turned
cyclically and weighed by the balance heuristic over the turns
(_turned_flights).

All leg indices are 0-based.  Momenta are stored as full d-vectors of a
common norm; a relative tolerance of 1e-9 decides on-shell membership.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from . import gmatrix as gm
from . import partitions as pa
from .scattering import ScatteringModel

ON_SHELL_RTOL = 1e-9
# chains per block of pair_estimate; no result depends on it
CHAIN_BLOCK = 256
# the chain sampler warns when a shell table's error estimate for a chain
# that scatters exceeds this
SHELL_TOL = 1e-6
# (draw, distinct term) pairs per chunk of the combinatorial amplitudes
COMB_CHUNK_ELEMS = 1 << 16


# ---------------------------------------------------------------------------
# phase-space symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSymbol:
    """Separable Gaussian phase-space profile
    amp exp(-pi ||x - xc||^2 / wx^2) exp(-pi ||y - yc||^2 / wy^2)."""

    x_center: np.ndarray
    y_center: np.ndarray
    x_width: float = 1.0
    y_width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x_center",
                           np.asarray(self.x_center, dtype=float))
        object.__setattr__(self, "y_center",
                           np.asarray(self.y_center, dtype=float))
        if self.x_width <= 0 or self.y_width <= 0:
            raise InvalidInputError("widths must be positive")

    @property
    def dim(self) -> int:
        return self.x_center.shape[-1]

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        qx = np.sum((x - self.x_center) ** 2, axis=-1) / self.x_width ** 2
        qy = np.sum((y - self.y_center) ** 2, axis=-1) / self.y_width ** 2
        return self.amplitude * np.exp(-math.pi * (qx + qy))

    def y_profile(self, y):
        y = np.asarray(y, dtype=float)
        qy = np.sum((y - self.y_center) ** 2, axis=-1) / self.y_width ** 2
        return np.exp(-math.pi * qy)

    def x_mass(self) -> float:
        """int over x of the position factor."""
        return self.x_width ** self.dim


def _gauss_cross(c1, c2, w1, w2, d):
    """int exp(-pi ||x-c1||^2/w1^2) exp(-pi ||x-c2||^2/w2^2) dx."""
    ssum = w1 * w1 + w2 * w2
    dist2 = np.sum((np.asarray(c1) - np.asarray(c2)) ** 2, axis=-1)
    return (w1 * w1 * w2 * w2 / ssum) ** (d / 2.0) * np.exp(
        -math.pi * dist2 / ssum)


def symbol_inner(f: GaussianSymbol, g: GaussianSymbol) -> float:
    """Full phase-space inner product <f, g> (real amplitudes)."""
    d = f.dim
    return float(f.amplitude * g.amplitude
                 * _gauss_cross(f.x_center, g.x_center, f.x_width, g.x_width, d)
                 * _gauss_cross(f.y_center, g.y_center, f.y_width, g.y_width, d))


def pair_overlap(b: GaussianSymbol, a: GaussianSymbol, shift, y_b, y_a):
    """int b(x, y_b) a(x - shift, y_a) dx, vectorised over leading axes of
    ``shift``/``y_a``/``y_b``."""
    d = b.dim
    xa = a.x_center + np.asarray(shift, dtype=float)
    return (b.amplitude * a.amplitude
            * _gauss_cross(b.x_center, xa, b.x_width, a.x_width, d)
            * b.y_profile(y_b) * a.y_profile(y_a))


# ---------------------------------------------------------------------------
# density values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityValue:
    """Angular chain density with its factor decomposition:
    value = amplitude * damping * shell."""

    value: float
    amplitude: float
    damping: float
    shell: float
    tail_estimate: float | None = None

    def __float__(self):
        return self.value


def _check_on_shell(momenta):
    speeds = [float(np.linalg.norm(y)) for y in momenta]
    ref = speeds[0]
    if ref == 0:
        raise InvalidInputError("chain momenta must be non-zero")
    if any(abs(s - ref) > ON_SHELL_RTOL * ref for s in speeds):
        raise InvalidInputError("chain momenta are off the energy shell")
    return ref


def rho_lb(u, momenta, model: ScatteringModel) -> DensityValue:
    """Memoryless chain density in angular form: survival factors times
    the product of transition kernels along consecutive legs."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise InvalidInputError("flight times must be non-negative")
    if len(u) != len(momenta):
        raise InvalidInputError("one flight time per leg")
    speed = _check_on_shell(momenta)
    sig = model.sigma_tot(speed)
    damping = math.exp(-float(np.sum(u)) * sig)
    legs = np.asarray(momenta, dtype=float)
    kernel = 1.0
    for t in model.t_matrix_batch(legs[:-1], legs[1:, None])[:, 0].tolist():
        kernel *= 4 * math.pi ** 2 * abs(t) ** 2
    shell = speed ** ((model.dim - 2) * (len(momenta) - 1))
    return DensityValue(damping * kernel * shell, kernel, damping, shell)


def rho_new_from_values(ell, m, u, tvals, sigma_tots, speed,
                        d) -> DensityValue:
    """Limit-process density from precomputed on-shell T values.

    ``tvals`` is the k x k matrix T(y_i, y_j) (diagonal ignored) and
    ``sigma_tots`` the per-leg total cross sections.  Row ``ell`` of G comes
    from ``gmatrix.g_rows``; an unconverged series is warned about, and its
    tail estimate is reported in ``tail_estimate``.
    """
    u = np.asarray(u, dtype=float)
    k = len(u)
    if not (0 <= ell < k and 0 <= m < k):
        raise InvalidInputError("leg indices out of range")
    if np.any(u < 0):
        raise InvalidInputError("flight times must be non-negative")
    damping = math.exp(-float(np.dot(u, np.asarray(sigma_tots, dtype=float))))
    shell = speed ** ((d - 2) * (k - 1))
    if k == 1:
        return DensityValue(damping, 1.0, damping, 1.0)
    w = -2j * math.pi * np.asarray(tvals, dtype=complex)
    if w.shape != (k, k):
        raise InvalidInputError("need a k x k matrix of T values")
    np.fill_diagonal(w, 0.0)
    out = gm.g_rows(w[None], u[None], row=ell)
    tail = float(out.tail_estimate[0])
    if not out.converged[0]:
        warnings.warn(f"G series unconverged at order {int(out.order[0])}: "
                      f"tail estimate {tail:.2e}", stacklevel=2)
    amp = abs(complex(out.entries[0, m])) ** 2
    return DensityValue(amp * damping * shell, amp, damping, shell,
                        tail_estimate=tail)


def rho_new(ell, m, u, momenta, model: ScatteringModel) -> DensityValue:
    """Limit-process density rho_{ell m} on a sampled chain configuration."""
    speed = _check_on_shell(momenta)
    k = len(momenta)
    sig = model.sigma_tot(speed)
    return rho_new_from_values(ell, m, u, _t_table(model, momenta),
                               [sig] * k, speed, model.dim)


def _t_table(model: ScatteringModel, momenta):
    """k x k matrices T(y_i, y_j) on shell of the chains ``momenta``
    (..., k, d): for each leg i one batch over the later legs of every
    chain, the lower triangle by reciprocity T(y_j, y_i) = T(y_i, y_j), and
    a zero diagonal (rho_new_from_values ignores it)."""
    legs = np.asarray(momenta, dtype=float)
    flat = legs.reshape((-1,) + legs.shape[-2:])
    k = flat.shape[1]
    tvals = np.zeros((len(flat), k, k), dtype=complex)
    for i in range(k - 1):
        tvals[:, i, i + 1:] = model.t_matrix_batch(flat[:, i],
                                                   flat[:, i + 1:])
        tvals[:, i + 1:, i] = tvals[:, i, i + 1:]
    return tvals.reshape(legs.shape[:-2] + (k, k))


# ---------------------------------------------------------------------------
# combinatorial route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _comb_table(kind, k, n_max):
    """The order k-1..n_max partition sum as arrays of distinct terms: order
    (terms,), block sizes (terms, k), edge counts (terms, k, k) of the path
    and multiplicity (terms,), from the label rows of the non-consecutive
    ordered partitions, each row its path.  Partitions with equal order,
    block sizes and edge counts give equal terms and share one row."""
    family = "circ_nc" if kind == "diag" else "baro_nc"
    keys = [np.zeros((0, 1 + k + k * k), dtype=int)]
    for n in range(k - 1, n_max + 1):
        rows = pa.partition_rows(n, k, family, ordered=True).astype(np.intp)
        m = len(rows)
        steps = (rows[:, :-1] * k + rows[:, 1:]
                 + k * k * np.arange(m)[:, None])
        counts = np.bincount(steps.ravel(), minlength=m * k * k)
        keys.append(np.column_stack([np.full(m, n), pa._block_sizes(rows, k),
                                     counts.reshape(m, k * k)]))
    keys, mult = np.unique(np.concatenate(keys), axis=0, return_counts=True)
    return (keys[:, 0], keys[:, 1:k + 1], keys[:, k + 1:].reshape(-1, k, k),
            mult.astype(complex))


def _comb_amplitudes(kind, u, w, n_max):
    """Partition-sum amplitudes for a batch of draws.

    ``u`` holds the times (draws, k) and ``w`` the edge weights
    (draws, k, k).  Returns the amplitude summed over orders k-1..n_max and
    the order-n_max contribution, both complex per draw.  Each term is
    prod w_ij^(edge count) prod u_i^(s_i - 1)/(s_i - 1)!; draws are taken in
    chunks of at most COMB_CHUNK_ELEMS (draw, distinct term) pairs.
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=complex)
    draws, k = u.shape
    orders, sizes, counts, mult = _comb_table(kind, k, n_max)
    last = orders == n_max
    edges = [(i, j) for i in range(k) for j in range(k)
             if np.any(counts[:, i, j])]
    amp = np.empty(draws, dtype=complex)
    tail = np.empty(draws, dtype=complex)
    step = max(1, COMB_CHUNK_ELEMS // max(1, len(orders)))
    for lo in range(0, draws, step):
        sl = slice(lo, min(lo + step, draws))
        wpow = np.ones(w[sl].shape + (n_max + 1,), dtype=complex)
        upow = np.ones(u[sl].shape + (n_max + 1,))
        for p in range(1, n_max + 1):
            wpow[..., p] = wpow[..., p - 1] * w[sl]
            upow[..., p] = upow[..., p - 1] * u[sl] / p
        term = np.tile(mult, (sl.stop - sl.start, 1))
        for i, j in edges:
            term *= wpow[:, i, j, counts[:, i, j]]
        for i in range(k):
            term *= upow[:, i, sizes[:, i] - 1]
        amp[sl] = term.sum(axis=1)
        tail[sl] = term[:, last].sum(axis=1)
    return amp, tail


def rho_combinatorial(kind, u, tvals, sigma_tots, speed, d, n_max=20,
                      tail_tol=1e-12) -> DensityValue:
    """Independent oracle for the limit-process density: exhaustive sum over
    non-consecutive ordered partitions with factorial time weights.

    ``kind`` = "diag" gives the (0, 0) density, "off" the (0, k-1) one.
    The sum over partition orders stops at ``n_max``; the modulus of the
    last order's contribution is reported as the tail estimate and warned
    about above ``tail_tol``.
    """
    if kind not in ("diag", "off"):
        raise InvalidInputError("kind must be 'diag' or 'off'")
    u = np.asarray(u, dtype=float)
    k = len(u)
    if kind == "off" and k < 2:
        raise InvalidInputError("off-diagonal densities need k >= 2")
    w = -2j * math.pi * np.asarray(tvals, dtype=complex)
    amp_sum, tail = _comb_amplitudes(kind, u[None], w[None], n_max)
    last = abs(tail[0])
    if last > tail_tol:
        warnings.warn(f"combinatorial tail {last:.2e} above {tail_tol:.0e} "
                      f"at n_max = {n_max}", stacklevel=2)
    damping = math.exp(-float(np.dot(u, np.asarray(sigma_tots, dtype=float))))
    shell = speed ** ((d - 2) * (k - 1))
    amp = abs(amp_sum[0]) ** 2
    return DensityValue(amp * damping * shell, amp, damping, shell,
                        tail_estimate=last)


# ---------------------------------------------------------------------------
# collision-series terms
# ---------------------------------------------------------------------------

def _sphere_grid(n_polar, n_azimuth):
    """Unit directions (n_polar, n_azimuth, 3) and weights (n_polar,
    n_azimuth) of a product rule on S^2: Gauss-Legendre in the cosine of
    the angle to e1, equal azimuths around it, one ring per polar node."""
    cn, cw = np.polynomial.legendre.leggauss(n_polar)
    phi = 2 * math.pi * np.arange(n_azimuth) / n_azimuth
    cth = np.repeat(cn, n_azimuth)
    sth = np.sqrt(1 - cth ** 2)
    ph = np.tile(phi, n_polar)
    dirs = np.stack([cth, sth * np.cos(ph), sth * np.sin(ph)], axis=-1)
    weights = np.repeat(cw, n_azimuth) * (2 * math.pi / n_azimuth)
    return (dirs.reshape(n_polar, n_azimuth, 3),
            weights.reshape(n_polar, n_azimuth))


def f_term(series, k, t, x, y, a: GaussianSymbol, model: ScatteringModel,
           u_nodes=48, sphere=(16, 32)) -> float:
    """Pointwise collision-series term f^(k)(t, x, y) for k <= 2.

    k = 1 is the shared free-flight term a(x - t y, y) exp(-t Sigma_tot).
    k = 2 integrates the partner momentum over the shell sphere and the
    first flight time over [0, t] (the second is t - u1); the limit-process
    variant sums all four leg pairings with the 1/2! symmetry factor.
    """
    if series not in ("lb", "new"):
        raise InvalidInputError("series must be 'lb' or 'new'")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if t <= 0:
        raise InvalidInputError("need t > 0")
    speed = float(np.linalg.norm(y))
    if speed == 0:
        raise InvalidInputError("need a non-zero momentum")
    if k == 1:
        return float(a.value(x - t * y, y)
                     * math.exp(-t * model.sigma_tot(speed)))
    if k != 2 or model.dim != 3:
        raise InvalidInputError("pointwise terms implemented for k <= 2, d = 3")
    return _k2_term(series, t, y, model,
                    lambda shift, y_a: a.value(x - shift, y_a),
                    _sphere_grid(*sphere),
                    np.polynomial.legendre.leggauss(u_nodes))


def _k2_term(series, t, y, model: ScatteringModel, observable, sphere_rule,
             time_rule) -> float:
    """Two-leg term ending at momentum y (d = 3): integral over the partner
    momentum p on the shell sphere of |y| (``sphere_rule`` = directions and
    weights of _sphere_grid, whose rings are turned from e1 onto y) and over
    the first flight time u1 in [0, t] (``time_rule`` = Gauss-Legendre nodes
    and weights on [-1, 1]; the second flight is t - u1), weighting
    ``observable(shift, y_a)``.  ``shift`` = u1 y + u2 p is the free-flight
    displacement and ``y_a`` the momentum the observable is read at, both
    vectorised over (u1 node, partner).

    On shell T(y, p) depends on |y| and the cosine of (y, p) only, and each
    ring of the sphere rule shares that cosine, so T, and with it the k = 2
    entries of ``new``, is taken at the first partner of each ring and
    repeated over its azimuths.
    """
    dirs, dw = sphere_rule
    azimuths = dirs.shape[1]
    dirs, dw = dirs.reshape(-1, 3), dw.ravel()
    un, uw = time_rule
    speed = float(np.linalg.norm(y))
    partners = speed * _from_axis(y / speed, dirs)
    ring_t = model.t_matrix_batch(y, partners[::azimuths])
    u1 = 0.5 * t * (un[:, None] + 1.0)
    u2 = t - u1
    shift = u1[..., None] * y + u2[..., None] * partners
    shell = speed ** (model.dim - 2)
    if series == "lb":
        tv = np.repeat(ring_t, azimuths)
        dens = 4 * math.pi ** 2 * np.abs(tv) ** 2 * shell
        inner = dens * observable(shift, partners)
    else:
        # the (ell = 1) pairings relabel onto the (ell = 0) ones under the
        # time swap (g_11(u1,u2; p,y) = g_00(u2,u1; y,p) and likewise
        # 10 <-> 01), cancelling the 1/2! factor: two terms remain.  On
        # shell T(p, y) = T(y, p), so one batch gives both edge weights.
        w = -2j * math.pi * ring_t
        g00, g01 = (np.repeat(g, azimuths, axis=1)
                    for g in gm._k2_entries(u1, u2, w, w)[:2])
        inner = (np.abs(g00) ** 2 * observable(shift, y)
                 + np.abs(g01) ** 2 * observable(shift, partners)) * shell
    # equal speeds: survival depends on t only
    damping = math.exp(-t * model.sigma_tot(speed))
    return float(damping * (0.5 * t * uw) @ inner @ dw)


# ---------------------------------------------------------------------------
# random stream
# ---------------------------------------------------------------------------

# seeds and chain indices are integers in [0, SEED_LIMIT)
SEED_LIMIT = 1 << 64
# Philox4x64-10 (Salmon et al., SC'11): the multipliers of words 0 and 2,
# as a column, and the key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32, _S32, _S11 = (np.uint64(v) for v in (0xFFFFFFFF, 32, 11))


def _check_seed(seed):
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < SEED_LIMIT):
        raise InvalidInputError(f"seed must be an integer in [0, 2**64), "
                                f"not {seed!r}")
    return int(seed)


def _philox(seed, c0, c1, c2):
    """Philox4x64-10 with key (seed, 0) at the counters (c0, c1, c2, 0),
    broadcast over the three arrays: the four output words on a new last
    axis, uint64.  np.random.Philox(key=(seed, 0), counter=(c0 - 1, c1, c2,
    0)).random_raw(4) gives the same words.  The state is one (4, n) array,
    so each round multiplies words 0 and 2 in one pass; the high words of
    the 128-bit products come from 32-bit halves."""
    shape = np.broadcast_shapes(np.shape(c0), np.shape(c1), np.shape(c2))
    x = np.zeros((4,) + shape, dtype=np.uint64)
    x[0], x[1], x[2] = c0, c1, c2
    x = x.reshape(4, -1)
    keys = np.array([[(seed + r * _PHILOX_W[0]) % SEED_LIMIT,
                      r * _PHILOX_W[1] % SEED_LIMIT] for r in range(10)],
                    dtype=np.uint64)[:, :, None]
    m_lo, m_hi = _PHILOX_M & _LO32, _PHILOX_M >> _S32
    for key in keys:
        a = x[0::2]
        a_lo, a_hi = a & _LO32, a >> _S32
        p1, p2 = m_lo * a_hi, m_hi * a_lo
        mid = ((m_lo * a_lo) >> _S32) + (p1 & _LO32) + (p2 & _LO32)
        hi = m_hi * a_hi + (p1 >> _S32) + (p2 >> _S32) + (mid >> _S32)
        y = np.empty_like(x)
        y[0::2] = hi[::-1] ^ x[1::2] ^ key
        y[1::2] = (_PHILOX_M * a)[::-1]
        x = y
    return np.moveaxis(x.reshape((4,) + shape), 0, -1)


def _uniforms(seed, chains, lanes, draws):
    """Uniforms in [0, 1) from draws ``draws`` of lanes ``lanes`` of chains
    ``chains`` (broadcast): the four words of counter (draw + 1, chain,
    lane, 0) on the last axis, each as (word >> 11) 2^-53."""
    words = _philox(seed, np.asarray(draws, dtype=np.uint64) + 1, chains,
                    lanes)
    return (words >> _S11) * 2.0 ** -53


def _normals(u):
    """Box-Muller: standard normals from pairs of uniforms on the last axis
    (u_2p, u_2p+1) -> (r cos phi, r sin phi), r = sqrt(-2 log(1 - u_2p)),
    phi = 2 pi u_2p+1."""
    r = np.sqrt(-2 * np.log1p(-u[..., 0::2]))
    phi = 2 * math.pi * u[..., 1::2]
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1).reshape(
        u.shape)


# ---------------------------------------------------------------------------
# chain sampling
# ---------------------------------------------------------------------------

def _from_axis(axis, x):
    """The Householder reflection sending e1 to the unit vector ``axis``,
    applied to ``x``: 2 v (v.x)/(v.v) - x with v = axis + e1, broadcast over
    leading axes.  Where ``axis`` is within about 1e-7 of -e1 (v.v below
    1e-14) the reflection is -I, which also sends e1 to -e1."""
    v = np.array(axis, dtype=float)
    v[..., 0] += 1.0
    nv = np.sum(v * v, axis=-1, keepdims=True)
    near = nv < 1e-14
    coef = np.where(near, 0.0, 2 * np.sum(v * x, axis=-1, keepdims=True)
                    / np.where(near, 1.0, nv))
    return coef * v - x


def _complements(seed, chains, lane, u_phi, d):
    """Uniform unit vectors of the orthogonal complement, one per chain: in
    d = 3 the azimuths of ``u_phi``, in d > 3 d - 1 Box-Muller normals from
    draws 1, 2, ... of ``lane``, normalised."""
    if d == 3:
        phi = 2 * math.pi * u_phi
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    draws = -(-(d - 1) // 4)
    u = _uniforms(seed, chains[:, None], lane, np.arange(1, draws + 1))
    z = _normals(u.reshape(len(chains), -1))[:, :d - 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@dataclass(frozen=True)
class ChainBlock:
    """A block of memoryless chains as arrays: flight times (n, max_legs),
    momenta (n, max_legs, d), both zero beyond each chain's leg count
    ``legs`` (n,), ``truncated`` (n,), set for chains that reached max_legs
    with time left, and ``rates`` (n,), the total cross section at each
    chain's speed (its collision rate)."""

    times: np.ndarray
    momenta: np.ndarray
    legs: np.ndarray
    truncated: np.ndarray
    rates: np.ndarray


def sample_lb_block(t, y0, model: ScatteringModel, seed, chains,
                    max_legs=64) -> ChainBlock:
    """Memoryless chains from the initial momenta ``y0`` (n, d) up to total
    time t: exponential flight times at rate Sigma_tot(speed), scattering
    directions from |T|^2.  Row r is chain ``chains[r]`` of the stream of
    ``seed``, and reads only that chain's counters, so its draws do not
    depend on which chains share the block.

    Stream layout (Philox4x64-10, key (seed, 0); draw j of lane l of chain
    i is counter (j + 1, i, l, 0)): lane 0 is left to the caller (the
    initial momentum and the turns of pair_estimate); leg m reads lane
    m + 1, whose draw 0 gives the flight time -log1p(-u_0)/Sigma_tot and
    the direction of the next leg: the scattering angle at the CDF level
    u_1, and the azimuth 2 pi u_2 in d = 3 or, in d > 3, a uniform unit
    vector of the orthogonal complement from draws 1, 2, ... of the lane
    (_complements).

    One ScatteringModel.shell_table call per block gives the collision
    rates and the law of the scattering angle, drawn by its inverse CDF
    with no bound and no rejection: the closed form at Born order 1 in
    d = 3, otherwise the interpolated |T|^2 at the polar nodes of the total
    cross section.  One warning per block reports the chains that scatter
    with a table error estimate above SHELL_TOL, and the worst estimate.
    """
    seed = _check_seed(seed)
    y0 = np.asarray(y0, dtype=float)
    chains = np.asarray(chains)
    if chains.shape != y0.shape[:1] or y0.ndim != 2:
        raise InvalidInputError("need initial momenta (n, d), one chain "
                                "index per row")
    if chains.size and (chains.dtype.kind not in "iu" or chains.min() < 0):
        raise InvalidInputError("chain indices must be non-negative integers")
    chains = chains.astype(np.uint64)
    speed = np.linalg.norm(y0, axis=1)
    if np.any(speed == 0) or t <= 0 or max_legs < 1:
        raise InvalidInputError("need y0 != 0, t > 0 and max_legs >= 1")
    n, d = y0.shape
    lanes = np.arange(1, max_legs + 1)
    first = _uniforms(seed, chains[:, None], lanes, 0)
    table = model.shell_table(speed)
    dt = -np.log1p(-first[..., 0]) / table.rates[:, None]
    elapsed = np.cumsum(dt, axis=1)
    ends = elapsed >= t
    truncated = ~ends.any(axis=1)
    legs = np.where(truncated, max_legs, ends.argmax(axis=1) + 1)
    rows = np.arange(n)
    live = lanes[None, :] <= legs[:, None]
    times = np.where(live, dt, 0.0)
    done = rows[~truncated]
    last = legs[done] - 1
    times[done, last] = t - np.where(last > 0, elapsed[done, last - 1], 0.0)
    momenta = np.zeros((n, max_legs, d))
    momenta[:, 0] = y0
    for leg in range(int(legs.max(initial=1)) - 1):
        sel = rows[legs > leg + 1]
        axis = momenta[sel, leg] / speed[sel, None]
        # the Householder image of (cos theta, sin theta v), v a unit
        # vector of the orthogonal complement
        c = table.cosines(sel, first[sel, leg, 1])[:, None]
        v = _complements(seed, chains[sel], leg + 1, first[sel, leg, 2], d)
        new = np.concatenate([c, np.sqrt(1.0 - c * c) * v], axis=1)
        momenta[sel, leg + 1] = speed[sel, None] * _from_axis(axis, new)
    poor = (legs > 1) & (table.error > SHELL_TOL)
    if poor.any():
        warnings.warn(
            f"shell table error estimate above {SHELL_TOL:.0e} on "
            f"{int(poor.sum())} of {n} chains: worst "
            f"{table.error[poor].max():.2e}", stacklevel=2)
    return ChainBlock(times, momenta, legs, truncated, table.rates)


# ---------------------------------------------------------------------------
# pairing estimators
# ---------------------------------------------------------------------------

@dataclass
class EstimateResult:
    value: float
    stderr: float
    n_samples: int
    per_k: dict
    ess: float
    return_mass: float | None = None
    truncated_fraction: float = 0.0

    def within(self, reference, sigmas=3.0) -> bool:
        return abs(self.value - reference) <= sigmas * self.stderr


def _proposal(a: GaussianSymbol, b: GaussianSymbol):
    mu = 0.5 * (a.y_center + b.y_center)
    sd = (0.5 * max(a.y_width, b.y_width)
          + 0.5 * float(np.linalg.norm(a.y_center - b.y_center)) + 0.25)
    return mu, sd


def _proposal_pdf(y, mu, sd):
    d = len(mu)
    q = np.sum((y - mu) ** 2, axis=-1) / (2 * sd * sd)
    return np.exp(-q) / (2 * math.pi * sd * sd) ** (d / 2.0)


def pair_estimate(series, a: GaussianSymbol, b: GaussianSymbol | None, t,
                  k_max, n_samples, model: ScatteringModel,
                  seed=0) -> EstimateResult:
    """Monte Carlo pairing <b, f(t)> of the truncated collision series
    against the memoryless proposal chain.

    The initial momentum is drawn from a Gaussian covering both symbols'
    momentum profiles; subsequent dynamics follow the memoryless process, so
    its series terms carry unit density ratio.  The limit-process terms are
    reweighted by the density ratio summed over all (ell, m) leg pairings
    with the 1/k! symmetry factor.  Every chain that reaches leg k gives
    term k: its first k momenta, with its flights completed to t and turned
    as in _turned_flights, whose weight stands in for the chance that the
    chain stops at leg k.  ``b = None`` estimates the total mass of f(t)
    instead of a pairing.  ``seed`` is an integer in [0, 2**64).

    Chain i (i < n_samples) takes its initial momentum from draws 0, ...,
    ceil(d/4) - 1 of lane 0 of its counters (Box-Muller), the turn of its
    k-leg term from word k - 1 of the next draw of lane 0, and its legs
    from sample_lb_block, so its draws are a function of (seed, i) alone
    and a fixed seed means bit-identical output.  Chains run in blocks of
    CHAIN_BLOCK, whose size changes no result.  Chains that reach leg k_max
    with time left count as truncated: the series misses their later
    terms.  One warning per call reports the chains whose G series did not
    converge.
    """
    if series not in ("lb", "new"):
        raise InvalidInputError("series must be 'lb' or 'new'")
    if k_max < 1 or k_max > 4:
        raise InvalidInputError("k_max must be in 1..4")
    if n_samples < 2:
        raise InvalidInputError("n_samples must be at least 2 (the standard "
                                "error needs two chains)")
    seed = _check_seed(seed)
    d = model.dim
    mu_q, sd_q = _proposal(a, b) if b is not None else (a.y_center,
                                                        a.y_width + 0.25)
    # draws of lane 0 holding the initial momentum's normals; the next
    # draw holds the turns
    normal_draws = -(-d // 4)
    terms = np.zeros((n_samples, k_max))
    returns = np.zeros(n_samples)
    flags = np.zeros(n_samples, dtype=bool)
    tails = np.zeros(n_samples)
    unconverged = np.zeros(n_samples, dtype=bool)
    for lo in range(0, n_samples, CHAIN_BLOCK):
        idx = np.arange(lo, min(lo + CHAIN_BLOCK, n_samples))
        u = _uniforms(seed, idx[:, None], 0, np.arange(normal_draws + 1))
        y1 = mu_q + sd_q * _normals(
            u[:, :normal_draws].reshape(len(idx), -1))[:, :d]
        keep = np.linalg.norm(y1, axis=1) >= 1e-9
        idx, y1, turns = idx[keep], y1[keep], u[keep, normal_draws]
        q = _proposal_pdf(y1, mu_q, sd_q)
        block = sample_lb_block(t, y1, model, seed, idx, max_legs=k_max)
        flags[idx] = block.truncated
        for k in range(1, k_max + 1):
            sel = np.nonzero(block.legs >= k)[0]
            chains = idx[sel]
            legs = block.momenta[sel, :k]
            times, mis = _turned_flights(t, block.times[sel, :k],
                                         block.rates[sel], turns[sel, k - 1])
            shift = sum(times[:, j, None] * legs[:, j] for j in range(k))
            if series == "lb" or k == 1:
                # the one-leg terms of the two series coincide
                terms[chains, k - 1] = mis * _overlap_or_mass(
                    b, a, shift, y1[sel], legs[:, k - 1]) / q[sel]
            elif sel.size:
                weights, shares, bad = _new_weights(
                    b, a, shift, legs, times, model, q[sel])
                terms[chains, k - 1] = mis * weights
                returns[chains] += mis * shares
                for row, tail in bad:
                    unconverged[chains[row]] = True
                    tails[chains[row]] = max(tails[chains[row]], tail)
    n = n_samples
    contribs = terms.sum(axis=1)
    value = float(np.sum(contribs) / n)
    stderr = float(np.std(contribs, ddof=1) / math.sqrt(n))
    per_k = {k: float(np.sum(terms[:, k - 1])) / n
             for k in range(1, k_max + 1)}
    nz = contribs[contribs != 0]
    ess = float((np.abs(nz).sum() ** 2) / (nz @ nz)) if nz.size else 0.0
    if nz.size and ess < 0.05 * nz.size:
        warnings.warn("effective sample size below 5 percent", stacklevel=2)
    if unconverged.any():
        warnings.warn(f"G series unconverged on {int(unconverged.sum())} of "
                      f"{n} chains: worst tail estimate {tails.max():.2e}",
                      stacklevel=2)
    return EstimateResult(
        value=value, stderr=stderr, n_samples=n, per_k=per_k, ess=ess,
        return_mass=(float(np.sum(returns)) / n if series == "new" else None),
        truncated_fraction=float(np.sum(flags)) / n)


def _turned_flights(t, flights, rates, turns):
    """Flight times and weights of the k-leg term for m chains that reach
    leg k: ``flights`` (m, k) holds their first k - 1 flights (the last
    column is not read), ``rates`` (m,) their collision rates Sigma_tot and
    ``turns`` (m,) uniforms in [0, 1).

    The last flight is completed to t, u_k = t - (u_1 + ... + u_(k-1)),
    and the k flights are turned cyclically by floor(k turn) steps.  The
    memoryless chains that reach leg k have flights with density
    rate^(k-1) exp(-rate (t - u_k)) on the simplex u_1 + ... + u_k = t, and
    the k-leg term integrates against rate^(k-1) exp(-rate t); over the k
    equally likely turns the weight k / sum_j exp(rate u_j) makes each
    chain an unbiased draw of the term (the balance heuristic of multiple
    importance sampling).  The turns sample short last flights as often as
    long first ones.  Returns the flights (m, k) and the weights (m,)."""
    m, k = flights.shape
    u = np.array(flights, dtype=float)
    u[:, -1] = np.maximum(t - u[:, :-1].sum(axis=1), 0.0)
    steps = np.minimum((k * turns).astype(int), k - 1)
    u = np.take_along_axis(u, (np.arange(k) + steps[:, None]) % k, axis=1)
    top = u.max(axis=1, initial=0.0)
    norm = np.exp(rates[:, None] * (u - top[:, None])).sum(axis=1)
    return u, k * np.exp(-rates * top) / norm


def _overlap_or_mass(b, a, shift, y_b, y_a):
    if b is None:
        return a.x_mass() * a.amplitude * a.y_profile(y_a)
    return pair_overlap(b, a, shift, y_b, y_a)


def _new_weights(b, a, shift, legs, times, model, q):
    """Limit-process reweighting of m proposal chains of k >= 2 legs each
    (legs (m, k, d), times (m, k), shift (m, d), proposal density q (m,)),
    and their return shares.

    The weight sums rho_{ell m} / rho_lb times the overlap at leg m over the
    leg pairings (ell, m), the drawn leg moved to position ell, with the 1/k!
    factor, over ``q``.  Damping and shell cancel, and
    G(P W P^T, P u) = P G(W, u) P^T makes entry (ell, m) of every permuted
    assignment g_{0 pos(m)} of one G, so the weight is
    sum_j |g_0j|^2 ov(leg j) / ((k-1)! kernel q), the kernel being the
    product of 4 pi^2 |T|^2 along the legs; the return share (ell = m) is
    its j = 0 term.  Row 0 of G comes from one ``gmatrix.g_rows`` call
    over all m chains (the vectorised closed form at k = 2, one batched
    series above it, each chain judged converged on that row).  Returns
    (weights, shares, tails), tails holding (row, tail estimate) of the
    unconverged series; a chain with a zero kernel weighs 0.
    """
    m, k = times.shape
    weights = np.zeros(m)
    shares = np.zeros(m)
    tvals = _t_table(model, legs)
    kernel = np.ones(m)
    for i in range(k - 1):
        kernel = kernel * (4 * math.pi ** 2 * np.abs(tvals[:, i, i + 1]) ** 2)
    live = kernel != 0.0
    out = gm.g_rows(-2j * math.pi * tvals[live], times[live], row=0)
    bad = ~out.converged
    tails = list(zip(np.nonzero(live)[0][bad].tolist(),
                     out.tail_estimate[bad].tolist()))
    scale = math.factorial(k - 1) * kernel[live] * q[live]
    terms = [np.abs(out.entries[:, j]) ** 2
             * _overlap_or_mass(b, a, shift[live], legs[live, 0],
                                legs[live, j]) / scale
             for j in range(k)]
    weights[live] = sum(terms)
    shares[live] = terms[0]
    return weights, shares, tails


def pair_quadrature(series, a: GaussianSymbol, b: GaussianSymbol, t,
                    model: ScatteringModel, k, y_nodes=12, u_nodes=24,
                    sphere=(12, 24)) -> float:
    """Deterministic oracle for <b, f^(k)(t)>, k <= 2, d = 3: tensor
    quadrature over the observed momentum (and partner sphere and flight
    split for k = 2), with the position integral closed in Gaussians."""
    if model.dim != 3:
        raise InvalidInputError("the deterministic pairing assumes d = 3")
    # the momentum integrand carries the product of both y profiles; size
    # the box from their combined precision so the nodes resolve it
    beta = math.pi * (1.0 / a.y_width ** 2 + 1.0 / b.y_width ** 2)
    centers = (a.y_center / a.y_width ** 2 + b.y_center / b.y_width ** 2) \
        / (1.0 / a.y_width ** 2 + 1.0 / b.y_width ** 2)
    half = 5.5 / math.sqrt(2 * beta) \
        + 0.5 * float(np.linalg.norm(a.y_center - b.y_center))
    gn, gw = np.polynomial.legendre.leggauss(y_nodes)
    axes = [centers[i] + half * gn for i in range(3)]
    w = half * gw
    if k not in (1, 2):
        raise InvalidInputError("deterministic pairing supports k <= 2")
    if k == 2:
        sphere_rule = _sphere_grid(*sphere)
        time_rule = np.polynomial.legendre.leggauss(u_nodes)
    # the momentum grid flattened row-major, node weights (w0 w1) w2
    ys = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    wys = np.multiply.outer(np.outer(w, w), w).ravel()
    total = 0.0
    for y, wy in zip(ys, wys):
        speed = float(np.linalg.norm(y))
        if speed < 1e-9:
            continue
        if k == 1:
            total += (wy * pair_overlap(b, a, t * y, y, y)
                      * math.exp(-t * model.sigma_tot(speed)))
        else:
            total += wy * _k2_term(
                series, t, y, model,
                lambda shift, y_a: pair_overlap(b, a, shift, y, y_a),
                sphere_rule, time_rule)
    return float(total)
