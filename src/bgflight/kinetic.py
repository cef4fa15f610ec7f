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

All leg indices are 0-based.  Momenta are stored as full d-vectors of a
common norm; a relative tolerance of 1e-9 decides on-shell membership.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from . import partitions as pa
from .gmatrix import _k2_entries, g_auto
from .paths import WeightedCollisionGraph, partition_to_path
from .scattering import ScatteringModel

ON_SHELL_RTOL = 1e-9
# direction proposals per rejection batch of the chain sampler
PROPOSAL_BATCH = 64
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


@dataclass
class CollisionChain:
    """Sampled trajectory: per-leg momenta (equal norms) and flight times."""

    momenta: list
    times: list
    truncated: bool = False

    @property
    def k(self) -> int:
        return len(self.momenta)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.momenta[0]))

    @property
    def total_time(self) -> float:
        return float(sum(self.times))


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
    kernel = 1.0
    for y_out, y_in in zip(momenta[:-1], momenta[1:]):
        t = model.t_matrix(y_out, y_in)
        kernel *= 4 * math.pi ** 2 * abs(t) ** 2
    shell = speed ** ((model.dim - 2) * (len(momenta) - 1))
    return DensityValue(damping * kernel * shell, kernel, damping, shell)


def rho_new_from_values(ell, m, u, tvals, sigma_tots, speed, d,
                        method=None, spec=None) -> DensityValue:
    """Limit-process density from precomputed on-shell T values.

    ``tvals`` is the k x k matrix T(y_i, y_j) (diagonal ignored) and
    ``sigma_tots`` the per-leg total cross sections.  k = 2 uses the Bessel
    closed form, larger k the contour integral with ContourSpec ``spec``,
    unless ``method`` overrides.
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
    np.fill_diagonal(w, 0.0)
    graph = WeightedCollisionGraph(w, u)
    gmat = g_auto(graph, prefer=method, spec=spec)
    amp = abs(gmat.entry(ell, m)) ** 2
    return DensityValue(amp * damping * shell, amp, damping, shell)


def rho_new(ell, m, u, momenta, model: ScatteringModel,
            method=None) -> DensityValue:
    """Limit-process density rho_{ell m} on a sampled chain configuration."""
    speed = _check_on_shell(momenta)
    k = len(momenta)
    sig = model.sigma_tot(speed)
    return rho_new_from_values(ell, m, u, _t_table(model, momenta),
                               [sig] * k, speed, model.dim, method=method)


def _t_table(model: ScatteringModel, momenta):
    """k x k matrix T(y_i, y_j) on shell: one batch per row over the later
    legs, the lower triangle by reciprocity T(y_j, y_i) = T(y_i, y_j), and a
    zero diagonal (rho_new_from_values ignores it)."""
    legs = np.asarray(momenta, dtype=float)
    k = len(legs)
    tvals = np.zeros((k, k), dtype=complex)
    for i in range(k - 1):
        tvals[i, i + 1:] = tvals[i + 1:, i] = model.t_matrix_batch(
            legs[i], legs[i + 1:])
    return tvals


# ---------------------------------------------------------------------------
# combinatorial route
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _comb_table(kind, k, n_max):
    """The order k-1..n_max partition sum as arrays of distinct terms: order
    (terms,), block sizes (terms, k), edge counts (terms, k, k) of the path
    and multiplicity (terms,), derived from the non-consecutive ordered
    partitions.  Partitions with equal order, block sizes and edge counts
    give equal terms and share one row."""
    family = "circ_nc" if kind == "diag" else "baro_nc"
    mult = Counter()
    for n in range(k - 1, n_max + 1):
        for op in pa.enumerate_partitions(n, k, family=family, ordered=True):
            path = partition_to_path(op)
            cnt = np.zeros((k, k), dtype=int)
            for i, j in zip(path[:-1], path[1:]):
                cnt[i, j] += 1
            sizes = tuple(len(blk) for blk in op.blocks)
            mult[(n, sizes, tuple(cnt.ravel()))] += 1
    keys = sorted(mult)
    return (np.array([key[0] for key in keys], dtype=int),
            np.array([key[1] for key in keys], dtype=int).reshape(-1, k),
            np.array([key[2] for key in keys], dtype=int).reshape(-1, k, k),
            np.array([mult[key] for key in keys], dtype=complex))


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
    cn, cw = np.polynomial.legendre.leggauss(n_polar)
    phi = 2 * math.pi * np.arange(n_azimuth) / n_azimuth
    cth = np.repeat(cn, n_azimuth)
    sth = np.sqrt(1 - cth ** 2)
    ph = np.tile(phi, n_polar)
    dirs = np.stack([cth, sth * np.cos(ph), sth * np.sin(ph)], axis=-1)
    weights = np.repeat(cw, n_azimuth) * (2 * math.pi / n_azimuth)
    return dirs, weights


def _rotate_from_axis(direction):
    """Orthogonal matrix sending e1 to ``direction``."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    e = np.zeros_like(d)
    e[0] = 1.0
    v = d + e
    nv = v @ v
    if nv < 1e-14:
        out = -np.eye(len(d))
        return out
    return 2 * np.outer(v, v) / nv - np.eye(len(d))


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
    weights) and over the first flight time u1 in [0, t] (``time_rule`` =
    Gauss-Legendre nodes and weights on [-1, 1]; the second flight is
    t - u1), weighting ``observable(shift, y_a)``.  ``shift`` =
    u1 y + u2 p is the free-flight displacement and ``y_a`` the momentum the
    observable is read at, both vectorised over (u1 node, partner).
    """
    dirs, dw = sphere_rule
    un, uw = time_rule
    speed = float(np.linalg.norm(y))
    partners = speed * dirs @ _rotate_from_axis(y).T
    tv = model.t_matrix_batch(y, partners)
    u1 = 0.5 * t * (un[:, None] + 1.0)
    u2 = t - u1
    shift = u1[..., None] * y + u2[..., None] * partners
    shell = speed ** (model.dim - 2)
    if series == "lb":
        dens = 4 * math.pi ** 2 * np.abs(tv) ** 2 * shell
        inner = dens * observable(shift, partners)
    else:
        # the (ell = 1) pairings relabel onto the (ell = 0) ones under the
        # time swap (g_11(u1,u2; p,y) = g_00(u2,u1; y,p) and likewise
        # 10 <-> 01), cancelling the 1/2! factor: two terms remain.  On
        # shell T(p, y) = T(y, p), so one batch gives both edge weights.
        w = -2j * math.pi * tv
        g00, g01, _, _ = _k2_entries(u1, u2, w, w)
        inner = (np.abs(g00) ** 2 * observable(shift, y)
                 + np.abs(g01) ** 2 * observable(shift, partners)) * shell
    # equal speeds: survival depends on t only
    damping = math.exp(-t * model.sigma_tot(speed))
    return float(damping * (0.5 * t * uw) @ inner @ dw)


# ---------------------------------------------------------------------------
# chain sampling
# ---------------------------------------------------------------------------

def _direction_bound(model: ScatteringModel, speed: float) -> float:
    """Rejection bound on |T|^2 over the shell directions at ``speed``.

    At Born order 1 it is the forward value; above it, a 513-point polar
    scan plus 5%, run on every call (one per chain, since each chain has
    its own speed) and checked against every accepted proposal by
    sample_lb_chain."""
    if model.born_order == 1:
        # radially decreasing transform peaks in the forward direction
        pot = model.potential
        return (model.coupling * pot.amplitude * pot.width ** pot.dim) ** 2
    return 1.05 * float(np.max(
        model.polar_abs2(speed, np.linspace(-1, 1, 513))))


def sample_lb_chain(t, y0, model: ScatteringModel, rng,
                    max_legs=64) -> CollisionChain:
    """Markov chain sample: exponential flight times with rate
    Sigma_tot(speed), scattering directions by rejection of uniform sphere
    proposals against |T|^2, truncated at total time t.

    Chains reaching ``max_legs`` before exhausting the time budget come back
    flagged truncated.  A warning fires when the rejection efficiency drops
    below 1 percent, and one when an accepted proposal's |T|^2 exceeds the
    rejection bound: it was accepted with probability 1 instead of
    |T|^2/bound, so the sampled directions do not follow the kernel.
    """
    y0 = np.asarray(y0, dtype=float)
    speed = float(np.linalg.norm(y0))
    if speed == 0 or t <= 0:
        raise InvalidInputError("need y0 != 0 and t > 0")
    sig = model.sigma_tot(speed)
    bound = _direction_bound(model, speed)
    momenta = [y0]
    times = []
    elapsed = 0.0
    proposals = 0
    accepts = 0
    worst = 0.0
    for _ in range(max_legs):
        dt = rng.exponential(1.0 / sig)
        if elapsed + dt >= t:
            times.append(t - elapsed)
            chain = CollisionChain(momenta, times)
            break
        times.append(dt)
        elapsed += dt
        cur = momenta[-1]
        new_dir = None
        while new_dir is None:
            props = rng.normal(size=(PROPOSAL_BATCH, model.dim))
            props /= np.linalg.norm(props, axis=1)[:, None]
            uacc = rng.uniform(size=PROPOSAL_BATCH)
            ratio = np.abs(model.t_matrix_batch(cur, speed * props)) ** 2 \
                / bound
            hits = np.nonzero(uacc < ratio)[0]
            if hits.size:
                # proposals before the accepted one have ratio < uacc < 1,
                # so only an accepted proposal can exceed the bound
                worst = max(worst, float(ratio[hits[0]]))
                new_dir = props[hits[0]]
                proposals += int(hits[0]) + 1
                accepts += 1
            else:
                proposals += PROPOSAL_BATCH
        momenta.append(speed * new_dir)
    else:
        chain = CollisionChain(momenta[:-1], times, truncated=True)
    if accepts and proposals / accepts > 100:
        warnings.warn("direction rejection efficiency below 1 percent",
                      stacklevel=2)
    if worst > 1.0:
        warnings.warn(f"direction rejection bound exceeded: worst "
                      f"|T|^2 / bound = {worst:.4g}", stacklevel=2)
    return chain


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


def _chain_rng(seed, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def _proposal(a: GaussianSymbol, b: GaussianSymbol):
    mu = 0.5 * (a.y_center + b.y_center)
    sd = (0.5 * max(a.y_width, b.y_width)
          + 0.5 * float(np.linalg.norm(a.y_center - b.y_center)) + 0.25)
    return mu, sd


def _proposal_pdf(y, mu, sd):
    d = len(mu)
    q = float(np.sum((y - mu) ** 2)) / (2 * sd * sd)
    return math.exp(-q) / (2 * math.pi * sd * sd) ** (d / 2.0)


def pair_estimate(series, a: GaussianSymbol, b: GaussianSymbol | None, t,
                  k_max, n_samples, model: ScatteringModel,
                  seed=0) -> EstimateResult:
    """Monte Carlo pairing <b, f(t)> of the truncated collision series
    against the memoryless proposal chain.

    The initial momentum is drawn from a Gaussian covering both symbols'
    momentum profiles; subsequent dynamics follow the memoryless process, so
    its series terms carry unit density ratio.  The limit-process terms are
    reweighted by the density ratio summed over all (ell, m) leg pairings
    with the 1/k! symmetry factor.  ``b = None`` estimates the total mass
    of f(t) instead of a pairing.  Chain i draws from its own stream
    ``_chain_rng(seed, i)``, so a fixed seed means bit-identical output;
    chains beyond k_max legs contribute zero and count as truncated.  One
    warning per call reports the chains whose G series did not converge.
    """
    if series not in ("lb", "new"):
        raise InvalidInputError("series must be 'lb' or 'new'")
    if k_max < 1 or k_max > 4:
        raise InvalidInputError("k_max must be in 1..4")
    if n_samples < 2:
        raise InvalidInputError("n_samples must be at least 2 (the standard "
                                "error needs two chains)")
    d = model.dim
    mu_q, sd_q = _proposal(a, b) if b is not None else (a.y_center,
                                                        a.y_width + 0.25)
    contribs = np.zeros(n_samples)
    kvals = np.zeros(n_samples, dtype=int)
    returns = np.zeros(n_samples)
    flags = np.zeros(n_samples, dtype=bool)
    unconverged = []
    for i in range(n_samples):
        rng = _chain_rng(seed, i)
        y1 = mu_q + sd_q * rng.normal(size=d)
        q = _proposal_pdf(y1, mu_q, sd_q)
        speed = float(np.linalg.norm(y1))
        if speed < 1e-9:
            continue
        chain = sample_lb_chain(t, y1, model, rng, max_legs=k_max + 1)
        if chain.truncated or chain.k > k_max:
            flags[i] = True
            continue
        u = np.asarray(chain.times)
        shift = np.sum(u[:, None] * np.asarray(chain.momenta), axis=0)
        if series == "lb" or chain.k == 1:
            # the one-leg terms of the two series coincide
            contribs[i] = _overlap_or_mass(b, a, shift, y1,
                                           chain.momenta[-1]) / q
        else:
            contribs[i], returns[i], gmat = _new_weight(b, a, shift, chain,
                                                        model, q)
            if gmat is not None and not gmat.converged:
                unconverged.append(gmat.tail_estimate)
        kvals[i] = chain.k
    n = n_samples
    value = float(np.sum(contribs) / n)
    stderr = float(np.std(contribs, ddof=1) / math.sqrt(n))
    per_k = {k: float(np.sum(contribs[kvals == k])) / n
             for k in range(1, k_max + 1)}
    nz = contribs[contribs != 0]
    ess = float((np.abs(nz).sum() ** 2) / (nz @ nz)) if nz.size else 0.0
    if nz.size and ess < 0.05 * nz.size:
        warnings.warn("effective sample size below 5 percent", stacklevel=2)
    if unconverged:
        warnings.warn(f"G series unconverged on {len(unconverged)} of {n} "
                      f"chains: worst tail estimate {max(unconverged):.2e}",
                      stacklevel=2)
    return EstimateResult(
        value=value, stderr=stderr, n_samples=n, per_k=per_k, ess=ess,
        return_mass=(float(np.sum(returns)) / n if series == "new" else None),
        truncated_fraction=float(np.sum(flags)) / n)


def _overlap_or_mass(b, a, shift, y_b, y_a):
    if b is None:
        return float(a.x_mass() * a.amplitude * a.y_profile(y_a))
    return float(pair_overlap(b, a, shift, y_b, y_a))


def _new_weight(b, a, shift, chain: CollisionChain, model, q):
    """Limit-process reweighting of one proposal chain and its return share.

    The weight sums rho_{ell m} / rho_lb times the overlap at leg m over the
    leg pairings (ell, m), the drawn leg moved to position ell, with the 1/k!
    factor, over the proposal density ``q``.  Damping and shell cancel, and
    G(P W P^T, P u) = P G(W, u) P^T makes entry (ell, m) of every permuted
    assignment g_{0 pos(m)} of one G, so the weight is
    sum_j |g_0j|^2 ov(leg j) / (kernel (k-1)!) / q, the kernel being the
    product of 4 pi^2 |T|^2 along the legs; the return share (ell = m) is
    its j = 0 term.  Returns (weight, share, G), G None for a zero kernel.
    """
    k = chain.k
    legs = chain.momenta
    tvals = _t_table(model, legs)
    kernel = math.prod(4 * math.pi ** 2 * abs(tvals[i, i + 1]) ** 2
                       for i in range(k - 1))
    if kernel == 0.0:
        return 0.0, 0.0, None
    graph = WeightedCollisionGraph(-2j * math.pi * tvals, chain.times)
    gmat = g_auto(graph, prefer="bessel_k2" if k == 2 else "series")
    scale = math.factorial(k - 1) * kernel * q
    terms = [abs(gmat.entry(0, j)) ** 2
             * _overlap_or_mass(b, a, shift, legs[0], legs[j]) / scale
             for j in range(k)]
    return sum(terms), terms[0], gmat


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
