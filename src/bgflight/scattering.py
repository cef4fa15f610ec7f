"""Single-site scattering inputs for the collision series.

The single-site potential is a Gaussian A exp(-pi ||x||^2 / s^2) in dimension
d >= 3; its Fourier transform (convention W_hat(y) = int W(x) e^{-2 pi i x.y})
is again Gaussian, A s^d exp(-pi s^2 ||y||^2), which makes the inner momentum
integrals of the Born series close in elementary functions.

The transition kernel at complex energy offset gamma (Re gamma >= 0) is the
Born sum T = sum_n lambda^n T_n with

    T_1(y, y') = W_hat(y - y'),
    T_n(y, y') = (-2 pi i)^(n-1) * iterated integral over theta in
                 [0, inf)^(n-1) of a Gaussian-reduced integrand carrying the
                 phase exp(i pi theta_j ||y||^2 - 2 pi gamma theta_j).

On shell (gamma = 0) the theta integrand only decays like theta^(-d/2), so a
plain truncation is hopeless in d = 3.  Instead each theta half-line runs
along the real axis to a fixed anchor and then along the steepest-descent
ray of the phase exp(beta theta), beta = i pi ||y||^2 - 2 pi gamma: the ray
leaves the anchor in the direction -conj(beta)/|beta|, where the phase
decays like exp(-|beta| tau) without oscillating.  On shell the ray is
vertical, at ||y|| = 0 it is the real axis.  The integrand is analytic in
the region swept (every alpha_j = 2 s^2 + i theta_j keeps a positive
imaginary part past the anchor, and the determinant factor is evaluated
through a branch-safe product form).  Gauss-Legendre panels cover the real
segment and scaled Gauss-Laguerre nodes the ray.  Orders n <= 3 are
supported.

The on-shell collision kernel uses the energy-shell convention

    int delta(||y||^2/2 - ||y'||^2/2) f(y') dy'
        = ||y||^(d-2) int_{S^{d-1}} f(||y|| w) dw,

so sigma(y, w) = 4 pi^2 ||y||^(d-2) |T(y, ||y|| w)|^2 and the total cross
section is its spherical integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .errors import InvalidInputError, TailBoundError

MAX_BORN_ORDER = 3


@dataclass(frozen=True)
class GaussianPotential:
    """A exp(-pi ||x||^2 / s^2) on R^d."""

    amplitude: float = 1.0
    width: float = 1.0
    dim: int = 3

    def __post_init__(self):
        if self.width <= 0:
            raise InvalidInputError("width must be positive")
        if self.dim < 3:
            raise InvalidInputError("dimension must be at least 3")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(
            -np.pi * np.sum(x * x, axis=-1) / self.width ** 2)

    def w_hat(self, y):
        """Fourier transform A s^d exp(-pi s^2 ||y||^2); real, positive,
        radially decreasing."""
        y = np.asarray(y, dtype=float)
        s = self.width
        return self.amplitude * s ** self.dim * np.exp(
            -np.pi * s ** 2 * (y * y).sum(axis=-1))

    def shell_concentration(self, speeds):
        """kappa = 4 pi s^2 v^2 at the speeds v: on the sphere |y| = |y'| = v,
        w_hat(y - y')^2 = w_hat(0)^2 exp(-kappa (1 - cos theta)), theta the
        angle between y and y'."""
        s = self.width
        return 4 * math.pi * s * s * np.asarray(speeds, dtype=float) ** 2


# ---------------------------------------------------------------------------
# theta quadrature machinery
# ---------------------------------------------------------------------------

# complex elements of any partner-batched temporary (128 KB)
BATCH_ELEMS = 8192

# Gauss-Legendre nodes per real theta panel and Gauss-Laguerre nodes on the
# steepest-descent ray
PANEL_NODES = 20
LEG_NODES = 64
# polar nodes of the total cross section's sphere integral
SPHERE_NODES = 64

_RULE_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _rule(gauss, n, *params):
    """Nodes and weights of the Gauss rule ``gauss(n, *params)`` (leggauss,
    laggauss or roots_jacobi), computed once per process."""
    key = (gauss, n) + params
    if key not in _RULE_CACHE:
        _RULE_CACHE[key] = gauss(n, *params)
    return _RULE_CACHE[key]


def _polar_rule(d, n):
    """n-node rule for int_{-1}^{1} f(c) (1 - c^2)^((d-3)/2) dc, the polar
    reduction of a sphere integral in R^d: Gauss-Jacobi with that weight,
    which in even d has a square-root endpoint that Gauss-Legendre on the
    product converges to slowly.  At d = 3 the weight is 1 and the rule is
    Gauss-Legendre."""
    if d == 3:
        return _rule(leggauss, n)
    a = (d - 3) / 2.0
    return _rule(roots_jacobi, n, a, a)


def _panels(beta, end, panels):
    """Gauss-Legendre panels on [0, end] with the phase exp(beta theta)
    folded into the weights."""
    x, w = _rule(leggauss, PANEL_NODES)
    edges = np.linspace(0.0, end, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel().astype(complex)
    weights *= np.exp(beta * nodes)
    return nodes.astype(complex), weights


def _theta_contour(c, gamma, s):
    """Complex nodes and weights approximating int_0^inf f(theta)
    exp(beta theta) dtheta for f analytic past the anchor, where
    beta = i pi c - 2 pi gamma and c >= 0 is the squared incident speed.

    Gauss-Legendre panels cover [0, anchor], anchor = max(4, 2 s^2); beyond
    it the path is the steepest-descent ray anchor + direction * t with
    direction = -conj(beta)/|beta|, on which exp(beta theta) =
    exp(beta anchor) exp(-|beta| t) decays without oscillating, summed by
    Gauss-Laguerre nodes scaled by |beta|.  On shell the ray is vertical; at
    c = 0 it is the real axis.  Raises TailBoundError when |beta| <= 1e-4
    (e.g. c = 0 on shell), where the integrand barely decays.

    Returns (nodes, weights) such that the integral is sum w_j g(node_j)
    with g the *full* integrand including the phase factor; the phase is
    folded into the weights here so callers evaluate only the smooth part.
    """
    gamma = complex(gamma)
    if gamma.real < 0:
        raise InvalidInputError("Re gamma must be non-negative")
    beta = 1j * math.pi * c - 2 * math.pi * gamma
    rate = abs(beta)
    if rate <= 1e-4:
        raise TailBoundError(
            f"theta phase decays at rate |beta| = {rate:.2e} <= 1e-4 "
            "(on shell this needs a non-zero incident momentum)")
    anchor = max(4.0, 2.0 * s * s)
    periods = anchor * (c + 2 * abs(gamma)) / 2.0
    nodes, weights = _panels(beta, anchor,
                             max(4, int(math.ceil(periods)) + 2))
    direction = -beta.conjugate() / rate
    lx, lw = _rule(laggauss, LEG_NODES)
    tau = lx / rate
    ray_weights = direction * np.exp(beta * anchor) * (lw / rate)
    return (np.concatenate([nodes, anchor + direction * tau]),
            np.concatenate([weights, ray_weights]))


def _gauss_reduced_sum(y0, partners, prefactor, x0, y_grid, z0, factor):
    """factor * sum_g prefactor[g] exp(x0[g] + (y0 . p) y_grid[g]
    + |p|^2 z0[g]) for each partner p: the form T_2 and T_3 share once the
    Gaussian momentum integrals are closed, over the flattened theta node
    grid g.  ``partners`` is one momentum (d,), which gives a complex, or a
    batch (n, d), which gives an array.

    The (partner x node) exponent is formed in blocks of at most BATCH_ELEMS
    elements with elementwise ufuncs only: forming it with a complex BLAS
    product (``@``) made the complex exp after it about 25 times slower on
    an AVX-512 Xeon with scipy-openblas 0.3.31.
    """
    p = np.asarray(partners, dtype=float)
    rows = np.atleast_2d(p)
    dots = np.einsum("ij,j->i", rows, y0)[:, None]
    norms = np.einsum("ij,ij->i", rows, rows)[:, None]
    n, size = len(rows), len(x0)
    step = max(1, BATCH_ELEMS // size)
    cols = min(size, BATCH_ELEMS)
    out = np.zeros(n, dtype=complex)
    buf = np.empty((2, min(n, step) * cols), dtype=complex)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for glo in range(0, size, cols):
            ghi = min(glo + cols, size)
            shape = (hi - lo, ghi - glo)
            block = buf[0, :shape[0] * shape[1]].reshape(shape)
            temp = buf[1, :shape[0] * shape[1]].reshape(shape)
            np.multiply(dots[lo:hi], y_grid[glo:ghi], out=block)
            np.multiply(norms[lo:hi], z0[glo:ghi], out=temp)
            block += temp
            block += x0[glo:ghi]
            np.exp(block, out=block)
            block *= prefactor[glo:ghi]
            out[lo:hi] += block.sum(axis=1)
    out *= factor
    return complex(out[0]) if p.ndim == 1 else out


def born_term_2(pot: GaussianPotential, y0, y2, gamma=0.0):
    """Second Born iterate: one theta contour times a closed-form
    Gaussian momentum integral.  ``y2`` is one momentum (complex result) or
    partners (n, d) (array result); the contour depends on |y0| only and is
    built once per call."""
    y0 = np.asarray(y0, dtype=float)
    a, s, d = pot.amplitude, pot.width, pot.dim
    c = float(y0 @ y0)
    nodes, weights = _theta_contour(c, gamma, s)
    alpha = 2 * s * s + 1j * nodes
    # exponent -pi s^2 (|y0|^2 + |y2|^2) + pi s^4 |y0 + y2|^2 / alpha, split
    # into partner-independent node vectors
    inv = math.pi * s ** 4 / alpha
    return _gauss_reduced_sum(
        y0, y2, weights * a * a * s ** (2 * d) * alpha ** (-d / 2.0),
        c * (inv - math.pi * s * s), 2 * inv, inv - math.pi * s * s,
        -2j * math.pi)


def born_term_3(pot: GaussianPotential, y0, y3, gamma=0.0):
    """Third Born iterate: tensor product of two theta contours; the
    inner double momentum integral closes through a 2x2 Gaussian block whose
    determinant power is taken in the branch-safe product form.  ``y3`` is
    one momentum or partners (n, d), as for born_term_2; the node-grid
    factors are computed once per call."""
    y0 = np.asarray(y0, dtype=float)
    a, s, d = pot.amplitude, pot.width, pot.dim
    c = float(y0 @ y0)
    nodes, weights = _theta_contour(c, gamma, s)
    a1 = (2 * s * s + 1j * nodes)[:, None]
    a2 = (2 * s * s + 1j * nodes)[None, :]
    det = a1 * a2 - s ** 4
    # det^(-d/2) = a1^(-d/2) a2^(-d/2) (1 - s^4/(a1 a2))^(-d/2), each factor
    # staying clear of the principal branch cut on the contour
    det_pow = (a1 ** (-d / 2.0) * a2 ** (-d / 2.0)
               * (1.0 - s ** 4 / (a1 * a2)) ** (-d / 2.0))
    # exponent -pi s^2 (|y0|^2 + |y3|^2)
    #          + pi s^4 (a2 |y0|^2 + 2 s^2 y0.y3 + a1 |y3|^2) / det
    inv = math.pi * s ** 4 / det
    prefactor = np.outer(weights, weights) * a ** 3 * s ** (3 * d) * det_pow
    return _gauss_reduced_sum(
        y0, y3, prefactor.ravel(), (c * (a2 * inv - math.pi * s * s)).ravel(),
        (2 * s * s * inv).ravel(), (a1 * inv - math.pi * s * s).ravel(),
        (-2j * math.pi) ** 2)


# ---------------------------------------------------------------------------
# scattering model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatteringModel:
    """Gaussian single site with coupling; evaluates the Born sum, the
    on-shell collision kernel, total cross section and optical residual.
    An immutable parameter record: nothing is cached per speed."""

    potential: GaussianPotential = field(default_factory=GaussianPotential)
    coupling: float = 0.1
    born_order: int = 1
    gamma: complex = 0.0

    def __post_init__(self):
        if not 1 <= self.born_order <= MAX_BORN_ORDER:
            raise InvalidInputError(
                f"born_order must be in 1..{MAX_BORN_ORDER}")
        if complex(self.gamma).real < 0:
            raise InvalidInputError("Re gamma must be non-negative")

    @property
    def dim(self) -> int:
        return self.potential.dim

    def born_term(self, n, y, yp):
        """T_n(y, y') without coupling powers; ``yp`` is one momentum
        (complex result) or partners (n, d) (array result, real for n = 1,
        where T_1 is the real transform)."""
        if n == 1:
            t = self.potential.w_hat(np.asarray(y) - np.asarray(yp))
            return complex(t) if np.ndim(t) == 0 else t
        if n == 2:
            return born_term_2(self.potential, y, yp, self.gamma)
        if n == 3:
            return born_term_3(self.potential, y, yp, self.gamma)
        raise InvalidInputError(
            f"Born order {n} beyond supported {MAX_BORN_ORDER}")

    def t_matrix_batch(self, y, partners) -> np.ndarray:
        """sum_{n <= born_order} lambda^n T_n(y, p_j) for the rows p_j of
        ``partners`` (n, d), or, for incoming momenta ``y`` (m, d), row i of
        the result over ``partners[i]`` (m, n, d).  Every Born term builds
        its theta contour once per incoming momentum; at Born order 1 the m
        rows are one broadcast transform.  Real at Born order 1, complex
        above it."""
        y = np.asarray(y, dtype=float)
        partners = np.asarray(partners, dtype=float)
        if y.ndim not in (1, 2) or partners.ndim != y.ndim + 1 \
                or partners.shape[:-2] != y.shape[:-1]:
            raise InvalidInputError("partners must be an (n, d) array, or "
                                    "(m, n, d) for momenta y (m, d)")
        if y.ndim == 1:
            return self._t_sum(y, partners)
        if self.born_order == 1:
            return self._t_sum(y[:, None], partners)
        out = np.zeros(partners.shape[:-1], dtype=complex)
        for i, (y_i, p_i) in enumerate(zip(y, partners)):
            out[i] = self._t_sum(y_i, p_i)
        return out

    def t_matrix(self, y, yp) -> complex:
        """sum_{n <= born_order} lambda^n T_n(y, y'): the one-partner case
        of t_matrix_batch."""
        return complex(self._t_sum(y, np.asarray(yp, dtype=float)))

    def _t_sum(self, y, yp):
        lam = self.coupling
        total = lam * self.born_term(1, y, yp)
        for n in range(2, self.born_order + 1):
            total = total + lam ** n * self.born_term(n, y, yp)
        return total

    # -- on-shell kernel ----------------------------------------------------

    def sigma_kernel(self, y, direction) -> float:
        """4 pi^2 ||y||^(d-2) |T(y, ||y|| w)|^2 for unit w."""
        y = np.asarray(y, dtype=float)
        speed = float(np.linalg.norm(y))
        if speed == 0:
            raise InvalidInputError("collision kernel undefined at y = 0")
        w = np.asarray(direction, dtype=float)
        w = w / np.linalg.norm(w)
        t = self.t_matrix(y, speed * w)
        return 4 * math.pi ** 2 * speed ** (self.dim - 2) * abs(t) ** 2

    def polar_abs2(self, speed, cosines) -> np.ndarray:
        """|T(y, speed w)|^2 with y = speed e_1 and unit w at the given polar
        cosines (the sine on the second axis): the on-shell kernel depends
        on the scattering angle only."""
        cosines = np.asarray(cosines, dtype=float)
        y_axis = np.zeros(self.dim)
        y_axis[0] = speed
        partners = np.zeros((len(cosines), self.dim))
        partners[:, 0] = speed * cosines
        partners[:, 1] = speed * np.sqrt(np.maximum(0.0, 1 - cosines ** 2))
        return np.abs(self.t_matrix_batch(y_axis, partners)) ** 2

    def sigma_tot(self, y) -> float:
        """Spherical integral of the kernel at the speed |y| (``y`` a
        momentum or a speed): the one-speed case of sigma_tot_speeds."""
        y = np.asarray(y, dtype=float)
        speed = float(np.linalg.norm(y)) if y.ndim else float(abs(y))
        return float(self.sigma_tot_speeds(np.array([speed]))[0])

    def sigma_tot_speeds(self, speeds) -> np.ndarray:
        """Total cross sections at a 1-d array of positive speeds: the closed
        form in one call at Born order 1 in d = 3, else a SPHERE_NODES-point
        polar rule per speed.  Computed on every call; flight times are
        drawn at continuously distributed speeds, so a per-speed memo would
        almost never see a speed twice."""
        speeds = np.asarray(speeds, dtype=float)
        if np.any(speeds <= 0):
            raise InvalidInputError("total cross section undefined at y = 0")
        d = self.dim
        if self.born_order == 1 and d == 3:
            return sigma_tot_born1_speeds(self.potential, self.coupling,
                                          speeds)
        cnodes, cweights = _polar_rule(d, SPHERE_NODES)
        sphere = _lower_sphere_area(d) * np.array(
            [float(np.sum(cweights * self.polar_abs2(v, cnodes)))
             for v in speeds])
        return 4 * math.pi ** 2 * speeds ** (d - 2) * sphere

    # -- optical theorem ----------------------------------------------------

    def optical_residual(self, y, include_third_order=False) -> float:
        """Im T(y, y) + Sigma_tot(y)/(4 pi), both truncated at order
        lambda^2 (second Born against first-Born cross section).

        With ``include_third_order`` the imaginary part also carries the
        lambda^3 Born term while the cross section stays first Born, so the
        residual scales like lambda^3.
        """
        if self.born_order < 2:
            raise InvalidInputError(
                "optical residual needs born_order >= 2")
        if complex(self.gamma) != 0:
            raise InvalidInputError("optical residual is an on-shell check")
        y = np.asarray(y, dtype=float)
        lam = self.coupling
        im_t = lam ** 2 * self.born_term(2, y, y).imag
        if include_third_order:
            im_t += lam ** 3 * self.born_term(3, y, y).imag
        first = ScatteringModel(self.potential, lam, born_order=1)
        return float(im_t + first.sigma_tot(y) / (4 * math.pi))


def _lower_sphere_area(d) -> float:
    """Area of S^(d-2), the azimuthal factor of the polar-angle reduction."""
    return 2 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)


def sigma_tot_born1_speeds(pot: GaussianPotential, lam, speeds):
    """Vectorised first-Born total cross section over an array of speeds,
    in closed form; d = 3 only (ScatteringModel.sigma_tot integrates other
    dimensions with the polar rule)."""
    speeds = np.asarray(speeds, dtype=float)
    if np.any(speeds <= 0):
        raise InvalidInputError("speeds must be positive")
    a, s, d = pot.amplitude, pot.width, pot.dim
    if d != 3:
        raise InvalidInputError("closed-form cross section needs d = 3")
    q = pot.shell_concentration(speeds)
    integral = 2 * math.pi * a * a * s ** (2 * d) * (1 - np.exp(-2 * q)) / q
    return 4 * math.pi ** 2 * lam ** 2 * speeds * integral


# ---------------------------------------------------------------------------
# Schwartz norms and the convergence radius
# ---------------------------------------------------------------------------

def _axis_poly_derivatives(s, max_order):
    """Coefficient arrays (ascending powers) of P_a with
    (d/dx)^a exp(-pi x^2/s^2) = P_a(x) exp(-pi x^2/s^2)."""
    polys = [np.array([1.0])]
    for _ in range(max_order):
        p = polys[-1]
        dp = np.arange(1, len(p)) * p[1:]
        xp = np.zeros(len(p) + 1)
        xp[1:] = p * (-2 * math.pi / s ** 2)
        new = np.zeros(max(len(dp), len(xp)))
        new[: len(dp)] += dp
        new[: len(xp)] += xp
        polys.append(new)
    return polys


def _gauss_moment_indefinite(j, t, s):
    """int_{-inf}^t x^j exp(-pi x^2/s^2) dx via the erf/exponential
    recursion."""
    b = math.pi / s ** 2
    if math.isinf(t):
        expt = 0.0
        erft = 1.0 if t > 0 else -1.0
    else:
        expt = math.exp(-b * t * t)
        erft = math.erf(math.sqrt(b) * t)
    if j == 0:
        return 0.5 * s * (1.0 + erft)
    if j == 1:
        return -expt / (2 * b)
    tpow = 0.0 if math.isinf(t) else t ** (j - 1)
    return (-tpow * expt / (2 * b)
            + (j - 1) / (2 * b) * _gauss_moment_indefinite(j - 2, t, s))


def _abs_poly_gauss_integral(coeffs, s):
    """int |P(x)| exp(-pi x^2/s^2) dx, exact up to root finding: split the
    axis at the real roots of P and integrate each signed piece."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(coeffs) == 0:
        return 0.0
    roots = np.roots(coeffs[::-1]) if len(coeffs) > 1 else np.array([])
    cuts = sorted(set(
        float(r.real) for r in roots if abs(r.imag) < 1e-10))
    points = [-math.inf] + cuts + [math.inf]

    def piece(lo, hi):
        total = 0.0
        for j, cj in enumerate(coeffs):
            if cj != 0.0:
                total += cj * (_gauss_moment_indefinite(j, hi, s)
                               - _gauss_moment_indefinite(j, lo, s))
        return total

    return sum(abs(piece(lo, hi)) for lo, hi in zip(points[:-1], points[1:]))


def schwartz_norm(pot: GaussianPotential, deriv_order, weight_order,
                  p_exponent=1) -> float:
    """sup over |alpha| <= deriv_order, |beta| <= weight_order of the L1 norm
    of x^beta D^alpha W, with D = (2 pi i)^(-1) d/dx per axis.

    The Gaussian factorises, so the norm is a product of per-axis integrals
    of |polynomial| * Gaussian, each evaluated in closed form.
    """
    if p_exponent != 1:
        raise InvalidInputError("only the L1 norm family is supported")
    d, s = pot.dim, pot.width
    polys = _axis_poly_derivatives(s, deriv_order)
    table = np.empty((deriv_order + 1, weight_order + 1))
    for a in range(deriv_order + 1):
        base = polys[a] * (2 * math.pi) ** (-a)
        for b in range(weight_order + 1):
            shifted = np.concatenate([np.zeros(b), base])
            table[a, b] = _abs_poly_gauss_integral(shifted, s)
    log_t = np.log(table)
    # maximise the product of per-axis factors over multi-indices by dynamic
    # programming on the per-axis (derivative, weight) budget
    cur = {(0, 0): 0.0}
    for _ in range(d):
        new = {}
        for (ua, ub), acc in cur.items():
            for ea in range(deriv_order - ua + 1):
                for eb in range(weight_order - ub + 1):
                    key = (ua + ea, ub + eb)
                    cand = acc + log_t[ea, eb]
                    if cand > new.get(key, -math.inf):
                        new[key] = cand
        cur = new
    log_best = max(cur.values())
    return abs(pot.amplitude) * math.exp(log_best)


@dataclass(frozen=True)
class RadiusEstimate:
    """Convergence radius up to an unknown dimensional constant (set to 1);
    never a sharp value."""

    value: float
    modulo_constant: bool = True
    constant: float = 1.0


def radius_estimate(t, norm, d=3, constant=1.0) -> RadiusEstimate:
    """(2 pi C <t> ||W|| max(1, int <theta>^(-d/2) dtheta))^(-1) with C set
    to ``constant``; the theta integral closes via Beta functions."""
    if d <= 2:
        raise InvalidInputError("the theta integral needs d > 2")
    bracket = math.sqrt(1 + t * t)
    theta_integral = math.sqrt(math.pi) * math.gamma(d / 4.0 - 0.5) \
        / math.gamma(d / 4.0)
    value = 1.0 / (2 * math.pi * constant * bracket * norm
                   * max(1.0, theta_integral))
    return RadiusEstimate(value=value, constant=constant)
