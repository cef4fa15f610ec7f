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

T_3 sums over the tensor grid of two theta contours.  Its summand at nodes
(i, j) differs from the one at (j, i) only by the sign of a term
D = (|y'|^2 - |y|^2)/2 (alpha_i - alpha_j) pi s^4/det, alpha = 2 s^2 + i
theta, which is at most (2 pi s^2/3) ||y'|^2 - |y|^2| in modulus since
|alpha| >= 2 s^2 on the contour.  So born_term_3 sums the upper triangle
i <= j for every partner, each pair off the diagonal standing for both of
its orders.  A partner within FOLD_TOL = 1e-8 of the energy shell by that
bound takes one sum with D dropped, which loses less than 5e-17 of each
pair's modulus; any other partner takes two sums, with +D and with -D, at
half weight.  Contours whose triangle exceeds T3_GRID_CAP points are
refused with a CapacityError.

The on-shell collision kernel uses the energy-shell convention

    int delta(||y||^2/2 - ||y'||^2/2) f(y') dy'
        = ||y||^(d-2) int_{S^{d-1}} f(||y|| w) dw,

so sigma(y, w) = 4 pi^2 ||y||^(d-2) |T(y, ||y|| w)|^2 and the total cross
section is its spherical integral.  On shell |T|^2 depends on the scattering
angle only: ScatteringModel.shell_table gives the total cross sections and
the law of the angle, which the chain sampler inverts, in closed form at
Born order 1 in d = 3, else from |T|^2 at the integral's polar nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import CapacityError, InvalidInputError, TailBoundError

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
# polar nodes of the total cross section's sphere integral, and of the
# shell table that samples scattering angles from the same |T|^2 values
SPHERE_NODES = 64
# equal cells of [0, pi] on which the shell table brackets its inverse-CDF
# solves, and the Newton-or-bisection steps after which a solve stops
SHELL_GRID = 2 * SPHERE_NODES
SHELL_STEPS = 64
_SHELL_ANGLES = np.linspace(0.0, math.pi, SHELL_GRID + 1)
# born_term_3 drops the antisymmetric part of its exponent for a partner p
# with (2 pi s^2/3) | |p|^2 - |y|^2 | at most this, and refuses a contour
# whose triangle i <= j of the node grid has more points than T3_GRID_CAP
# (on shell at s = 1, |y| up to about 4.7 passes)
FOLD_TOL = 1e-8
T3_GRID_CAP = 1 << 19


@lru_cache(maxsize=32)
def _rule(gauss, n, *params):
    """Nodes and weights of the Gauss rule ``gauss(n, *params)`` (leggauss,
    laggauss or roots_jacobi), kept for the 32 rules used last."""
    return gauss(n, *params)


def _polar_rule(d, n):
    """n-node rule for int_{-1}^{1} f(c) (1 - c^2)^((d-3)/2) dc, the polar
    reduction of a sphere integral in R^d: Gauss-Jacobi with that weight,
    which in even d has a square-root endpoint that Gauss-Legendre on the
    product converges to slowly.  At d = 3 the weight is 1 and the rule is
    Gauss-Legendre."""
    if d == 3:
        return _rule(leggauss, n)
    # imported here: scipy.special is over half of the CLI's start-up
    from scipy.special import roots_jacobi

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


def _contour_panels(c, gamma, s):
    """The anchor of _theta_contour and the number of Gauss-Legendre panels
    on [0, anchor]: one per unit of anchor (c + 2 |gamma|)/2, plus two, and
    at least four.  The contour has PANEL_NODES per panel + LEG_NODES
    nodes."""
    anchor = max(4.0, 2.0 * s * s)
    periods = anchor * (c + 2 * abs(gamma)) / 2.0
    return anchor, max(4, int(math.ceil(periods)) + 2)


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
    anchor, panels = _contour_panels(c, gamma, s)
    nodes, weights = _panels(beta, anchor, panels)
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
    factors are computed once per call.

    With alpha_i = 2 s^2 + i theta_i, c = |y0|^2 and n = |p|^2, the summand
    at nodes (i, j) is P_ij exp(S_ij + D_ij), where the prefactor P, S =
    (c + n) (1/2 (alpha_i + alpha_j) inv - pi s^2) + (y0.p) 2 s^2 inv and
    inv = pi s^4/(alpha_i alpha_j - s^4) are symmetric in (i, j) and D_ij =
    1/2 (n - c) (alpha_i - alpha_j) inv is antisymmetric.  So each pair
    off the diagonal sums to P exp(S) 2 cosh(D), and every partner is
    summed over the upper triangle i <= j.  On the energy shell of y0,
    (2 pi s^2/3) |n - c| <= FOLD_TOL, one sum drops D: since |alpha| >=
    2 s^2 on the contour, |D| is at most that bound, and each pair loses
    cosh(D) - 1 <= 5e-17 of its modulus.  Any other partner takes the sums
    with +D and with -D at half weight.  The choice is made per partner,
    so a partner's value does not depend on the batch it is in.  A contour
    whose triangle exceeds T3_GRID_CAP points is refused with a
    CapacityError before the grid is built."""
    y0 = np.asarray(y0, dtype=float)
    a, s, d = pot.amplitude, pot.width, pot.dim
    c = float(y0 @ y0)
    size = PANEL_NODES * _contour_panels(c, gamma, s)[1] + LEG_NODES
    if size * (size + 1) // 2 > T3_GRID_CAP:
        raise CapacityError(
            f"T3 grid of {size * (size + 1) // 2} triangle points at "
            f"|y| = {math.sqrt(c):.3g} exceeds the cap of {T3_GRID_CAP}")
    nodes, weights = _theta_contour(c, gamma, s)
    p = np.asarray(y3, dtype=float)
    rows = np.atleast_2d(p)
    fold = (2 * math.pi * s * s / 3) * np.abs(
        np.einsum("ij,ij->i", rows, rows) - c) <= FOLD_TOL
    # the upper triangle, the pairs off the diagonal twice
    i, j = np.triu_indices(len(nodes))
    alpha = 2 * s * s + 1j * nodes
    power = alpha ** (-d / 2.0)
    prefactor = weights[i] * weights[j] * a ** 3 * s ** (3 * d)
    det_pow = power[i] * power[j]
    a1, a2, off = alpha[i], alpha[j], i != j
    del i, j
    # det^(-d/2) = a1^(-d/2) a2^(-d/2) (1 - s^4/(a1 a2))^(-d/2), each factor
    # staying clear of the principal branch cut on the contour
    prod = a1 * a2
    det_pow *= (1.0 - s ** 4 / prod) ** (-d / 2.0)
    prefactor *= det_pow
    prefactor[off] *= 2
    inv = math.pi * s ** 4 / (prod - s ** 4)
    del det_pow, prod, off
    z0 = 0.5 * (a1 + a2) * inv - math.pi * s * s
    anti = 0.5 * (a1 - a2) * inv
    del a1, a2
    y_grid = 2 * s * s * inv
    factor = (-2j * math.pi) ** 2
    out = np.empty(len(rows), dtype=complex)
    if fold.any():
        out[fold] = _gauss_reduced_sum(y0, rows[fold], prefactor, c * z0,
                                       y_grid, z0, factor)
    if not fold.all():
        # exp(S + D) and exp(S - D) at half weight, with the exponents
        # c (z0 -+ anti) + (y0.p) y_grid + n (z0 +- anti)
        out[~fold] = sum(_gauss_reduced_sum(
            y0, rows[~fold], prefactor, c * (z0 - sign * anti), y_grid,
            z0 + sign * anti, 0.5 * factor) for sign in (1, -1))
    return complex(out[0]) if p.ndim == 1 else out


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
        """4 pi^2 ||y||^(d-2) |T(y, ||y|| w)|^2, w = direction/|direction|."""
        y = np.asarray(y, dtype=float)
        speed = float(np.linalg.norm(y))
        if speed == 0:
            raise InvalidInputError("collision kernel undefined at y = 0")
        w = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(w)
        if norm == 0:
            raise InvalidInputError("scattering direction must be non-zero")
        w = w / norm
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
        momentum or a speed): the rate of the one-speed shell_table.
        Computed on every call; flight times are drawn at continuously
        distributed speeds, so a per-speed memo would almost never see a
        speed twice."""
        y = np.asarray(y, dtype=float)
        speed = float(np.linalg.norm(y)) if y.ndim else float(abs(y))
        return float(self.shell_table(np.array([speed])).rates[0])

    def shell_table(self, speeds) -> ShellTable | VonMisesShell:
        """The on-shell kernel at a 1-d array of positive speeds: ``rates``,
        the total cross sections, the law of the scattering angle,
        ``cosines(rows, u)``, and its ``error``.  The closed form at Born
        order 1 in d = 3 (VonMisesShell), else one polar_abs2 call per
        speed at the SPHERE_NODES nodes of the polar rule (ShellTable)."""
        speeds = np.asarray(speeds, dtype=float)
        if np.any(speeds <= 0):
            raise InvalidInputError("total cross section undefined at y = 0")
        if self.born_order == 1 and self.dim == 3:
            return VonMisesShell(
                sigma_tot_born1_speeds(self.potential, self.coupling, speeds),
                self.potential.shell_concentration(speeds))
        d = self.dim
        cnodes, cweights = _polar_rule(d, SPHERE_NODES)
        values = np.array([self.polar_abs2(v, cnodes) for v in speeds]
                          ).reshape(len(speeds), SPHERE_NODES)
        sphere = _lower_sphere_area(d) * np.sum(cweights * values, axis=1)
        return ShellTable.from_values(
            d, 4 * math.pi ** 2 * speeds ** (d - 2) * sphere, values)

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
# shell laws: the law of the scattering angle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VonMisesShell:
    """The on-shell kernel at n speeds at Born order 1 in d = 3: the closed
    forms ``rates`` (n,) of sigma_tot_born1_speeds and ``kappa`` (n,) of
    shell_concentration, with |T|^2 proportional to exp(-kappa (1 - cos
    theta)), a von Mises-Fisher law of the angle theta.  It is exact."""

    rates: np.ndarray
    kappa: np.ndarray
    error = 0.0

    def cosines(self, rows, u):
        """cos theta for the rows ``rows`` at the levels ``u`` in [0, 1), one
        per row: the inverse CDF at 1 - u, 1 + log1p(u expm1(-2 kappa))/kappa,
        uniform as kappa -> 0, finite for large kappa, clipped to [-1, 1]."""
        kappa = self.kappa[rows]
        c = 1.0 + np.log1p(u * np.expm1(-2 * kappa)) / kappa
        return np.clip(c, -1.0, 1.0)


@lru_cache(maxsize=8)
def _shell_basis(d):
    """Linear maps from |T|^2 at the SPHERE_NODES nodes of _polar_rule(d)
    to the coefficients of a ShellTable.

    The interpolant p of degree SPHERE_NODES - 1 through the nodes has the
    Chebyshev coefficients inv(chebvander(nodes)) |T|^2.  With c = cos theta
    the scattering angle theta has the density p(cos theta) sin^(d-2) theta
    on [0, pi], whose integral from 0 closes as

        G(theta) = alpha theta + sum_k a_k (1 - cos k theta) + b_k sin k theta:

    for odd d it is Q(1) - Q(cos theta), Q the Chebyshev antiderivative of
    p(c) (1 - c^2)^((d-3)/2) (alpha = b = 0); for even d, the term-wise
    integral of the cosine series of p(c) (1 - c^2)^((d-2)/2) (a = 0).
    Returns the maps (node axis first) to alpha, a, b, G at the SHELL_GRID
    + 1 angles of the grid, and the two top Chebyshev coefficients of p."""
    nodes, _ = _polar_rule(d, SPHERE_NODES)
    to_cheb = np.linalg.inv(cheb.chebvander(nodes, SPHERE_NODES - 1))
    weight = cheb.chebpow([0.5, 0.0, -0.5], (d - 2) // 2)
    dens = np.array([cheb.chebmul(col, weight) for col in to_cheb.T])
    if d % 2:
        a = cheb.chebint(dens, axis=1)[:, 1:]
        alpha, b = np.zeros(len(nodes)), np.zeros_like(a)
    else:
        alpha, b = dens[:, 0], dens[:, 1:] / np.arange(1, dens.shape[1])
        a = np.zeros_like(b)
    kt = np.outer(np.arange(1, a.shape[1] + 1), _SHELL_ANGLES)
    grid = (np.outer(alpha, kt[0]) + a @ (1.0 - np.cos(kt))
            + b @ np.sin(kt))
    return alpha, a, b, grid, to_cheb[-2:].T


@dataclass(frozen=True)
class ShellTable:
    """The on-shell kernel at n speeds, from |T|^2 at the SPHERE_NODES nodes
    of the polar rule: the total cross sections ``rates`` (n,) and the law
    of the scattering angle theta, whose density is |T|^2(cos theta)
    sin^(d-2) theta with |T|^2 replaced by its interpolant through the
    nodes.  Row i holds the integral of that density from 0,
    G(theta) = alpha theta + sum_k a_k (1 - cos k theta) + b_k sin k theta
    (_shell_basis), in ``alpha`` (n,), ``a`` and ``b`` (n, K), and its
    values at SHELL_GRID + 1 equal angles of [0, pi] in ``grid``.

    ``error`` (n,) estimates the L1 error of the sampled law, relative to
    its mass: the two top Chebyshev coefficients of the interpolant and its
    rounding (SPHERE_NODES ulps of max |T|^2) over the mean of |T|^2 on the
    sphere, plus the share of the mass lost where G falls between grid
    angles, that is, where the interpolant dips below 0."""

    rates: np.ndarray
    alpha: np.ndarray
    a: np.ndarray
    b: np.ndarray
    grid: np.ndarray
    error: np.ndarray

    @classmethod
    def from_values(cls, d, rates, values):
        """The table of |T|^2 ``values`` (n, SPHERE_NODES) at the polar
        nodes and the total cross sections ``rates`` (n,).  The maps of
        _shell_basis are applied by einsum, which sums each row in the same
        order however many rows there are (a BLAS product need not), so a
        chain's table does not depend on its block."""
        alpha, a, b, grid, top = (np.einsum("ij,j...->i...", values, m)
                                  for m in _shell_basis(d))
        _, cweights = _polar_rule(d, SPHERE_NODES)
        rounding = SPHERE_NODES * np.finfo(float).eps * values.max(
            axis=1, initial=0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            error = ((np.abs(top).sum(axis=1) + rounding) * cweights.sum()
                     / np.einsum("ij,j->i", values, cweights)
                     + np.maximum(0.0, -np.diff(grid, axis=1)).sum(axis=1)
                     / grid[:, -1])
        return cls(rates, alpha, a, b, grid, error)

    def cosines(self, rows, u):
        """cos theta for the rows ``rows`` of the table at the levels ``u``
        in [0, 1), one per row: theta solves G(theta) = u G(pi), the exact
        inverse CDF of the tabled law.  The grid brackets the root; from
        the secant of its cell, Newton steps that leave the bracket are
        replaced by bisection.  Each solve stops on its own once a step
        moves theta by at most 1e-13, once a Newton step is no shorter than
        the one before (the rounding of G), or after SHELL_STEPS steps, so
        a row's result does not depend on the other rows."""
        rows = np.asarray(rows)
        grid = self.grid[rows]
        tau = np.asarray(u, dtype=float) * grid[:, -1]
        cell = np.maximum(1, np.argmax(grid >= tau[:, None], axis=1))
        at = np.arange(len(rows))
        lo, hi = _SHELL_ANGLES[cell - 1], _SHELL_ANGLES[cell]
        g_lo, g_hi = grid[at, cell - 1], grid[at, cell]
        rise = np.where(g_hi > g_lo, g_hi - g_lo, 1.0)
        theta = lo + (hi - lo) * np.clip((tau - g_lo) / rise, 0.0, 1.0)
        coef = self.alpha[rows], self.a[rows], self.b[rows]
        done = np.zeros(len(rows), dtype=bool)
        last = np.full(len(rows), np.inf)
        for _ in range(SHELL_STEPS):
            if done.all():
                break
            g, dg = _shell_integral(*coef, theta)
            gap = g - tau
            lo = np.where(gap < 0, theta, lo)
            hi = np.where(gap < 0, hi, theta)
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = gap / dg
            new = theta - delta
            newton = (new >= lo) & (new <= hi)
            # a Newton step no shorter than the one before has reached the
            # rounding of G
            step = np.abs(delta)
            stalled = newton & (step >= last)
            new = np.where(newton, new, 0.5 * (lo + hi))
            new = np.where(done | stalled | (gap == 0), theta, new)
            done |= stalled | (np.abs(new - theta) <= 1e-13)
            last = np.where(newton, step, np.inf)
            theta = new
        return np.cos(theta)


def _shell_integral(alpha, a, b, theta):
    """G(theta) of ShellTable and its derivative, one angle per row of the
    coefficients; 1 - cos k theta is taken as 2 sin^2(k theta / 2), which
    keeps its digits at small angles."""
    k = np.arange(1, a.shape[1] + 1)
    half = 0.5 * theta[:, None] * k
    sin, cos = np.sin(half), np.cos(half)
    one_minus, sine = 2 * sin * sin, 2 * sin * cos
    g = alpha * theta + np.sum(a * one_minus + b * sine, axis=1)
    dg = alpha + np.sum(k * (a * sine + b * (1.0 - one_minus)), axis=1)
    return g, dg

