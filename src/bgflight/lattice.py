"""Shifted-lattice point statistics in thin annular windows.

For a unimodular planar lattice with generic shift, list the points
(lambda_i, theta_i) with lambda = pi ||n + shift||^2 (so unit mean density
in lambda) and theta the normalised polar angle, restricted to a window
lambda in [r_max - width, r_max).  The conjectured limit behaviour is a
unit-intensity Poisson process: exponential unit-mean gaps independent of
the uniformly distributed angles.  ``joint_test`` runs the standard
non-parametric checks (Kolmogorov-Smirnov against Exp(1), chi-square
uniformity and contingency independence); a synthetic Poisson sample
calibrates the null.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidInputError

DEFAULT_SHIFT = (math.sqrt(2.0), math.sqrt(3.0))
DEFAULT_POINT_CAP = 5 * 10**7
# significance level of every test of ``joint_test``
ALPHA = 0.01


@dataclass(frozen=True)
class LatticeWindow:
    """Annular window [r_max - width, r_max) in the normalised variable
    lambda = pi ||n + shift||^2 over basis * Z^2 + shift."""

    r_max: float
    width: float
    shift: tuple = DEFAULT_SHIFT
    basis: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (2, 2):
            raise InvalidInputError("basis must be 2x2")
        det = abs(float(np.linalg.det(basis)))
        if abs(det - 1.0) > 1e-9:
            raise InvalidInputError("basis must have co-volume 1")
        if not (self.r_max >= self.width > 0):
            raise InvalidInputError("need r_max >= width > 0")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "shift",
                           tuple(float(s) for s in self.shift))


@dataclass(frozen=True)
class PointSample:
    """Window points sorted by lambda, with angles in [0, 1)."""

    lam: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if lam.shape != theta.shape:
            raise InvalidInputError("lambda and theta must align")
        if np.any(np.diff(lam) < 0):
            raise InvalidInputError("lambda values must be sorted")
        if lam.size and (theta.min() < 0 or theta.max() >= 1):
            raise InvalidInputError("angles must lie in [0, 1)")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)

    @property
    def count(self) -> int:
        return int(self.lam.size)


def generate(window: LatticeWindow, cap=DEFAULT_POINT_CAP) -> PointSample:
    """Exact enumeration over integer rows n1: per row the annulus condition
    is a quadratic in the second coordinate n2, giving at most two index
    ranges.  All rows are solved in one pass and their ranges expanded into
    one candidate array, in the order rows ascending, the lower range
    before the upper, n2 ascending; a stable sort by lambda keeps that
    order among ties.  The cap is checked on the summed range lengths
    before any point is built."""
    r_out2 = window.r_max / math.pi
    r_in2 = max(window.r_max - window.width, 0.0) / math.pi
    if window.width > cap:
        raise CapacityError("window width beyond the point cap")
    b1, b2 = window.basis[:, 0], window.basis[:, 1]
    alpha = np.asarray(window.shift)
    # row range from the outer circle: |n1| bounded via the dual basis
    binv = np.linalg.inv(window.basis)
    row_bound = float(np.linalg.norm(binv[0])) * math.sqrt(r_out2) \
        + abs(float(binv[0] @ alpha)) + 1.0
    n1_hi = int(math.ceil(row_bound))
    a22 = float(b2 @ b2)
    base = np.arange(-n1_hi, n1_hi + 1)[:, None] * b1 + alpha
    # ||base + n2 b2||^2 in [r_in2, r_out2); the stacked products round
    # each row as a one-row dot product does (base @ b2 would not)
    rows = base[:, None, :]
    bcoef = (rows @ b2)[:, 0]
    ccoef = (rows @ base[:, :, None])[:, 0, 0]
    disc_out = bcoef * bcoef - a22 * (ccoef - r_out2)
    hit = disc_out > 0
    base, bcoef, ccoef = base[hit], bcoef[hit], ccoef[hit]
    sq_out = np.sqrt(disc_out[hit])
    lo, hi = (-bcoef - sq_out) / a22, (-bcoef + sq_out) / a22
    disc_in = bcoef * bcoef - a22 * (ccoef - r_in2)
    split = disc_in > 0
    sq_in = np.sqrt(np.where(split, disc_in, 0.0))
    ilo, ihi = (-bcoef - sq_in) / a22, (-bcoef + sq_in) / a22
    # column 0: [lo, ilo] on split rows, else [lo, hi]; column 1: [ihi, hi]
    first = np.ceil(np.column_stack([lo, ihi]) - 1e-12).astype(np.int64)
    last = np.floor(np.column_stack([np.where(split, ilo, hi), hi])
                    + 1e-12).astype(np.int64)
    size = np.maximum(last - first + 1, 0)
    size[~split, 1] = 0
    size = size.ravel()
    total = int(size.sum())
    if total > cap:
        raise CapacityError(f"window holds more than {cap} points")
    offset = np.cumsum(size) - size
    n2 = np.arange(total) + np.repeat(first.ravel() - offset, size)
    vec = base[np.repeat(np.arange(size.size) // 2, size)] + n2[:, None] * b2
    lam = math.pi * np.sum(vec * vec, axis=1)
    keep = (lam >= window.r_max - window.width) & (lam < window.r_max)
    lam = lam[keep]
    vec = vec[keep]
    theta = np.mod(np.arctan2(vec[:, 1], vec[:, 0]) / (2 * math.pi), 1.0)
    order = np.argsort(lam, kind="stable")
    return PointSample(lam[order], theta[order])


def generate_naive(window: LatticeWindow) -> PointSample:
    """Quadratic-cost oracle for small windows: test every box point."""
    r_out = math.sqrt(window.r_max / math.pi)
    alpha = np.asarray(window.shift)
    binv = np.linalg.inv(window.basis)
    bound = int(math.ceil(float(np.linalg.norm(binv, ord=2)) * r_out
                          + float(np.linalg.norm(binv @ alpha)) + 2))
    n1, n2 = np.meshgrid(np.arange(-bound, bound + 1),
                         np.arange(-bound, bound + 1), indexing="ij")
    vec = (n1[..., None] * window.basis[:, 0]
           + n2[..., None] * window.basis[:, 1] + alpha)
    lam = math.pi * np.sum(vec * vec, axis=-1)
    keep = (lam >= window.r_max - window.width) & (lam < window.r_max)
    lam = lam[keep]
    vec = vec[keep]
    theta = np.mod(np.arctan2(vec[:, 1], vec[:, 0]) / (2 * math.pi), 1.0)
    order = np.argsort(lam, kind="stable")
    return PointSample(lam[order], theta[order])


def gaps(sample: PointSample):
    """Consecutive lambda differences paired with the left point's angle."""
    if sample.count < 2:
        raise InvalidInputError("need at least two points for gaps")
    return np.diff(sample.lam), sample.theta[:-1]


def poisson_reference(intensity, count, seed=0) -> PointSample:
    """Synthetic unit-calibration sample: exponential gaps at the given
    intensity, uniform independent angles."""
    if count < 1:
        raise InvalidInputError("need at least one point")
    rng = np.random.default_rng(seed)
    lam = np.cumsum(rng.exponential(1.0 / intensity, size=count))
    theta = rng.uniform(0.0, 1.0, size=count)
    return PointSample(lam, theta)


def ks_distance(cdf_at_sorted) -> float:
    """Kolmogorov-Smirnov distance between the empirical law of n sorted
    values and a continuous law, given that law's CDF at those values."""
    cdf = np.asarray(cdf_at_sorted, dtype=float)
    steps = np.arange(cdf.size + 1) / cdf.size
    return max(float(np.max(np.abs(cdf - steps[1:]))),
               float(np.max(np.abs(cdf - steps[:-1]))))


def ks_exponential(values):
    """Kolmogorov-Smirnov distance and asymptotic p-value of ``values``
    against the exponential law of mean 1."""
    # imported here: scipy.special is over half of the CLI's start-up
    from scipy import special

    x = np.sort(np.asarray(values, dtype=float))
    dist = ks_distance(1.0 - np.exp(-x))
    pval = float(special.kolmogorov(math.sqrt(x.size) * dist))
    return dist, pval


def _check_bins(**bins):
    """Refuse bin counts below 2: no degree of freedom is left."""
    for name, count in bins.items():
        if count < 2:
            raise InvalidInputError(f"{name} must be at least 2, not {count}")


def _chi2_sf(stat, dof) -> float:
    from scipy import special  # imported here, as in ks_exponential

    return float(special.gammaincc(dof / 2.0, stat / 2.0))


def joint_test(sample: PointSample, gap_bins=8, theta_bins=8) -> dict:
    """Gap/angle statistics report: KS of gaps against Exp(1), chi-square
    uniformity of the angles, chi-square independence of (gap, angle) on an
    equiprobable-gap-quantile by uniform-angle grid (2 bins or more each),
    each passed when its p-value exceeds ALPHA."""
    _check_bins(gap_bins=gap_bins, theta_bins=theta_bins)
    if sample.count < 1000:
        raise InvalidInputError("joint test needs at least 1000 points")
    g, th = gaps(sample)
    n = g.size
    ks_stat, ks_p = ks_exponential(g)
    # angle uniformity
    counts, _ = np.histogram(sample.theta, bins=theta_bins, range=(0, 1))
    expected = sample.count / theta_bins
    theta_chi2 = float(np.sum((counts - expected) ** 2 / expected))
    theta_p = _chi2_sf(theta_chi2, theta_bins - 1)
    # independence on quantile x uniform cells
    qedges = np.quantile(g, np.linspace(0, 1, gap_bins + 1))
    qedges[0], qedges[-1] = -np.inf, np.inf
    gi = np.clip(np.searchsorted(qedges, g, side="right") - 1, 0,
                 gap_bins - 1)
    ti = np.minimum((th * theta_bins).astype(int), theta_bins - 1)
    table = np.zeros((gap_bins, theta_bins))
    np.add.at(table, (gi, ti), 1.0)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / n
    underpopulated = bool(np.any(expected < 5))
    if underpopulated:
        warnings.warn("contingency cells expect fewer than 5 points; "
                      "independence p-value is unreliable", stacklevel=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    indep_chi2 = float(np.sum(cells))
    indep_dof = (gap_bins - 1) * (theta_bins - 1)
    indep_p = _chi2_sf(indep_chi2, indep_dof)
    return {
        "n_points": sample.count,
        "mean_gap": float(np.mean(g)),
        "ks_stat": ks_stat,
        "ks_p": ks_p,
        "theta_chi2": theta_chi2,
        "theta_p": theta_p,
        "independence_chi2": indep_chi2,
        "independence_dof": indep_dof,
        "independence_p": indep_p,
        "underpopulated_cells": underpopulated,
        "alpha": ALPHA,
        "pass_ks": ks_p > ALPHA,
        "pass_theta_uniform": theta_p > ALPHA,
        "pass_independence": indep_p > ALPHA,
    }


def histogram2d(sample: PointSample, theta_bins=12):
    """Joint (gap, angle) histogram for export; density normalised, on 24
    gap bins by ``theta_bins`` (2 or more) angle bins."""
    _check_bins(theta_bins=theta_bins)
    g, th = gaps(sample)
    gap_edges = np.linspace(0.0, max(4.0, float(np.quantile(g, 0.995))), 25)
    h, ge, te = np.histogram2d(g, th, bins=[gap_edges,
                                            np.linspace(0, 1, theta_bins + 1)],
                               density=True)
    return h, ge, te
