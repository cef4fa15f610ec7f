import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import ive

from bgflight import scattering as sc
from bgflight.errors import CapacityError, InvalidInputError, TailBoundError

POT = sc.GaussianPotential()
EY = np.array([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def test_w_hat_unit_gaussian_self_dual():
    assert POT.w_hat(np.zeros(3)) == pytest.approx(1.0)
    assert POT.w_hat(EY) == pytest.approx(math.exp(-math.pi))


def test_w_hat_real_positive_radially_decreasing():
    radii = np.linspace(0, 3, 40)
    vals = [float(POT.w_hat(r * EY)) for r in radii]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # radial: same value on any direction
    v1 = POT.w_hat(np.array([0.3, 0.4, 0.0]))
    v2 = POT.w_hat(np.array([0.0, 0.0, 0.5]))
    assert v1 == pytest.approx(v2, rel=1e-14)


def test_w_hat_matches_hermite_quadrature():
    # tensor Gauss-Hermite of int W(x) exp(-2 pi i x.y) dx per axis
    pot = sc.GaussianPotential(amplitude=0.7, width=1.3)
    y = np.array([0.4, -0.2, 0.8])
    x, w = hermgauss(80)
    b = math.pi / pot.width ** 2
    val = 1.0 + 0.0j
    for yi in y:
        # substitute x = t/sqrt(b) so the Gaussian weight becomes e^{-t^2}
        t = x / math.sqrt(b)
        val *= np.sum(w * np.exp(-2j * math.pi * t * yi)) / math.sqrt(b)
    val *= pot.amplitude
    assert abs(complex(val) - pot.w_hat(y)) < 1e-8


# ---------------------------------------------------------------------------
# Born terms
# ---------------------------------------------------------------------------

def test_first_born_is_w_hat():
    m = sc.ScatteringModel(POT, coupling=0.3, born_order=1)
    assert m.t_matrix(EY, EY) == pytest.approx(0.3)
    yp = np.array([0.0, 1.0, 0.0])
    assert m.t_matrix(EY, yp) == pytest.approx(0.3 * POT.w_hat(EY - yp))


def test_first_born_symmetry():
    y, yp = EY, np.array([0.1, -0.7, 0.3])
    m = sc.ScatteringModel(POT, coupling=0.2, born_order=1)
    assert m.t_matrix(y, yp) == pytest.approx(m.t_matrix(yp, y))


def _t2_brute(y0, y2, gam, n1, L=5.0):
    """T_2 as a tensor Gauss-Legendre sum over the momentum cube [-L, L]^3
    of W_hat(y0 - p) W_hat(p - y2) / (|y0|^2/2 - |p|^2/2 + i gamma)."""
    x, w = leggauss(n1)
    pts = L * x
    X, Y, Z = np.meshgrid(pts, pts, pts, indexing="ij")
    P = np.stack([X, Y, Z], axis=-1)
    g = 1.0 / (0.5 * (y0 @ y0) - 0.5 * np.sum(P * P, axis=-1) + 1j * gam)
    vals = POT.w_hat(y0 - P) * POT.w_hat(P - y2) * g
    W3 = np.einsum("i,j,k->ijk", w, w, w) * L ** 3
    return complex(np.sum(W3 * vals))


@pytest.mark.parametrize("y0, gam", [
    ([0.8, 0.1, 0.0], 1.0),
    ([0.03, 0.04, 0.0], 0.3),
    ([0.0, 0.0, 0.0], 0.3),
], ids=["far", "near", "zero"])
def test_t2_against_direct_3d_quadrature_off_shell(y0, gam):
    # the bound is the brute sum's own change from 48 to 64 nodes per axis,
    # an upper estimate of its error at 64 (1.9e-7 on the first case,
    # 1.4e-4 on the others, against 6.6e-10 and 3.1e-6 from 64 to 80)
    y0 = np.array(y0)
    y2 = np.array([0.3, -0.5, 0.2])
    ours = sc.born_term_2(POT, y0, y2, gamma=gam)
    brute = _t2_brute(y0, y2, gam, 64)
    assert abs(ours - brute) < abs(_t2_brute(y0, y2, gam, 48) - brute)


def _real_axis_contour(c, gamma, s):
    """The undeformed theta half-line, cut where exp(-2 pi Re gamma theta)
    falls to 1e-13, under 60 Gauss-Legendre panels: a reference for
    Re gamma > 0 that never leaves the real axis."""
    gamma = complex(gamma)
    end = math.log(1e13) / (2 * math.pi * gamma.real)
    return sc._panels(1j * math.pi * c - 2 * math.pi * gamma, end, 60)


@pytest.mark.parametrize("gamma", [0.3, 0.1, 0.3 + 0.1j, 0.3 - 0.1j])
@pytest.mark.parametrize("speed", [0.0, 0.1, 0.8])
def test_born_terms_match_real_axis_off_shell(monkeypatch, speed, gamma):
    y0 = np.array([0.0, speed, 0.0])
    partners = np.array([[0.2, -0.3, 0.1], [0.0, 0.5, 0.5]])
    ours = [sc.born_term_2(POT, y0, partners, gamma),
            sc.born_term_3(POT, y0, partners, gamma)]
    monkeypatch.setattr(sc, "_theta_contour", _real_axis_contour)
    reference = [sc.born_term_2(POT, y0, partners, gamma),
                 sc.born_term_3(POT, y0, partners, gamma)]
    for value, ref in zip(ours, reference):
        np.testing.assert_array_less(np.abs(value - ref), 1e-12)


def test_t2_on_shell_imaginary_part():
    # spherical identity at order lambda^2: Im T2(y, y) equals
    # -pi ||y||^{d-2} int_{S^2} |W_hat(y - ||y|| w)|^2 dw (closed in d = 3)
    t2 = sc.born_term_2(POT, EY, EY, gamma=0.0)
    expected = -math.pi * (1 - math.exp(-8 * math.pi)) / 2
    assert t2.imag == pytest.approx(expected, rel=1e-10)


def test_t2_on_shell_symmetry():
    y = EY
    yp = np.array([0.0, 0.6, 0.8])
    a = sc.born_term_2(POT, y, yp, gamma=0.0)
    b = sc.born_term_2(POT, yp, y, gamma=0.0)
    assert a == pytest.approx(b, rel=1e-9)


def test_t2_gamma_continuity():
    y = EY
    yp = np.array([0.2, 0.9, 0.1])
    a = sc.born_term_2(POT, y, yp, gamma=1e-3)
    b = sc.born_term_2(POT, y, yp, gamma=1e-4)
    c = sc.born_term_2(POT, y, yp, gamma=0.0)
    assert abs(a - b) < 5e-3
    assert abs(b - c) < 5e-4
    assert abs(a - c) > abs(b - c)  # O(gamma) shrinkage


def test_t3_unitarity_cross_term():
    # order lambda^3 unitarity: Im T3(y,y) equals the spherical integral of
    # 2 Re(T1 conj T2), an independent combination of lower Born routes
    t3 = sc.born_term_3(POT, EY, EY, gamma=0.0)
    cn, cw = leggauss(48)
    acc = 0.0
    for c, w in zip(cn, cw):
        wv = np.array([c, math.sqrt(1 - c * c), 0.0])
        t1v = float(POT.w_hat(EY - wv))
        t2v = sc.born_term_2(POT, EY, wv, gamma=0.0)
        acc += w * 2.0 * (t1v * np.conj(t2v)).real
    expected = -math.pi * acc * 2 * math.pi
    assert t3.imag == pytest.approx(expected, rel=1e-9)


def _on_shell(rng, speed, n):
    p = rng.normal(size=(n, 3))
    return speed * p / np.linalg.norm(p, axis=1)[:, None]


def _grid_sizes(monkeypatch):
    """Record the grid size of every _gauss_reduced_sum call."""
    sizes = []
    exact = sc._gauss_reduced_sum

    def recorded(y0, partners, prefactor, *args):
        sizes.append(len(prefactor))
        return exact(y0, partners, prefactor, *args)

    monkeypatch.setattr(sc, "_gauss_reduced_sum", recorded)
    return sizes


def _triangle(pot, y, gamma):
    """Points i <= j of the node grid of y's theta contour."""
    m = len(sc._theta_contour(float(y @ y), gamma, pot.width)[0])
    return m * (m + 1) // 2


@pytest.mark.parametrize("speed", [0.3, 0.8, 1.4, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.3 + 0.1j])
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_t3_fold_matches_full_grid(monkeypatch, dim, gamma, speed):
    # on-shell partners summed with the antisymmetric exponent dropped
    # against the same partners summed with it (no partner folds at a
    # negative tolerance); both over the upper triangle of the node grid
    rng = np.random.default_rng(dim + int(10 * speed))
    pot = sc.GaussianPotential(0.7, 1.1, dim)
    y = rng.normal(size=dim)
    y *= speed / np.linalg.norm(y)
    partners = rng.normal(size=(9, dim))
    partners *= speed / np.linalg.norm(partners, axis=1)[:, None]
    partners[0] = y
    partners[1] = -y
    sizes = _grid_sizes(monkeypatch)
    folded = sc.born_term_3(pot, y, partners, gamma)
    monkeypatch.setattr(sc, "FOLD_TOL", -1.0)
    full = sc.born_term_3(pot, y, partners, gamma)
    assert sizes == [_triangle(pot, y, gamma)] * 3
    np.testing.assert_allclose(folded, full, rtol=1e-14, atol=0)


def test_t3_batch_mixes_folded_and_full_partners(monkeypatch):
    # on shell, just inside and just outside the fold rule, and off shell:
    # the batch equals the one-partner calls bit for bit
    rng = np.random.default_rng(22)
    pot = sc.GaussianPotential(1.0, 1.2, 3)
    y = _on_shell(rng, 1.1, 1)[0]
    c = float(y @ y)
    step = sc.FOLD_TOL / (2 * math.pi * pot.width ** 2 / 3)
    norms = [c, c + 0.9 * step, c - 0.9 * step, c + 1.1 * step,
             c - 1.1 * step, 0.7 * c, 1.5 * c]
    partners = np.concatenate([_on_shell(rng, math.sqrt(n), 1)
                               for n in norms])
    partners = np.concatenate([partners, partners[::-1]])
    gap = (2 * math.pi * pot.width ** 2 / 3) * np.abs(
        np.einsum("ij,ij->i", partners, partners) - c)
    folds = gap <= sc.FOLD_TOL
    assert folds.tolist() == [True] * 3 + [False] * 8 + [True] * 3
    for gamma in (0.0, 0.4):
        sizes = _grid_sizes(monkeypatch)
        batch = sc.born_term_3(pot, y, partners, gamma)
        assert sizes == [_triangle(pot, y, gamma)] * 3
        rows = np.array([sc.born_term_3(pot, y, p, gamma) for p in partners])
        np.testing.assert_array_equal(batch, rows)
        # the folded near-shell partners keep their value with the
        # antisymmetric exponent summed
        monkeypatch.setattr(sc, "FOLD_TOL", -1.0)
        np.testing.assert_allclose(batch[folds],
                                   sc.born_term_3(pot, y, partners[folds],
                                                  gamma), rtol=1e-14, atol=0)
        monkeypatch.undo()


def _t3_whole_grid(pot, y0, partners, gamma):
    """T_3 as the explicit double sum over every node pair (i, j) of the
    theta contour, alpha = 2 s^2 + i theta, with the exponent
    -pi s^2 (|y0|^2 + |p|^2)
    + pi s^4 (alpha_j |y0|^2 + 2 s^2 y0.p + alpha_i |p|^2)/det and
    det = alpha_i alpha_j - s^4."""
    a, s, d = pot.amplitude, pot.width, pot.dim
    c = float(y0 @ y0)
    nodes, weights = sc._theta_contour(c, gamma, s)
    alpha = 2 * s * s + 1j * nodes
    a1, a2 = alpha[:, None], alpha[None, :]
    inv = math.pi * s ** 4 / (a1 * a2 - s ** 4)
    det_pow = (a1 ** (-d / 2) * a2 ** (-d / 2)
               * (1 - s ** 4 / (a1 * a2)) ** (-d / 2))
    pref = np.outer(weights, weights) * a ** 3 * s ** (3 * d) * det_pow
    values = []
    for p in partners:
        exponent = (c * (a2 * inv - math.pi * s * s)
                    + (y0 @ p) * 2 * s * s * inv
                    + (p @ p) * (a1 * inv - math.pi * s * s))
        values.append(-4 * math.pi ** 2 * np.sum(pref * np.exp(exponent)))
    return np.array(values)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.3 + 0.1j])
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_t3_off_shell_matches_whole_grid_sum(dim, gamma):
    # off-shell partners against the m x m double sum, which pairs every
    # (i, j) with its own exponent: a swapped sign of the antisymmetric
    # part in either half-weight sum shows here
    rng = np.random.default_rng(30 + dim)
    pot = sc.GaussianPotential(0.8, 1.1, dim)
    y = rng.normal(size=dim)
    y *= 0.9 / np.linalg.norm(y)
    partners = rng.normal(size=(6, dim))
    for row, share in ((0, 0.7), (1, 1.5)):
        partners[row] *= 0.9 * math.sqrt(share) / np.linalg.norm(
            partners[row])
    ours = sc.born_term_3(pot, y, partners, gamma)
    np.testing.assert_allclose(ours, _t3_whole_grid(pot, y, partners, gamma),
                               rtol=1e-13, atol=0)


def test_t3_grid_memory_at_high_speed():
    # one off-shell partner at |y| = 4.5 (924 nodes, 427350 triangle
    # points, 6.5 MiB per complex array): the only grid is the triangle,
    # and its temporaries are released before the sums
    y = 4.5 * EY
    tracemalloc.start()
    try:
        sc.born_term_3(POT, y, np.array([0.3, 2.0, 0.1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2 ** 20


def test_t3_grid_cap_is_checked_before_the_contour(monkeypatch):
    # the triangle at |y| = 10 (4104 nodes, 8.4e6 points) is refused
    # before the contour is built; at |y| = 3 the check lets it through
    class Built(Exception):
        pass

    def contour(*args):
        raise Built

    monkeypatch.setattr(sc, "_theta_contour", contour)
    with pytest.raises(CapacityError, match="exceeds the cap"):
        sc.born_term_3(POT, 10.0 * EY, 10.0 * EY)
    with pytest.raises(Built):
        sc.born_term_3(POT, 3.0 * EY, 3.0 * EY)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_t_matrix_batch_matches_rows_and_reciprocity(order, gamma):
    # more partners than one T_2 block holds (BATCH_ELEMS // nodes), and not
    # a multiple of it
    rng = np.random.default_rng(10 * order + int(10 * gamma))
    m = sc.ScatteringModel(POT, coupling=0.3, born_order=order, gamma=gamma)
    speed = 0.9
    y = _on_shell(rng, speed, 1)[0]
    n = 61 if order < 3 else 13
    partners = _on_shell(rng, speed, n)
    batch = m.t_matrix_batch(y, partners)
    rows = np.array([m.t_matrix(y, p) for p in partners])
    reverse = np.array([m.t_matrix(p, y) for p in partners])
    np.testing.assert_allclose(batch, rows, rtol=1e-13, atol=0)
    np.testing.assert_allclose(reverse, rows, rtol=1e-13, atol=0)


@pytest.mark.parametrize("order", [1, 2])
def test_t_matrix_batch_over_incoming_momenta(order):
    # y (m, d) with partners (m, n, d): row i is the batch of y[i]
    rng = np.random.default_rng(40 + order)
    m = sc.ScatteringModel(POT, coupling=0.3, born_order=order)
    ys = np.stack([_on_shell(rng, v, 1)[0] for v in (0.7, 1.1, 1.1)])
    partners = np.stack([_on_shell(rng, np.linalg.norm(y), 5) for y in ys])
    batch = m.t_matrix_batch(ys, partners)
    assert batch.shape == (3, 5)
    for y, p, row in zip(ys, partners, batch):
        np.testing.assert_array_equal(row, m.t_matrix_batch(y, p))
    with pytest.raises(InvalidInputError):
        m.t_matrix_batch(ys, partners[:2])


def test_born_terms_scalar_partner_returns_complex():
    yp = np.array([0.0, 0.6, 0.8])
    m = sc.ScatteringModel(POT, coupling=0.3, born_order=3)
    for value in (sc.born_term_2(POT, EY, yp), sc.born_term_3(POT, EY, yp),
                  m.t_matrix(EY, yp)):
        assert type(value) is complex
    batch = sc.born_term_2(POT, EY, np.stack([yp, EY]))
    assert batch.shape == (2,)
    assert batch[0] == pytest.approx(sc.born_term_2(POT, EY, yp), rel=1e-13)
    with pytest.raises(InvalidInputError):
        m.t_matrix_batch(EY, yp)


def test_model_is_frozen():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.coupling = 0.2


def test_born_order_cap():
    with pytest.raises(InvalidInputError):
        sc.ScatteringModel(POT, coupling=0.1, born_order=5)


def test_on_shell_zero_momentum_rejected():
    with pytest.raises(TailBoundError):
        sc.born_term_2(POT, np.zeros(3), EY, gamma=0.0)


# ---------------------------------------------------------------------------
# collision kernel and total cross section
# ---------------------------------------------------------------------------

def test_sigma_kernel_forward_first_born():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    val = m.sigma_kernel(EY, EY)
    assert val == pytest.approx(4 * math.pi ** 2 * 0.01, rel=1e-12)


def test_sigma_kernel_refuses_zero_direction():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    with pytest.raises(InvalidInputError, match="non-zero"):
        m.sigma_kernel(EY, np.zeros(3))


def test_sigma_kernel_azimuthal_isotropy():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    c = 0.3
    s = math.sqrt(1 - c * c)
    d1 = np.array([c, s, 0.0])
    d2 = np.array([c, 0.0, s])
    d3 = np.array([c, s / math.sqrt(2), s / math.sqrt(2)])
    vals = [m.sigma_kernel(EY, d) for d in (d1, d2, d3)]
    assert max(vals) - min(vals) < 1e-12
    assert all(v >= 0 for v in vals)


def test_sigma_tot_matches_kernel_sphere_integral():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    cn, cw = leggauss(200)
    acc = 0.0
    for c, w in zip(cn, cw):
        acc += w * m.sigma_kernel(EY, np.array([c, math.sqrt(1 - c * c), 0]))
    acc *= 2 * math.pi
    assert m.sigma_tot(EY) == pytest.approx(acc, rel=1e-10)


def test_sigma_tot_first_born_closed_form():
    m = sc.ScatteringModel(POT, coupling=0.05, born_order=1)
    closed = sc.sigma_tot_born1_speeds(POT, 0.05, np.array([1.0]))[0]
    assert m.sigma_tot(EY) == pytest.approx(closed, rel=1e-12)
    assert closed == pytest.approx(
        2 * math.pi ** 2 * 0.05 ** 2 * (1 - math.exp(-8 * math.pi)),
        rel=1e-12)


@pytest.mark.parametrize("speed", [0.5, 1.0, 3.0])
def test_sigma_tot_first_born_even_dimension(speed):
    # d = 4: int (1 - c^2)^(1/2) exp(q c) dc = pi I_1(q) / q with
    # q = 4 pi s^2 r^2, and |S^2| = 4 pi
    pot = sc.GaussianPotential(1.0, 1.0, dim=4)
    m = sc.ScatteringModel(pot, coupling=0.1, born_order=1)
    q = 4 * math.pi * speed ** 2
    closed = 4 * math.pi ** 2 * 0.01 * speed ** 2 * 4 * math.pi \
        * math.pi * ive(1, q) / q
    assert m.sigma_tot(speed) == pytest.approx(closed, rel=1e-12)
    with pytest.raises(InvalidInputError):
        sc.sigma_tot_born1_speeds(pot, 0.1, np.array([speed]))


def test_sigma_tot_small_coupling_scaling():
    vals = []
    for lam in (1e-2, 1e-3, 1e-4):
        m = sc.ScatteringModel(POT, coupling=lam, born_order=1)
        vals.append(m.sigma_tot(EY) / lam ** 2)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[1] == pytest.approx(vals[2], rel=1e-12)


def test_sigma_tot_monotone_beyond_the_knee():
    # dense-grid scan: the first-Born cross section rises up to speed
    # ~0.22 for the unit Gaussian and decreases beyond it
    speeds = np.linspace(0.3, 3.0, 60)
    vals = sc.sigma_tot_born1_speeds(POT, 0.1, speeds)
    assert np.all(np.diff(vals) < 0)
    small = sc.sigma_tot_born1_speeds(POT, 0.1, np.array([0.05, 0.1, 0.2]))
    assert small[0] < small[1] < small[2]


def test_sigma_tot_is_radial():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    a = m.sigma_tot(EY)
    b = m.sigma_tot(np.array([0.0, 1.0, 0.0]))  # same speed, other direction
    assert a == b


def test_zero_momentum_errors():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    with pytest.raises(InvalidInputError):
        m.sigma_kernel(np.zeros(3), EY)
    with pytest.raises(InvalidInputError):
        m.sigma_tot(np.zeros(3))


# ---------------------------------------------------------------------------
# optical theorem
# ---------------------------------------------------------------------------

def test_optical_residual_zero_coupling_limit():
    m = sc.ScatteringModel(POT, coupling=0.0, born_order=2)
    assert m.optical_residual(EY) == pytest.approx(0.0, abs=1e-15)


def test_optical_residual_order_lambda2():
    lam = 0.05
    m = sc.ScatteringModel(POT, coupling=lam, born_order=2)
    res = m.optical_residual(EY)
    assert abs(res) / lam ** 2 <= 1e-3


def test_optical_residual_requires_second_order():
    m = sc.ScatteringModel(POT, coupling=0.1, born_order=1)
    with pytest.raises(InvalidInputError):
        m.optical_residual(EY)


def test_optical_residual_third_order_scaling():
    # with the lambda^3 term on the T side only, the residual is cubic
    ratios = []
    for lam in (0.2, 0.1, 0.05):
        m = sc.ScatteringModel(POT, coupling=lam, born_order=3)
        ratios.append(m.optical_residual(EY, include_third_order=True)
                      / lam ** 3)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-8)
    assert ratios[1] == pytest.approx(ratios[2], rel=1e-8)
    assert abs(ratios[0]) > 0.1



@pytest.mark.parametrize("make", [
    lambda: sc.GaussianPotential(width=0.0),
    lambda: sc.GaussianPotential(width=-1.0),
    lambda: sc.GaussianPotential(dim=2),
    lambda: sc.ScatteringModel(POT, gamma=-0.1),
    lambda: sc.ScatteringModel(POT, gamma=-0.1 + 0.5j),
], ids=["width_zero", "width_negative", "dim_2", "gamma_negative",
        "gamma_negative_real_part"])
def test_records_refuse_invalid_input(make):
    with pytest.raises(InvalidInputError):
        make()
