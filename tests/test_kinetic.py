import math
import warnings

import numpy as np
import pytest

from bgflight import gmatrix as gm
from bgflight import kinetic as kn
from bgflight import scattering as sc
from bgflight.errors import InvalidInputError
from bgflight.paths import WeightedCollisionGraph

POT = sc.GaussianPotential()
MODEL = sc.ScatteringModel(POT, coupling=0.3, born_order=1)
Y1 = np.array([1.0, 0.0, 0.0])
Y2 = np.array([0.0, 1.0, 0.0])
Y3 = np.array([0.0, 0.0, 1.0])

A_SYM = kn.GaussianSymbol(x_center=[0.0, 0, 0], y_center=[1.0, 0, 0],
                          x_width=1.2, y_width=0.8)
B_SYM = kn.GaussianSymbol(x_center=[0.9, 0.2, 0], y_center=[0.9, 0.1, 0],
                          x_width=1.0, y_width=0.9)


def tmat(model, momenta):
    k = len(momenta)
    tv = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            if i != j:
                tv[i, j] = model.t_matrix(momenta[i], momenta[j])
    return tv


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def test_symbol_inner_against_grid():
    xs = np.linspace(-4, 5, 121)
    grid = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    dx = (xs[1] - xs[0]) ** 3
    fx = np.sum(np.exp(-math.pi * np.sum((grid - A_SYM.x_center) ** 2, -1)
                       / A_SYM.x_width ** 2)
                * np.exp(-math.pi * np.sum((grid - B_SYM.x_center) ** 2, -1)
                         / B_SYM.x_width ** 2)) * dx
    fy = np.sum(np.exp(-math.pi * np.sum((grid - A_SYM.y_center) ** 2, -1)
                       / A_SYM.y_width ** 2)
                * np.exp(-math.pi * np.sum((grid - B_SYM.y_center) ** 2, -1)
                         / B_SYM.y_width ** 2)) * dx
    assert kn.symbol_inner(B_SYM, A_SYM) == pytest.approx(fx * fy, rel=1e-6)


def test_pair_overlap_matches_shifted_grid():
    shift = np.array([0.4, -0.3, 0.2])
    xs = np.linspace(-5, 6, 141)
    grid = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    dx = (xs[1] - xs[0]) ** 3
    brute = np.sum(B_SYM.value(grid, Y1) * A_SYM.value(grid - shift, Y2)) * dx
    ours = kn.pair_overlap(B_SYM, A_SYM, shift, Y1, Y2)
    assert ours == pytest.approx(brute, rel=1e-6)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_rho_lb_single_leg():
    val = kn.rho_lb([0.7], [Y1], MODEL)
    assert val.value == pytest.approx(math.exp(-0.7 * MODEL.sigma_tot(1.0)))
    assert val.amplitude == 1.0 and val.shell == 1.0


def test_rho_lb_two_leg_product_form():
    u = [0.4, 0.9]
    val = kn.rho_lb(u, [Y1, Y2], MODEL)
    leg1 = kn.rho_lb([u[0]], [Y1], MODEL).value
    leg2 = kn.rho_lb([u[1]], [Y2], MODEL).value
    assert val.value == pytest.approx(
        leg1 * MODEL.sigma_kernel(Y1, Y2) * leg2, rel=1e-12)


def test_rho_lb_off_shell_rejected():
    with pytest.raises(InvalidInputError):
        kn.rho_lb([0.5, 0.5], [Y1, 2.0 * Y2], MODEL)


def test_rho_new_k1_equals_lb():
    assert kn.rho_new(0, 0, [0.8], [Y1], MODEL).value == pytest.approx(
        kn.rho_lb([0.8], [Y1], MODEL).value)


def test_rho_new_bessel_identities():
    u = [0.7, 0.5]
    lb = kn.rho_lb(u, [Y1, Y2], MODEL).value
    t01 = MODEL.t_matrix(Y1, Y2)
    t10 = MODEL.t_matrix(Y2, Y1)
    zeta = 4 * math.pi * np.sqrt(u[0] * u[1] * t01 * t10 + 0j)
    j0 = gm.bessel_j_quadrature(0, zeta)
    j1 = gm.bessel_j_quadrature(1, zeta)
    r01 = kn.rho_new(0, 1, u, [Y1, Y2], MODEL)
    assert r01.value == pytest.approx(lb * abs(j0) ** 2, rel=1e-12)
    r00 = kn.rho_new(0, 0, u, [Y1, Y2], MODEL)
    assert r00.value == pytest.approx(
        lb * (u[0] / u[1]) * abs(t10 / t01) * abs(j1) ** 2, rel=1e-12)


def test_rho_new_index_swap_identities():
    u = [0.7, 0.5]
    r11 = kn.rho_new(1, 1, u, [Y1, Y2], MODEL).value
    r00s = kn.rho_new(0, 0, [u[1], u[0]], [Y2, Y1], MODEL).value
    assert r11 == pytest.approx(r00s, rel=1e-12)
    r10 = kn.rho_new(1, 0, u, [Y1, Y2], MODEL).value
    r01s = kn.rho_new(0, 1, [u[1], u[0]], [Y2, Y1], MODEL).value
    assert r10 == pytest.approx(r01s, rel=1e-12)


def test_rho_new_positive_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = rng.integers(2, 4)
        speed = rng.uniform(0.5, 2.0)
        dirs = rng.normal(size=(k, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        momenta = [speed * d for d in dirs]
        u = rng.uniform(0.0, 2.0, k)
        ell, m = rng.integers(0, k), rng.integers(0, k)
        val = kn.rho_new(ell, m, u, momenta, MODEL)
        assert np.isfinite(val.value) and val.value >= 0


def test_rho_new_off_pair_never_exceeds_lb_for_positive_products():
    # first-Born Gaussian transition values are real positive, so the
    # off-pairing density is the memoryless one damped by |J_0|^2 <= 1
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = rng.uniform(0.01, 2.0, 2)
        d2 = rng.normal(size=3)
        d2 /= np.linalg.norm(d2)
        momenta = [Y1, d2]
        t01 = MODEL.t_matrix(momenta[0], momenta[1])
        t10 = MODEL.t_matrix(momenta[1], momenta[0])
        assert t01.imag == 0 and t01.real > 0 and t10.real > 0
        lb = kn.rho_lb(u, momenta, MODEL).value
        new = kn.rho_new(0, 1, u, momenta, MODEL).value
        assert new <= lb * (1 + 1e-12)


def test_rho_combinatorial_k1():
    sig = MODEL.sigma_tot(1.0)
    val = kn.rho_combinatorial("diag", [0.9], np.zeros((1, 1)), [sig], 1.0, 3)
    assert val.value == pytest.approx(math.exp(-0.9 * sig), rel=1e-14)


def test_rho_combinatorial_matches_analytic_k2():
    rng = np.random.default_rng(11)
    sig = MODEL.sigma_tot(1.0)
    for _ in range(40):
        u = rng.uniform(0.05, 2.0, 2)
        tv = np.zeros((2, 2), dtype=complex)
        tv[0, 1] = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.15
        tv[1, 0] = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.15
        ref_d = kn.rho_new_from_values(0, 0, u, tv, [sig, sig], 1.0, 3)
        ref_o = kn.rho_new_from_values(0, 1, u, tv, [sig, sig], 1.0, 3)
        com_d = kn.rho_combinatorial("diag", u, tv, [sig, sig], 1.0, 3,
                                     n_max=24)
        com_o = kn.rho_combinatorial("off", u, tv, [sig, sig], 1.0, 3,
                                     n_max=25)
        scale = max(ref_d.value, 1e-30)
        assert abs(com_d.value - ref_d.value) <= 1e-10 * scale
        scale = max(ref_o.value, 1e-30)
        assert abs(com_o.value - ref_o.value) <= 1e-10 * scale


def test_rho_combinatorial_matches_contour_k3():
    momenta = [Y1, Y2, Y3]
    u = np.array([0.4, 0.3, 0.6])
    sig = MODEL.sigma_tot(1.0)
    tv = tmat(MODEL, momenta)
    cont = gm.g_contour(WeightedCollisionGraph(-2j * math.pi * tv, u),
                        nodes=64)
    ref = abs(cont.entry(0, 2)) ** 2 * math.exp(-sig * np.sum(u))
    com = kn.rho_combinatorial("off", u, tv, [sig] * 3, 1.0, 3, n_max=14)
    assert com.value == pytest.approx(ref, rel=1e-10)
    assert com.tail_estimate < 1e-12 * math.sqrt(max(ref, 1e-300))


def test_rho_combinatorial_tail_warning():
    tv = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    with pytest.warns(UserWarning, match="tail"):
        kn.rho_combinatorial("off", [2.0, 2.0], tv, [0.1, 0.1], 1.0, 3,
                             n_max=3)


# ---------------------------------------------------------------------------
# pointwise series terms
# ---------------------------------------------------------------------------

def test_f_term_k1_closed_form():
    x = np.array([0.3, -0.2, 0.5])
    t = 0.8
    val = kn.f_term("lb", 1, t, x, Y1, A_SYM, MODEL)
    expect = A_SYM.value(x - t * Y1, Y1) * math.exp(-t * MODEL.sigma_tot(1.0))
    assert val == pytest.approx(float(expect), rel=1e-12)
    assert kn.f_term("new", 1, t, x, Y1, A_SYM, MODEL) == pytest.approx(val)


def test_f_term_k2_lb_matches_chain_monte_carlo():
    x = np.array([0.2, 0.1, 0.0])
    t = 1.0
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    val = kn.f_term("lb", 2, t, x, Y1, A_SYM, model, u_nodes=32,
                    sphere=(12, 24))
    n = 60000
    block = kn.sample_lb_block(t, np.tile(Y1, (n, 1)), model, 123,
                               np.arange(n), max_legs=3)
    two = (block.legs == 2) & ~block.truncated
    shift = (block.times[two, 0, None] * block.momenta[two, 0]
             + block.times[two, 1, None] * block.momenta[two, 1])
    mc = float(np.sum(A_SYM.value(x - shift, block.momenta[two, 1]))) / n
    assert val == pytest.approx(mc, rel=0.05)


def test_f_term_scaling_in_coupling():
    # the one-collision term is O(lambda^2); the return pairing adds an
    # O(lambda^4) correction, so the ratio converges quadratically
    x = np.array([0.0, 0.0, 0.0])
    t = 0.7
    lams = (0.1, 0.05, 0.025)
    vals = []
    for lam in lams:
        model = sc.ScatteringModel(POT, coupling=lam, born_order=1)
        vals.append(kn.f_term("new", 2, t, x, Y1, A_SYM, model,
                              u_nodes=16, sphere=(8, 16)) / lam ** 2)
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])
    assert abs(vals[1] - vals[2]) == pytest.approx(
        abs(vals[0] - vals[1]) / 4, rel=0.25)
    assert vals[1] == pytest.approx(vals[2], rel=0.06)
    model = sc.ScatteringModel(POT, coupling=1e-3, born_order=1)
    f1 = kn.f_term("new", 1, t, x, Y1, A_SYM, model)
    assert f1 == pytest.approx(float(A_SYM.value(x - t * Y1, Y1)), rel=1e-3)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("series", ["lb", "new"])
def test_k2_term_takes_t_once_per_ring(series, order, monkeypatch):
    # T at the first partner of each polar ring, repeated over its azimuths,
    # against T at every partner (the same rule, one direction per ring)
    model = sc.ScatteringModel(POT, coupling=0.3, born_order=order)
    y = np.array([0.6, -0.5, 0.3])
    dirs, weights = kn._sphere_grid(5, 6)
    time_rule = np.polynomial.legendre.leggauss(6)

    def term(rule):
        return kn._k2_term(series, 0.8, y, model,
                           lambda shift, y_a: B_SYM.value(shift, y_a), rule,
                           time_rule)

    # partners per incoming momentum of each batch
    batches = []
    exact = model.t_matrix_batch
    monkeypatch.setattr(sc.ScatteringModel, "t_matrix_batch",
                        lambda self, y, p: batches.append(np.shape(p)[-2])
                        or exact(y, p))
    rings = term((dirs, weights))
    every = term((dirs.reshape(-1, 1, 3), weights.reshape(-1, 1)))
    # the other batches are sigma_tot's polar nodes
    assert [n for n in batches if n != sc.SPHERE_NODES] == [5, 30]
    assert rings == pytest.approx(every, rel=1e-13)


def test_f_term_rejects_high_k():
    with pytest.raises(InvalidInputError):
        kn.f_term("lb", 3, 1.0, np.zeros(3), Y1, A_SYM, MODEL)


# ---------------------------------------------------------------------------
# chain sampling
# ---------------------------------------------------------------------------

def _block(t, model, seed, n, max_legs=64):
    """n chains from Y1 of the stream of ``seed``."""
    return kn.sample_lb_block(t, np.tile(Y1, (n, 1)), model, seed,
                              np.arange(n), max_legs=max_legs)


def test_chain_determinism():
    # a chain's draws depend on (seed, index) alone: chain 4 alone and
    # inside a block of eight are the same chain
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    one = kn.sample_lb_block(2.0, Y1[None], model, 9, [4])
    eight = _block(2.0, model, 9, 8)
    for field in ("times", "momenta", "legs", "truncated"):
        assert np.array_equal(getattr(one, field)[0],
                              getattr(eight, field)[4])


def test_chain_norm_conservation_and_budget():
    model = sc.ScatteringModel(POT, coupling=0.6, born_order=1)
    block = _block(1.5, model, 2, 50)
    for i in range(50):
        k = block.legs[i]
        assert np.sum(block.times[i, :k]) == pytest.approx(1.5)
        for p in block.momenta[i, :k]:
            assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-12)


def test_chain_zero_collision_frequency():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    sig = model.sigma_tot(1.0)
    t = 1.0 / sig
    n = 4000
    hits = int(np.sum(_block(t, model, 3, n).legs == 1))
    p = hits / n
    p0 = math.exp(-1.0)
    assert abs(p - p0) < 3.5 * math.sqrt(p0 * (1 - p0) / n)


def test_chain_flight_time_distribution():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    sig = model.sigma_tot(1.0)
    t = 5.0 / sig
    block = _block(t, model, 4, 4000)
    x = np.sort(block.times[block.legs > 1, 0])
    # exact law of the uncensored first flight: truncated exponential
    cdf = (1 - np.exp(-sig * x)) / (1 - math.exp(-sig * t))
    n = len(x)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(cdf - emp_hi)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 1.63 / math.sqrt(n)  # alpha = 0.01


def test_chain_truncation_flag():
    model = sc.ScatteringModel(POT, coupling=1.0, born_order=1)
    block = _block(2.0, model, 5, 200, max_legs=2)
    assert np.any(block.truncated)
    assert np.all(block.legs[block.truncated] == 2)


def _exact_cosine_cdf(model, speed, points=513):
    """CDF of the scattering cosine c at ``speed`` by dense quadrature of
    polar_abs2 times the Jacobi weight (1 - c^2)^((d-3)/2): a cumulative
    trapezoid in the angle theta, where the density is |T|^2 sin^(d-2)."""
    theta = np.linspace(0.0, math.pi, points)
    dens = model.polar_abs2(speed, np.cos(theta)) \
        * np.sin(theta) ** (model.dim - 2)
    mass = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(theta))])
    mass /= mass[-1]
    return lambda c: 1.0 - np.interp(np.arccos(np.clip(c, -1.0, 1.0)),
                                     theta, mass)


def _shell_model(dim, order, coupling):
    return sc.ScatteringModel(sc.GaussianPotential(dim=dim),
                              coupling=coupling, born_order=order)


@pytest.mark.parametrize("dim, order, coupling, speed",
                         [(3, 2, 0.2, v) for v in (0.4, 1.0, 1.8)]
                         + [(3, 3, 0.1, v) for v in (0.4, 1.0, 1.8)]
                         + [(4, 1, 0.5, 1.0), (4, 2, 0.2, 1.0)])
def test_shell_cosines_follow_exact_law(dim, order, coupling, speed):
    from scipy import stats
    model = _shell_model(dim, order, coupling)
    u = kn._uniforms(15, np.arange(4000), 1, 0)[:, 1]
    c = model.shell_table([speed]).cosines(np.zeros(4000, dtype=int), u)
    assert np.all(np.abs(c) <= 1.0)
    assert stats.kstest(c, _exact_cosine_cdf(model, speed)).pvalue > 0.01


@pytest.mark.parametrize("speed", [0.4, 1.0, 1.8])
def test_shell_cosines_match_born1_closed_form(speed):
    # at Born order 1 in d = 3 a table interpolated from |T|^2 at the polar
    # nodes inverts the von Mises-Fisher CDF that the closed-form law
    # inverts exactly, at the same level
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    nodes, _ = sc._polar_rule(3, sc.SPHERE_NODES)
    closed = model.shell_table([speed])
    assert isinstance(closed, sc.VonMisesShell)
    table = sc.ShellTable.from_values(3, closed.rates,
                                      model.polar_abs2(speed, nodes)[None])
    rows = np.zeros(1000, dtype=int)
    u = kn._uniforms(15, np.arange(1000), 1, 0)[:, 1]
    assert np.max(np.abs(table.cosines(rows, u)
                         - closed.cosines(rows, u))) < 1e-10


@pytest.mark.parametrize("dim, order, coupling",
                         [(3, 2, 0.2), (4, 1, 0.5), (4, 2, 0.2)])
def test_shell_directions_in_chains(dim, order, coupling):
    # the first scattering of chains from a fixed momentum keeps the speed,
    # draws cos theta from the exact law and the rest of the direction
    # uniformly: in d = 3 a uniform azimuth, in d = 4 a uniform unit vector
    # of the complement (a sphere in R^3, whose coordinates are uniform on
    # [-1, 1])
    from scipy import stats
    model = _shell_model(dim, order, coupling)
    y0 = np.zeros(dim)
    y0[0] = 1.0
    n = 1000
    block = kn.sample_lb_block(40.0 / model.sigma_tot(1.0),
                               np.tile(y0, (n, 1)), model, 16,
                               np.arange(n), max_legs=2)
    assert np.all(block.legs == 2)
    out = block.momenta[:, 1]
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-13)
    assert stats.kstest(out[:, 0], _exact_cosine_cdf(model, 1.0)
                        ).pvalue > 0.01
    perp = out[:, 1:] / np.linalg.norm(out[:, 1:], axis=1, keepdims=True)
    if dim == 3:
        samples = [(np.arctan2(perp[:, 1], perp[:, 0]),
                    stats.uniform(-math.pi, 2 * math.pi))]
    else:
        samples = [(perp[:, j], stats.uniform(-1.0, 2.0)) for j in range(3)]
    for x, law in samples:
        assert stats.kstest(x, law.cdf).pvalue > 0.01


@pytest.mark.parametrize("dim, order, coupling",
                         [(3, 2, 0.2), (3, 3, 0.1), (3, 1, 0.5), (4, 1, 0.5)],
                         ids=["2-0.2", "3-0.1", "born1-d3", "born1-d4"])
def test_block_rates_are_sigma_tot(dim, order, coupling):
    model = _shell_model(dim, order, coupling)
    y0 = np.array([[0.3, 0.4, 0.0], [0.0, 0.54, 0.72], [1.04, 0.0, 0.78]])
    y0 = np.hstack([y0, np.full((3, dim - 3), 0.1)])
    block = kn.sample_lb_block(1.0, y0, model, 3, np.arange(3), max_legs=2)
    assert np.array_equal(block.rates, [
        model.sigma_tot(v) for v in np.linalg.norm(y0, axis=1)])


def test_shell_table_error_estimate():
    # the estimate is at least the L1 error of the interpolated law against
    # a dense scan of |T|^2; it stays below SHELL_TOL up to |y| = 2 and
    # exceeds it at |y| = 4, where the forward peak of |T|^2 is too narrow
    # for the nodes
    from scipy.interpolate import BarycentricInterpolator
    nodes, _ = sc._polar_rule(3, sc.SPHERE_NODES)
    theta = np.linspace(0.0, math.pi, 4001)
    weight = np.sin(theta)

    def l1_error(values, exact):
        interp = BarycentricInterpolator(nodes, values)(np.cos(theta))
        return (np.trapezoid(np.abs(interp - exact) * weight, theta)
                / np.trapezoid(exact * weight, theta))

    speeds = [0.4, 1.0, 2.0, 4.0]
    for coupling in (0.2, 0.5):
        model = sc.ScatteringModel(POT, coupling=coupling, born_order=2)
        table = model.shell_table(speeds)
        for v, error in zip(speeds, table.error):
            assert error >= l1_error(model.polar_abs2(v, nodes),
                                     model.polar_abs2(v, np.cos(theta)))
        assert np.all(table.error[:3] <= kn.SHELL_TOL)
        assert table.error[3] > kn.SHELL_TOL
    # a kernel far narrower than the nodes: the interpolant dips below 0,
    # and the estimate counts that mass too
    peak = np.exp(-400.0 * (1.0 - nodes))
    table = sc.ShellTable.from_values(3, np.ones(1), peak[None])
    assert table.error[0] >= l1_error(peak, np.exp(-400.0 * (1.0 - np.cos(
        theta))))
    assert np.any(np.diff(table.grid[0]) < 0)


def test_chain_warns_when_shell_table_is_poor():
    model = sc.ScatteringModel(POT, coupling=0.2, born_order=2)
    for speed in (2.0, 4.0):
        y0 = np.tile([speed, 0.0, 0.0], (3, 1))
        t = 40.0 / model.sigma_tot(speed)
        if speed == 2.0:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kn.sample_lb_block(t, y0, model, 6, np.arange(3), max_legs=4)
        else:
            with pytest.warns(UserWarning, match=r"shell table error "
                              r"estimate above 1e-06 on 3 of 3 chains: "
                              r"worst \d\.\d\de-0\d"):
                kn.sample_lb_block(t, y0, model, 6, np.arange(3), max_legs=4)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 3])
def test_philox_matches_numpy(seed):
    # counter (j + 1, i, lane, 0) is the first block numpy's Philox makes
    # from counter (j, i, lane, 0)
    key = np.array([seed, 0], dtype=np.uint64)
    for chain in (0, 7, 2 ** 40):
        for lane in (0, 3):
            ours = kn._philox(seed, np.arange(1, 6), chain, lane).ravel()
            ref = np.random.Philox(key=key, counter=[0, chain, lane, 0])
            assert np.array_equal(ours, ref.random_raw(20))


@pytest.mark.parametrize("kappa", [0.1, 4 * math.pi, 100.0])
def test_born1_cosine_follows_exact_law(kappa):
    # the closed-form law, with the azimuths the sampler draws in d = 3
    from scipy import stats
    u = kn._uniforms(11, np.arange(4000), 1, 0)
    law = sc.VonMisesShell(np.ones(1), np.array([kappa]))
    assert law.error == 0
    c = law.cosines(np.zeros(4000, dtype=int), u[:, 1])[:, None]
    v = kn._complements(11, np.arange(4000, dtype=np.uint64), 1, u[:, 2], 3)
    dirs = np.hstack([c, np.sqrt(1 - c * c) * v])
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-14)

    def cdf(c):
        return (np.exp(kappa * (c - 1)) - math.exp(-2 * kappa)) \
            / -math.expm1(-2 * kappa)

    assert stats.kstest(dirs[:, 0], cdf).pvalue > 0.01
    # the azimuth about the axis is uniform
    phi = np.arctan2(dirs[:, 2], dirs[:, 1])
    assert stats.kstest(phi, stats.uniform(-math.pi, 2 * math.pi).cdf
                        ).pvalue > 0.01


@pytest.mark.parametrize("axis", [Y1, -Y1, np.array([0.36, -0.48, 0.8])])
def test_householder_sends_e1_to_axis(axis):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    out = kn._from_axis(axis, np.vstack([Y1, x]))
    assert np.allclose(out[0], axis, atol=1e-15)
    # orthogonal: lengths and inner products are kept
    assert np.allclose(out[1:] @ out[1:].T, x @ x.T, rtol=1e-13, atol=1e-13)


def test_turned_flights_weigh_the_stopping_chance():
    # over the chains that reach leg k, the turned weight integrates the
    # k-leg path law rate^(k-1) exp(-rate t) on the time simplex: its mean
    # is the Poisson chance of exactly k - 1 collisions, and with the last
    # flight as integrand rate^(k-1) exp(-rate t) t^k / k!
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    rate = model.sigma_tot(1.0)
    t, n = 3.0 / rate, 20000
    block = _block(t, model, 12, n, max_legs=3)
    turns = kn._uniforms(12, np.arange(n), 0, 0)
    for k in (1, 2, 3):
        sel = block.legs >= k
        u, mis = kn._turned_flights(t, block.times[sel, :k],
                                    block.rates[sel], turns[sel, k - 1])
        assert np.allclose(u.sum(axis=1), t, rtol=1e-12)
        assert np.all(u >= 0)
        law = math.exp(-rate * t) * rate ** (k - 1)
        for values, exact in (
                (mis, law * t ** (k - 1) / math.factorial(k - 1)),
                (mis * u[:, -1], law * t ** k / math.factorial(k))):
            total = np.zeros(n)
            total[sel] = values
            err = total.std(ddof=1) / math.sqrt(n)
            # k = 1 has no spread: every chain weighs exp(-rate t)
            assert abs(total.mean() - exact) <= 4 * err + 1e-12 * exact


# ---------------------------------------------------------------------------
# pairing estimators
# ---------------------------------------------------------------------------

def test_pair_estimate_deterministic_in_seed():
    model = sc.ScatteringModel(POT, coupling=0.4, born_order=1)
    r1 = kn.pair_estimate("new", A_SYM, B_SYM, 0.8, 2, 500, model, seed=42)
    r2 = kn.pair_estimate("new", A_SYM, B_SYM, 0.8, 2, 500, model, seed=42)
    assert r1.value == r2.value and r1.stderr == r2.stderr


def test_pair_estimate_rejects_fewer_than_two_samples():
    for n in (0, 1):
        with pytest.raises(InvalidInputError):
            kn.pair_estimate("lb", A_SYM, B_SYM, 0.5, 2, n, MODEL)


def test_pair_estimate_free_limit():
    model = sc.ScatteringModel(POT, coupling=0.2, born_order=1)
    t = 1e-4
    inner = kn.symbol_inner(B_SYM, A_SYM)
    for series in ("lb", "new"):
        est = kn.pair_estimate(series, A_SYM, B_SYM, t, 2, 4000, model,
                               seed=1)
        assert abs(est.value - inner) < max(4 * est.stderr, 0.02 * inner)


def _assert_estimate_matches_quadrature(model, n_samples, seed):
    t = 1.0
    q1 = kn.pair_quadrature("lb", A_SYM, B_SYM, t, model, k=1, y_nodes=16)
    for series in ("lb", "new"):
        q2 = kn.pair_quadrature(series, A_SYM, B_SYM, t, model, k=2,
                                y_nodes=12, u_nodes=16, sphere=(10, 20))
        est = kn.pair_estimate(series, A_SYM, B_SYM, t, 2, n_samples, model,
                               seed=seed)
        assert est.within(q1 + q2, sigmas=3.0)


def test_pair_estimate_matches_quadrature():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    _assert_estimate_matches_quadrature(model, 8000, 7)


# a few proposal chains start above |y| = 3, where the table warns; the
# warning is tested in test_chain_warns_when_shell_table_is_poor
@pytest.mark.filterwarnings("ignore:shell table error estimate")
def test_pair_estimate_matches_quadrature_at_born_order_2():
    # directions from the shell table, not the Born-1 von Mises-Fisher law;
    # the quadrature reads lb 0.016546 and new 0.020892
    model = sc.ScatteringModel(POT, coupling=0.3, born_order=2)
    _assert_estimate_matches_quadrature(model, 4000, 41)


def test_pair_estimate_return_mass_positive():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    est = kn.pair_estimate("new", A_SYM, B_SYM, 1.0, 2, 3000, model, seed=3)
    assert est.return_mass is not None and est.return_mass > 0
    lb = kn.pair_estimate("lb", A_SYM, B_SYM, 1.0, 2, 3000, model, seed=3)
    assert lb.return_mass is None


def test_mass_estimate_runs():
    model = sc.ScatteringModel(POT, coupling=0.3, born_order=1)
    est = kn.pair_estimate("new", A_SYM, None, 0.5, 2, 2000, model, seed=8)
    assert np.isfinite(est.value) and est.value > 0


def _permuted_weight(b, a, shift, legs, u, model, q):
    """The reweighting by its definition: every (ell, m) pairing at the
    permuted leg assignment, rho_new over rho_lb times the overlap over k!.
    Returns the weight and its ell = m part."""
    k = len(u)
    speed = float(np.linalg.norm(legs[0]))
    sig = model.sigma_tot(speed)
    dens_lb = kn.rho_lb(u, legs, model).value
    tvals = tmat(model, legs)
    total = diag = 0.0
    for ell in range(k):
        order = [ell] + [p for p in range(k) if p != ell]
        pos = np.empty(k, dtype=int)
        pos[order] = np.arange(k)
        for m in range(k):
            dens = kn.rho_new_from_values(
                ell, m, u[pos], tvals[np.ix_(pos, pos)], [sig] * k, speed,
                model.dim)
            ov = kn._overlap_or_mass(b, a, shift, legs[0], legs[pos[m]])
            term = dens.value / dens_lb * ov / math.factorial(k) / q
            total += term
            if m == ell:
                diag += term
    return total, diag


@pytest.mark.parametrize("born_order", [1, 2])
def test_new_weight_matches_permuted_definition(born_order, monkeypatch):
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=born_order)
    rng = np.random.default_rng(17)
    batches = []
    original = gm.g_series_batch

    def counted(weights, times, *args, **kwargs):
        batches.append(len(times))
        return original(weights, times, *args, **kwargs)

    monkeypatch.setattr(gm, "g_series_batch", counted)
    for k in (2, 3):
        legs, times = np.empty((4, k, 3)), np.empty((4, k))
        for i in range(4):
            dirs = rng.normal(size=(k, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            legs[i] = rng.uniform(0.6, 1.4) * dirs
            times[i] = rng.uniform(0.05, 1.0, k)
        shift = np.sum(times[..., None] * legs, axis=1)
        q = rng.uniform(0.2, 2.0, 4)
        batches.clear()
        weights, shares, tails = kn._new_weights(B_SYM, A_SYM, shift, legs,
                                                 times, model, q)
        # row 0 of G: the vectorised closed form at k = 2, one series
        # engine call over all four chains above it
        assert batches == ([] if k == 2 else [4]) and tails == []
        for i in range(4):
            ref, ref_share = _permuted_weight(B_SYM, A_SYM, shift[i], legs[i],
                                              times[i], model, q[i])
            assert weights[i] == pytest.approx(ref, rel=1e-12)
            assert shares[i] == pytest.approx(ref_share, rel=1e-12)


def test_new_weights_with_every_kernel_zero(monkeypatch):
    # at zero coupling no chain is live: the series engine gets an empty
    # batch and every weight is 0
    model = sc.ScatteringModel(POT, coupling=0.0, born_order=1)
    batches = []
    original = gm.g_series_batch

    def counted(weights, times, *args, **kwargs):
        out = original(weights, times, *args, **kwargs)
        batches.append(out.entries.shape)
        return out

    monkeypatch.setattr(gm, "g_series_batch", counted)
    rng = np.random.default_rng(3)
    legs = rng.normal(size=(5, 3, 3))
    legs /= np.linalg.norm(legs, axis=2, keepdims=True)
    times = rng.uniform(0.1, 0.5, (5, 3))
    shift = np.sum(times[..., None] * legs, axis=1)
    weights, shares, tails = kn._new_weights(B_SYM, A_SYM, shift, legs,
                                             times, model, np.ones(5))
    assert batches == [(0, 3)] and tails == []
    assert not weights.any() and not shares.any()


def test_pair_estimate_warns_on_unconverged_g(monkeypatch):
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    args = ("new", A_SYM, B_SYM, 1.0, 3, 40, model)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kn.pair_estimate(*args, seed=9)
    assert not [w for w in caught if "unconverged" in str(w.message)]
    original = gm.g_series_batch
    results = []

    def truncated(*a, **kw):
        # three orders cannot converge at k = 3: the first nonzero layers
        # are degrees 3 and 4
        results.append(original(*a, **dict(kw, max_order=3)))
        return results[-1]

    monkeypatch.setattr(gm, "g_series_batch", truncated)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kn.pair_estimate(*args, seed=9)
    hits = [str(w.message) for w in caught if "unconverged" in str(w.message)]
    bad = sum(int(np.sum(~r.converged)) for r in results)
    worst = max(float(np.max(r.tail_estimate, initial=0.0)) for r in results)
    assert results and bad == sum(len(r.converged) for r in results) > 0
    assert hits == [f"G series unconverged on {bad} of 40 chains: worst "
                    f"tail estimate {worst:.2e}"]


def test_rho_new_from_values_warns_on_unconverged_g(monkeypatch):
    # the density takes row ell of G from g_rows with no fallback: a series
    # that cannot converge is warned about and its tail reported
    tv = tmat(MODEL, [Y1, Y2, Y3])
    u, sig = [0.4, 0.3, 0.6], [MODEL.sigma_tot(1.0)] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        good = kn.rho_new_from_values(1, 2, u, tv, sig, 1.0, 3)
    assert good.tail_estimate < 1e-15
    original = gm.g_series_batch
    results = []

    def truncated(*a, **kw):
        results.append(original(*a, **dict(kw, max_order=3)))
        return results[-1]

    monkeypatch.setattr(gm, "g_series_batch", truncated)
    with pytest.warns(UserWarning, match="G series unconverged at order 3"):
        bad = kn.rho_new_from_values(1, 2, u, tv, sig, 1.0, 3)
    assert len(results) == 1 and not results[0].converged[0]
    assert bad.tail_estimate == results[0].tail_estimate[0] > 1e-6
    assert bad.value != good.value


def test_k2_closed_form_vectorised_against_scalar():
    u1 = np.array([0.3, 2.0, 0.0, 1.1, 0.0])
    u2 = np.array([0.7, 0.0, 1.5, 4.0, 0.0])
    w01 = np.array([0.3 + 0.1j, -0.5, 0.2j, 1.0, 0.4 - 0.4j])
    w10 = np.array([-0.6j, 0.25 + 0.5j, 0.7, -0.8, 0.1])
    vec = np.stack(gm._k2_entries(u1, u2, w01, w10), axis=-1)
    for i in range(len(u1)):
        one = gm.g_bessel_k2(u1[i], u2[i], w01[i], w10[i]).entries
        assert vec[i] == pytest.approx(one.ravel(), rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("widths", [
    {"x_width": 0.0}, {"x_width": -1.0}, {"y_width": 0.0},
    {"y_width": -1.0},
], ids=["x_zero", "x_negative", "y_zero", "y_negative"])
def test_symbol_refuses_nonpositive_width(widths):
    with pytest.raises(InvalidInputError):
        kn.GaussianSymbol(x_center=[0.0, 0, 0], y_center=[1.0, 0, 0],
                          **widths)
