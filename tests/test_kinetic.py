import dataclasses
import math
import warnings

import numpy as np
import pytest

from bgflight import gmatrix as gm
from bgflight import kinetic as kn
from bgflight import scattering as sc
from bgflight.errors import InvalidInputError

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
        leg1 * MODEL.sigma_pair(Y1, Y2) * leg2, rel=1e-12)


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
        val = kn.rho_new(ell, m, u, momenta, MODEL,
                         method="series" if k > 2 else None)
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
    ref = kn.rho_new_from_values(0, 2, u, tv, [sig] * 3, 1.0, 3,
                                 method="contour",
                                 spec=gm.ContourSpec(nodes=64),
                                 error_estimate=False)
    com = kn.rho_combinatorial("off", u, tv, [sig] * 3, 1.0, 3, n_max=14)
    assert com.value == pytest.approx(ref.value, rel=1e-10)
    assert com.tail_estimate < 1e-12 * math.sqrt(max(ref.value, 1e-300))


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
    acc = 0.0
    for i in range(n):
        rng = kn._chain_rng(123, i)
        chain = kn.sample_lb_chain(t, Y1, model, rng, max_legs=3)
        if chain.k == 2 and not chain.truncated:
            shift = sum(ui * yi for ui, yi in zip(chain.times, chain.momenta))
            acc += float(A_SYM.value(x - shift, chain.momenta[-1]))
    mc = acc / n
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


def test_f_term_rejects_high_k():
    with pytest.raises(InvalidInputError):
        kn.f_term("lb", 3, 1.0, np.zeros(3), Y1, A_SYM, MODEL)


# ---------------------------------------------------------------------------
# chain sampling
# ---------------------------------------------------------------------------

def test_chain_determinism():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    c1 = kn.sample_lb_chain(2.0, Y1, model, kn._chain_rng(9, 4))
    c2 = kn.sample_lb_chain(2.0, Y1, model, kn._chain_rng(9, 4))
    assert c1.times == c2.times
    assert all(np.array_equal(a, b) for a, b in zip(c1.momenta, c2.momenta))


def test_chain_norm_conservation_and_budget():
    model = sc.ScatteringModel(POT, coupling=0.6, born_order=1)
    for i in range(50):
        chain = kn.sample_lb_chain(1.5, Y1, model, kn._chain_rng(2, i))
        assert chain.total_time == pytest.approx(1.5)
        for p in chain.momenta:
            assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-12)
        assert chain.ell == 0 and chain.m == chain.k - 1


def test_chain_zero_collision_frequency():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    sig = model.sigma_tot(1.0)
    t = 1.0 / sig
    n = 4000
    hits = sum(kn.sample_lb_chain(t, Y1, model, kn._chain_rng(3, i)).k == 1
               for i in range(n))
    p = hits / n
    p0 = math.exp(-1.0)
    assert abs(p - p0) < 3.5 * math.sqrt(p0 * (1 - p0) / n)


def test_chain_flight_time_distribution():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    sig = model.sigma_tot(1.0)
    t = 5.0 / sig
    firsts = []
    for i in range(4000):
        chain = kn.sample_lb_chain(t, Y1, model, kn._chain_rng(4, i))
        if chain.k > 1:
            firsts.append(chain.times[0])
    x = np.sort(firsts)
    # exact law of the uncensored first flight: truncated exponential
    cdf = (1 - np.exp(-sig * x)) / (1 - math.exp(-sig * t))
    n = len(x)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(cdf - emp_hi)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 1.63 / math.sqrt(n)  # alpha = 0.01


def test_chain_truncation_flag():
    model = sc.ScatteringModel(POT, coupling=1.0, born_order=1)
    truncated = 0
    for i in range(200):
        chain = kn.sample_lb_chain(2.0, Y1, model, kn._chain_rng(5, i),
                                   max_legs=2)
        if chain.truncated:
            truncated += 1
            assert chain.k == 2
    assert truncated > 0


def test_chain_warns_when_rejection_bound_fails(monkeypatch):
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=2)
    t = 20.0 / model.sigma_tot(1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kn.sample_lb_chain(t, Y1, model, kn._chain_rng(6, 0), max_legs=16)
    assert not [w for w in caught if "bound exceeded" in str(w.message)]
    true_bound = kn._direction_bound
    monkeypatch.setattr(kn, "_direction_bound",
                        lambda m, v: 0.5 * true_bound(m, v))
    with pytest.warns(UserWarning, match=r"bound exceeded: worst .* = 1\.\d"):
        kn.sample_lb_chain(t, Y1, model, kn._chain_rng(6, 0), max_legs=16)


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


def test_pair_estimate_matches_quadrature():
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    t = 1.0
    q1 = kn.pair_quadrature("lb", A_SYM, B_SYM, t, model, k=1, y_nodes=16)
    for series in ("lb", "new"):
        q2 = kn.pair_quadrature(series, A_SYM, B_SYM, t, model, k=2,
                                y_nodes=12, u_nodes=16, sphere=(10, 20))
        est = kn.pair_estimate(series, A_SYM, B_SYM, t, 2, 8000, model,
                               seed=7)
        assert est.within(q1 + q2, sigmas=3.0)


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


def _permuted_weight(b, a, shift, chain, model, q):
    """The reweighting by its definition: every (ell, m) pairing at the
    permuted leg assignment, rho_new over rho_lb times the overlap over k!.
    Returns the weight and its ell = m part."""
    k = chain.k
    u = np.asarray(chain.times)
    legs = chain.momenta
    speed = chain.speed
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
                model.dim, method="bessel_k2" if k == 2 else "series")
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
    evals = []
    original = kn.g_auto

    def counted(*args, **kwargs):
        evals.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kn, "g_auto", counted)
    for k in (2, 3):
        for _ in range(4):
            dirs = rng.normal(size=(k, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            legs = list(rng.uniform(0.6, 1.4) * dirs)
            chain = kn.CollisionChain(legs, list(rng.uniform(0.05, 1.0, k)))
            shift = np.sum(np.asarray(chain.times)[:, None]
                           * np.asarray(legs), axis=0)
            q = rng.uniform(0.2, 2.0)
            evals.clear()
            weight, share, gmat = kn._new_weight(B_SYM, A_SYM, shift, chain,
                                                 model, q)
            assert len(evals) == 1 and gmat.converged
            ref, ref_share = _permuted_weight(B_SYM, A_SYM, shift, chain,
                                              model, q)
            assert weight == pytest.approx(ref, rel=1e-12)
            assert share == pytest.approx(ref_share, rel=1e-12)


def test_pair_estimate_warns_on_unconverged_g(monkeypatch):
    model = sc.ScatteringModel(POT, coupling=0.5, born_order=1)
    args = ("new", A_SYM, B_SYM, 1.0, 3, 40, model)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kn.pair_estimate(*args, seed=9)
    assert not [w for w in caught if "unconverged" in str(w.message)]
    original = kn.g_auto
    evals = []

    def unconverged(*a, **kw):
        evals.append(1)
        return dataclasses.replace(original(*a, **kw), converged=False,
                                   tail_estimate=3e-9 * len(evals))

    monkeypatch.setattr(kn, "g_auto", unconverged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kn.pair_estimate(*args, seed=9)
    hits = [str(w.message) for w in caught if "unconverged" in str(w.message)]
    assert evals and hits == [
        f"G series unconverged on {len(evals)} of 40 chains: worst tail "
        f"estimate {3e-9 * len(evals):.2e}"]


def test_k2_closed_form_vectorised_against_scalar():
    u1 = np.array([0.3, 2.0, 0.0, 1.1, 0.0])
    u2 = np.array([0.7, 0.0, 1.5, 4.0, 0.0])
    w01 = np.array([0.3 + 0.1j, -0.5, 0.2j, 1.0, 0.4 - 0.4j])
    w10 = np.array([-0.6j, 0.25 + 0.5j, 0.7, -0.8, 0.1])
    vec = np.stack(gm._k2_entries(u1, u2, w01, w10), axis=-1)
    for i in range(len(u1)):
        one = gm.g_bessel_k2(u1[i], u2[i], w01[i], w10[i]).entries
        assert vec[i] == pytest.approx(one.ravel(), rel=1e-13, abs=1e-13)
