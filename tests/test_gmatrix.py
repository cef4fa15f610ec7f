import math
import warnings

import numpy as np
import pytest

from bgflight import gmatrix as gm
from bgflight import kinetic as kn
from bgflight import scattering as sc
from bgflight.errors import InvalidInputError, SingularContourError
from bgflight.paths import WeightedCollisionGraph, _monomials, path_sum_table


def rand_graph(k, umax=1.0, seed=1, wscale=1.0):
    r = np.random.default_rng(seed)
    w = r.uniform(-1, 1, (k, k)) + 1j * r.uniform(-1, 1, (k, k))
    w *= wscale / np.max(np.abs(w))
    np.fill_diagonal(w, 0)
    u = r.uniform(0.05, umax, k)
    return WeightedCollisionGraph(w, u)


# ---------------------------------------------------------------------------
# series route
# ---------------------------------------------------------------------------

def test_series_zero_weights():
    g = WeightedCollisionGraph(np.zeros((3, 3)), [1.0, 2.0, 0.5])
    out = gm.g_series(g)
    assert np.max(np.abs(out.entries)) == 0.0
    assert out.converged


def test_series_k2_offdiagonal_is_j0_series():
    g = rand_graph(2, umax=1.5, seed=11)
    w = g.weights
    u1, u2 = g.times
    expected = 0j
    for m in range(0, 40):
        expected += (w[0, 1] * w[1, 0]) ** m * u1 ** m * u2 ** m \
            / math.factorial(m) ** 2
    expected *= w[0, 1]
    out = gm.g_series(g)
    assert out.entries[0, 1] == pytest.approx(expected, rel=1e-12)


def test_series_matches_brute_force_paths():
    g = rand_graph(3, umax=0.4, seed=2)
    brute = np.zeros((3, 3), dtype=complex)
    for n in range(0, 14):
        # L at the vertex times, term by term, apart from the library's
        # _borel_weights: u^nu -> u^(nu - 1) / (nu - 1)!, zero exponents
        # dropped
        borel = np.array([
            math.prod(u ** (e - 1) / math.factorial(e - 1)
                      for u, e in zip(g.times, expo))
            if min(expo) > 0 else 0.0
            for expo in _monomials(3, n + 1).tolist()])
        for i in range(3):
            for j in range(3):
                brute[i, j] += path_sum_table(g, n, i, j,
                                              surjective=True) @ borel
    out = gm.g_series(g)
    # difference limited by the n >= 14 tail of the brute sum
    assert np.max(np.abs(out.entries - brute)) < 1e-11


def test_series_cancellation_flag():
    # |z| = 40: layers reach ~2e15 while G stays below 1, so rounding
    # leaves no correct digit
    g = WeightedCollisionGraph(np.array([[0, 1], [-1, 0]], dtype=complex),
                               [20.0, 20.0])
    out = gm.g_series(g, max_order=200)
    assert not out.converged
    exact = gm.g_bessel_k2(20.0, 20.0, 1.0, -1.0).entries
    # the reported error has the size of the true one
    err = np.max(np.abs(out.entries - exact))
    assert 0.1 * err < out.tail_estimate < 10 * err


def test_series_nonconvergence_flag():
    g = rand_graph(2, umax=2.0, seed=3, wscale=3.0)
    out = gm.g_series(g, max_order=3)
    assert not out.converged
    assert out.tail_estimate > 0


# ---------------------------------------------------------------------------
# contour route
# ---------------------------------------------------------------------------

def test_contour_k2_decoupled_edge():
    w = np.array([[0, 0.7 + 0.2j], [0, 0]])
    g = WeightedCollisionGraph(w, [0.8, 1.2])
    out = gm.g_contour(g, nodes=128)
    assert out.entries[0, 1] == pytest.approx(w[0, 1], abs=1e-12)
    assert abs(out.entries[0, 0]) < 1e-12
    assert abs(out.entries[1, 1]) < 1e-12


def test_contour_matches_bessel_k2():
    for seed in range(12):
        g = rand_graph(2, umax=2.0, seed=seed)
        w = g.weights
        cont = gm.g_contour(g, nodes=256)
        bes = gm.g_bessel_k2(g.times[0], g.times[1], w[0, 1], w[1, 0])
        assert np.max(np.abs(cont.entries - bes.entries)) < 1e-10


def test_contour_matches_series_k3_default_example():
    r = np.random.default_rng(42)
    w = r.uniform(-1, 1, (3, 3)) + 1j * r.uniform(-1, 1, (3, 3))
    w /= np.max(np.abs(w))
    np.fill_diagonal(w, 0)
    g = WeightedCollisionGraph(w, [1.0, 1.0, 1.0])
    cont = gm.g_contour(g, nodes=256, error_estimate=False)
    ser = gm.g_series(g, max_order=60)
    assert np.max(np.abs(cont.entries - ser.entries)) < 1e-8


def test_contour_radius_validation():
    g = rand_graph(3, seed=5)
    with pytest.raises(InvalidInputError):
        gm.g_contour(g, radius=0.5 * g.r0)
    # a radius per coordinate needs k of them
    for radius in ([2.0 * g.r0] * 2, [[2.0 * g.r0] * 3]):
        with pytest.raises(InvalidInputError, match="3 numbers"):
            gm.g_contour(g, radius=radius, nodes=8)
    per_axis = gm.g_contour(g, radius=[2.0 * g.r0] * 3, nodes=8)
    assert np.array_equal(per_axis.entries,
                          gm.g_contour(g, radius=2.0 * g.r0, nodes=8).entries)


def test_contour_singular_guard():
    # w01 = w10 = 1 puts poles of det(diag(z) - W) at z1 z2 = 1, which the
    # unit circles meet at grid nodes; g_contour refuses the radius (r0 = k)
    # and the grid kernel stops before dividing by the vanishing det
    for k in (2, 3, 4):
        w = np.zeros((k, k), dtype=complex)
        w[0, 1] = w[1, 0] = 1.0
        g = WeightedCollisionGraph(w, np.ones(k))
        nodes = 64 if k == 2 else 16
        with pytest.raises((SingularContourError, InvalidInputError)):
            gm.g_contour(g, radius=1.0, nodes=nodes)
        coef = gm._contour_coefficients(g.weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularContourError):
                gm._contour_sum(g.times, np.ones(k), nodes, *coef)


def test_contour_error_estimate_reported():
    g = rand_graph(2, seed=6)
    out = gm.g_contour(g, nodes=64)
    assert out.quad_error is not None and out.quad_error < 1e-8


def test_contour_generic_k4_matches_series():
    g = rand_graph(4, umax=0.6, seed=3, wscale=0.5)
    cont = gm.g_contour(g, nodes=32, error_estimate=False)
    ser = gm.g_series(g, max_order=60)
    assert np.max(np.abs(cont.entries - ser.entries)) < 1e-10


def test_contour_matches_series_k5():
    g = rand_graph(5, umax=0.6, seed=4, wscale=0.3)
    cont = gm.g_contour(g, nodes=16, error_estimate=False)
    ser = gm.g_series(g, max_order=60)
    assert np.max(np.abs(cont.entries - ser.entries)) < 1e-10


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_contour_coefficients_expand_det_and_adjugate(k):
    g = rand_graph(k, seed=20 + k)
    det_c, adj_c = gm._contour_coefficients(g.weights)
    r = np.random.default_rng(k)
    z = r.normal(size=k) + 1j * r.normal(size=k)
    det = 0j
    adj = np.zeros((k, k), dtype=complex)
    for bits in np.ndindex(*(2,) * k):
        zs = np.prod(z[np.array(bits, dtype=bool)])
        det += det_c[bits] * zs
        adj += adj_c[bits] * zs
    m = np.diag(z) - g.weights
    direct = np.linalg.det(m)
    assert det == pytest.approx(direct, rel=1e-12)
    assert np.max(np.abs(adj - direct * np.linalg.inv(m))) <= 1e-12 * np.max(
        np.abs(adj))


# ---------------------------------------------------------------------------
# k = 2 closed form
# ---------------------------------------------------------------------------

def test_bessel_k2_zero_product():
    out = gm.g_bessel_k2(1.0, 2.0, 0.5 + 0.1j, 0.0)
    assert out.entries[0, 0] == 0
    assert out.entries[1, 1] == 0
    assert out.entries[0, 1] == 0.5 + 0.1j
    assert out.entries[1, 0] == 0


def test_bessel_k2_small_time_leading_order():
    w12, w21 = 0.3 - 0.2j, 0.4 + 0.1j
    u1 = 1e-4
    out = gm.g_bessel_k2(u1, 1e-5, w12, w21)
    assert out.entries[0, 0] == pytest.approx(u1 * w12 * w21, rel=1e-6)
    out0 = gm.g_bessel_k2(u1, 0.0, w12, w21)
    assert out0.entries[0, 0] == pytest.approx(u1 * w12 * w21, rel=1e-12)
    assert out0.entries[1, 1] == 0


def test_bessel_k2_matches_series_random():
    for seed in range(20):
        g = rand_graph(2, umax=2.0, seed=100 + seed)
        w = g.weights
        bes = gm.g_bessel_k2(g.times[0], g.times[1], w[0, 1], w[1, 0])
        ser = gm.g_series(g, max_order=80)
        assert np.max(np.abs(bes.entries - ser.entries)) <= 1e-12 * max(
            1.0, np.max(np.abs(bes.entries)))


def test_bessel_k2_branch_independence():
    # the closed form only involves even functions of the square root
    u1, u2 = 0.7, 1.3
    w12, w21 = 0.2 + 0.6j, -0.5 + 0.3j
    a = gm.g_bessel_k2(u1, u2, w12, w21)
    chi = np.sqrt(complex(-w12 * w21))
    z = 2 * math.sqrt(u1 * u2) * chi
    g11_flip = -math.sqrt(u1 / u2) * (-chi) * gm.bessel_j_quadrature(1, -z)
    assert a.entries[0, 0] == pytest.approx(g11_flip, rel=1e-14)


def k2_graph_at(z, u1=0.5, u2=2.0, w12=0.8):
    """Times and weights whose closed-form argument 2 sqrt(u1 u2 (-w12 w21))
    is z (up to a sign, which the entries do not see)."""
    return u1, u2, w12, -(z / (2 * math.sqrt(u1 * u2))) ** 2 / w12


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("z", [0.0, 0.3, 2.0, 7.5, 1.5 + 1.0j, -3.0 + 0.5j,
                               4j, 24.0 - 5.0j, 31.0, 20.0 + 20.0j, 40.0,
                               40j])
def test_bessel_matches_integral_representation(z, n):
    # J_n as the k = 2 entries carry it: J_0 off the diagonal, J_1 on it, and
    # J_2 through the diagonal's (J_0 + J_2) form; beyond |z| = 30, too,
    # where an ascending series would lose digits
    u1, u2, w12, w21 = k2_graph_at(z)
    got = gm.g_bessel_k2(u1, u2, w12, w21).entries
    j0 = gm.bessel_j_quadrature(0, z)
    if n == 0:
        got = np.array([got[0, 1], got[1, 0]])
        expected = np.array([w12, w21]) * j0
    elif n == 1:
        got = np.diag(got)
        expected = -z / 2 * np.array([1 / u2, 1 / u1]) \
            * gm.bessel_j_quadrature(1, z)
    else:
        got = np.diag(got)
        expected = w12 * w21 * np.array([u1, u2]) \
            * (j0 + gm.bessel_j_quadrature(2, z))
    assert np.max(np.abs(got - expected)) <= 1e-10 * max(
        1.0, np.max(np.abs(expected)))


def test_bessel_first_zero_of_j0():
    def g01(z):
        return gm.g_bessel_k2(*k2_graph_at(z, w12=1.0)).entries[0, 1]

    assert abs(g01(2.405)) < 1e-3
    # bracket the zero
    assert (g01(2.40).real > 0) and (g01(2.41).real < 0)


def test_bessel_k2_rejects_negative_times():
    with pytest.raises(InvalidInputError):
        gm.g_bessel_k2(-0.1, 1.0, 0.5, 0.5)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_three_way_agreement_randomized():
    rng = np.random.default_rng(0)
    for trial in range(25):
        g = rand_graph(2, umax=2.0, seed=2000 + trial)
        w = g.weights
        ser = gm.g_series(g, max_order=80)
        con = gm.g_contour(g, nodes=256, error_estimate=False)
        bes = gm.g_bessel_k2(g.times[0], g.times[1], w[0, 1], w[1, 0])
        assert np.max(np.abs(ser.entries - con.entries)) < 1e-10
        assert np.max(np.abs(ser.entries - bes.entries)) < 1e-10


def test_permutation_equivariance():
    g = rand_graph(3, seed=8)
    perm = np.array([2, 0, 1])
    gp = WeightedCollisionGraph(g.weights[np.ix_(perm, perm)],
                                g.times[perm])
    a = gm.g_series(g)
    b = gm.g_series(gp)
    assert np.max(np.abs(b.entries - a.entries[np.ix_(perm, perm)])) < 1e-12


def test_value_at_zero_times():
    # diagonal entries vanish at u = 0; off-diagonal pick up the shortest
    # surjective paths (for k = 2 the edge weights themselves)
    g = WeightedCollisionGraph(
        np.array([[0, 0.4 + 0.1j], [-0.2j, 0]]), [0.0, 0.0])
    for out in (gm.g_series(g), gm.g_contour(g, nodes=128)):
        assert abs(out.entries[0, 0]) < 1e-12
        assert abs(out.entries[1, 1]) < 1e-12
        assert out.entries[0, 1] == pytest.approx(0.4 + 0.1j, abs=1e-12)
    g3 = rand_graph(3, seed=9)
    g3z = WeightedCollisionGraph(g3.weights, np.zeros(3))
    out3 = gm.g_series(g3z)
    assert np.max(np.abs(np.diag(out3.entries))) < 1e-12


def test_g_rows_closed_form_at_k2_series_above():
    for k, route in ((2, "bessel_k2"), (3, "series")):
        graphs = [rand_graph(k, seed=20 + s) for s in range(3)]
        w = np.stack([g.weights for g in graphs])
        u = np.stack([g.times for g in graphs])
        full = gm.g_rows(w, u)
        assert full.converged.all()
        for g, entries in zip(graphs, full.entries):
            ref = gm.g_auto(g, route).entries
            assert np.max(np.abs(entries - ref)) < 1e-13
        one = gm.g_rows(w, u, row=1)
        assert np.max(np.abs(one.entries - full.entries[:, 1])) < 1e-13


def test_g_auto_dispatch():
    # as in g_rows: the closed form at k = 2, the series above; the contour
    # runs only on request
    g = rand_graph(2, seed=10)
    assert gm.g_auto(g).method == "bessel_k2"
    g3 = rand_graph(3, seed=10)
    assert gm.g_auto(g3).method == "series"
    assert gm.g_auto(g3, "contour", nodes=32).method == "contour"


# ---------------------------------------------------------------------------
# batched series engine
# ---------------------------------------------------------------------------

def engine_graphs(k, n, seed):
    """n edge-weight matrices (n, k, k) and vertex times (n, k): the first
    half uniform weights of modulus up to 0.2..2, the second half chain
    graphs of the Born-order-1 estimator at coupling 0.4 (w = -2 pi i T
    between on-shell legs of speed 0.6..1.4, flights summing to t = 1)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    w = rng.uniform(-1, 1, (half, k, k)) + 1j * rng.uniform(-1, 1,
                                                           (half, k, k))
    w *= rng.uniform(0.2, 2.0, (half, 1, 1)) / np.max(
        np.abs(w), axis=(1, 2), keepdims=True)
    w[:, np.arange(k), np.arange(k)] = 0
    u = rng.uniform(0.05, 1.0, (half, k))
    model = sc.ScatteringModel(sc.GaussianPotential(), coupling=0.4,
                               born_order=1)
    dirs = rng.normal(size=(n - half, k, 3))
    legs = rng.uniform(0.6, 1.4, (n - half, 1, 1)) * dirs / np.linalg.norm(
        dirs, axis=2, keepdims=True)
    w_chain = -2j * math.pi * kn._t_table(model, legs)
    u_chain = rng.dirichlet(np.ones(k), n - half)
    return np.concatenate([w, w_chain]), np.concatenate([u, u_chain])


@pytest.mark.parametrize("k", [3, 4])
def test_batched_row_matches_g_series(k):
    w, u = engine_graphs(k, 64, seed=40 + k)
    rows = gm.g_series_batch(w, u, row=0)
    assert rows.entries.shape == (64, k)
    for b in range(64):
        ref = gm.g_series(WeightedCollisionGraph(w[b], u[b]))
        assert rows.converged[b] and ref.converged
        # the row is judged on its own entries, whose layers fall below the
        # tolerance no later than those of the whole matrix: it may stop
        # one layer earlier, a layer below SERIES_TOL of the scale
        assert ref.order - 1 <= rows.order[b] <= ref.order
        row = ref.entries[0]
        scale = max(1.0, np.max(np.abs(row)))
        assert np.max(np.abs(rows.entries[b] - row)) <= 1e-14 * scale


@pytest.mark.parametrize("k", [3, 4])
def test_batched_row_does_not_depend_on_the_batch(k):
    w, u = engine_graphs(k, 256, seed=50 + k)
    rows = gm.g_series_batch(w, u, row=0)
    for b in range(0, 256, 5):
        one = gm.g_series_batch(w[b:b + 1], u[b:b + 1], row=0)
        assert np.array_equal(one.entries[0], rows.entries[b])
        assert one.order[0] == rows.order[b]
        assert one.tail_estimate[0] == rows.tail_estimate[b]
        assert one.converged[0] == rows.converged[b]


def test_batch_flags_only_the_graph_that_cannot_converge():
    w, u = engine_graphs(3, 16, seed=60)
    w[5] *= 40 / np.max(np.abs(w[5]))
    rows = gm.g_series_batch(w, u, row=0, max_order=40)
    assert np.flatnonzero(~rows.converged).tolist() == [5]
    assert rows.order[5] == 40 and rows.tail_estimate[5] > 1e-3
    for b in (0, 8, 15):
        one = gm.g_series_batch(w[b:b + 1], u[b:b + 1], row=0, max_order=40)
        assert np.array_equal(one.entries[0], rows.entries[b])


def test_empty_batch():
    for row in (0, None):
        out = gm.g_series_batch(np.zeros((0, 3, 3)), np.zeros((0, 3)),
                                row=row)
        assert out.entries.shape == ((0, 3) if row == 0 else (0, 3, 3))
        assert out.order.shape == out.converged.shape == (0,)


def test_all_rows_batch_is_g_series():
    w, u = engine_graphs(4, 8, seed=70)
    full = gm.g_series_batch(w, u)
    for b in range(8):
        ref = gm.g_series(WeightedCollisionGraph(w[b], u[b]))
        assert np.array_equal(full.entries[b], ref.entries)
        assert full.order[b] == ref.order
