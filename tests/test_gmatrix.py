import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bgflight import gmatrix as gm
from bgflight import kinetic as kn
from bgflight import scattering as sc
from bgflight.errors import InvalidInputError
from bgflight.paths import (WeightedCollisionGraph, _monomials, path_sum_table,
                            random_graph)


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
    cont = gm.g_contour(g, nodes=256)
    ser = gm.g_series(g, max_order=60)
    assert np.max(np.abs(cont.entries - ser.entries)) < 1e-8


def test_contour_k2_matches_the_closed_form_at_32_nodes():
    # complex normal weights, times in [0.1, 2]: the k = 2 saddle term of
    # the radius keeps 32 nodes at rounding level
    rng = np.random.default_rng(17)
    for _ in range(40):
        w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.fill_diagonal(w, 0)
        u = rng.uniform(0.1, 2.0, 2)
        cont = gm.g_contour(WeightedCollisionGraph(w, u), nodes=32).entries
        ref = np.reshape(gm._k2_entries(u[0], u[1], w[0, 1], w[1, 0]), (2, 2))
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(cont - ref)) <= 1e-13 * scale


# the G3_WIDE graph of test_cli.py
G3_WIDE = WeightedCollisionGraph(
    np.array([[0, -0.312, -1.905], [-1.518, 0, 0.595], [0.466, -0.47, 0]])
    + 1j * np.array([[0, 0.75, 0.608], [0.761, 0, -1.474],
                     [0.895, 0.102, 0]]), [2.0, 2.5, 3.0])


def bound_graphs():
    """Random k = 3-5 graphs, G3_WIDE scaled to max |w| = 3, and graphs
    with zero or 1e-12 times."""
    rng = np.random.default_rng(23)
    yield from (random_graph(rng, k, 0.0, 3.0) for k in (3, 4, 5) * 4)
    w = G3_WIDE.weights * 3 / np.max(np.abs(G3_WIDE.weights))
    yield WeightedCollisionGraph(w, G3_WIDE.times)
    for times in ([0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, 1e-12],
                  [1e-12, 1e-12, 1.0]):
        yield WeightedCollisionGraph(w, times)


def test_contour_c1_keeps_ostrowskis_bound_on_the_grid():
    # the radii exceed the row sums rho_j of the minor off axis 0, so
    # |c1| = |det(D' - W')| >= prod (R_j - rho_j) > 0 at every grid point
    for g in bound_graphs():
        k, nodes = g.k, {3: 64, 4: 16, 5: 8}[g.k]
        radii = gm._radii(g)
        rho = np.abs(g.weights[1:, 1:]).sum(axis=1)
        assert np.all(radii - rho >= 0.2)
        z = radii[:, None] * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        c1 = gm._on_grid(gm._contour_coefficients(g.weights)[0][1], z)
        assert c1.shape == (nodes,) * (k - 1)
        assert np.min(np.abs(c1)) >= np.prod(radii - rho)


def test_contour_radii_cap_small_times():
    # a time at or near zero makes the saddle term large or infinite; the
    # cap holds every radius at 1 + 1.1 r0, and the value stays finite
    g = WeightedCollisionGraph(G3_WIDE.weights, [1.0, 0.0, 1e-12])
    assert np.array_equal(gm._radii(g), np.full(2, 1.0 + 1.1 * g.r0))
    cont, ser = gm.g_contour(g, nodes=64), gm.g_series(g)
    assert ser.converged
    assert np.max(np.abs(cont.entries - ser.entries)) <= 1e-12 * max(
        1.0, np.max(np.abs(ser.entries)))


def trapezoid_reference(graph, radius, nodes):
    """Explicit trapezoid over the product of circles, nodes[i] on circle i,
    of (D(z) - W)^{-1} exp(u . z), the matrix inverted at every grid
    point."""
    k = graph.k
    axes = [r * np.exp(2j * np.pi * np.arange(n) / n)
            for r, n in zip(radius, nodes)]
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    weight = np.prod(z / np.array(nodes) * np.exp(graph.times * z), axis=1)
    inverse = np.linalg.inv(z[:, :, None] * np.eye(k) - graph.weights)
    return (weight[:, None, None] * inverse).sum(axis=0)


@pytest.mark.parametrize("k, nodes", [(2, 8), (2, 16), (3, 8), (3, 16)])
def test_contour_residue_is_the_limit_of_the_trapezoid(k, nodes):
    # circle 0 integrated exactly is the trapezoid at many nodes on it, with
    # the same nodes on the other circles; at these node counts both are
    # still away from the series, so the match is not the converged value
    g = rand_graph(k, umax=1.0, seed=70 + k)
    radius = np.full(k, 1.0 + 1.1 * g.r0)
    got = gm._contour_sum(g.times, radius[1:], nodes,
                          *gm._contour_coefficients(g.weights))[0]
    ref = trapezoid_reference(g, radius, [512] + [nodes] * (k - 1))
    scale = max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    assert np.max(np.abs(ref - gm.g_series(g).entries)) > 1e-10 * scale


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_contour_half_sum_is_the_run_at_half_the_nodes(k):
    # the half-node sum read off the even-index nodes of the pass is, bit
    # for bit, the sum of a pass at nodes // 2 per circle (grids of up to
    # 2^18 points)
    g = rand_graph(k, seed=50 + k)
    radii, coef = gm._radii(g), gm._contour_coefficients(g.weights)
    for nodes in [n for n in (8, 16, 32, 64) if n ** (k - 1) <= 2 ** 18]:
        half = gm._contour_sum(g.times, radii, nodes, *coef)[1]
        assert np.array_equal(
            half, gm._contour_sum(g.times, radii, nodes // 2, *coef)[0])


def test_contour_cap_counts_the_pass_grid():
    # k = 3 at 512 nodes is a pass over 512^2 points; a cap on nodes^k, a
    # trapezoid on every circle, refused it
    g = rand_graph(3, umax=0.8, seed=9, wscale=0.5)
    cont, ser = gm.g_contour(g, nodes=512), gm.g_series(g)
    scale = max(1.0, np.max(np.abs(ser.entries)))
    assert np.max(np.abs(cont.entries - ser.entries)) <= 1e-12 * scale
    assert cont.quad_error <= 1e-12 * scale


@pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 5, 3), (3, 2, 4, 5)])
def test_moments_match_the_grid_sum(shape):
    # every moment against the explicit sum over the grid, b_0 the most
    # significant bit of its flat index
    r = np.random.default_rng(len(shape))
    t = r.normal(size=shape) + 1j * r.normal(size=shape)
    vecs = [r.normal(size=(2, n)) + 1j * r.normal(size=(2, n))
            for n in shape]
    got = gm._moments(t, vecs)
    assert got.shape == (2 ** len(shape),)
    for flat, bits in enumerate(np.ndindex(*(2,) * len(shape))):
        expected = 0j
        for idx in np.ndindex(*shape):
            expected += t[idx] * math.prod(
                v[b, i] for v, b, i in zip(vecs, bits, idx))
        assert got[flat] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def contour_peak(graph, nodes):
    """Peak bytes ``tracemalloc`` sees during one g_contour call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        gm.g_contour(graph, nodes=nodes)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_contour_memory_is_bounded_by_a_chunk():
    # k = 4 at 32 nodes, half-node sum included: the pass holds
    # O(nodes^(k-1)) points at a time, not the whole grid
    g = rand_graph(4, umax=0.6, seed=3, wscale=0.5)
    assert contour_peak(g, 32) < 8 * 2 ** 20


def test_contour_pass_holds_four_grids():
    # k = 3 at 512 nodes, 2^18 grid points of 16 bytes: c0, c1 and the
    # residue pair at the peak, 16 MiB
    g = rand_graph(3, umax=0.8, seed=9, wscale=0.5)
    assert contour_peak(g, 512) < 20 * 2 ** 20


def test_contour_error_estimate_reported():
    g = rand_graph(2, seed=6)
    out = gm.g_contour(g, nodes=64)
    assert out.quad_error is not None and out.quad_error < 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_contour_error_covers_the_deviation_at_4_nodes(seed):
    # the half-node sum runs over the even-index nodes, 2 per circle, a grid
    # of its own: at 4 nodes the contour is away from the series (0.018 to
    # 0.74 at these seeds), and says so
    g = random_graph(np.random.default_rng(seed), 3)
    cont, ser = gm.g_contour(g, nodes=4), gm.g_series(g)
    assert ser.converged
    dev = float(np.max(np.abs(cont.entries - ser.entries)))
    assert cont.quad_error >= dev > 1e-2


def test_contour_generic_k4_matches_series():
    g = rand_graph(4, umax=0.6, seed=3, wscale=0.5)
    cont = gm.g_contour(g, nodes=32)
    ser = gm.g_series(g, max_order=60)
    assert np.max(np.abs(cont.entries - ser.entries)) < 1e-10


def test_contour_matches_series_k5():
    g = rand_graph(5, umax=0.6, seed=4, wscale=0.3)
    cont = gm.g_contour(g, nodes=16)
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
        con = gm.g_contour(g, nodes=256)
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
