
import numpy as np
import pytest

from bgflight import partitions as pa
from bgflight import paths as gp
from bgflight.errors import CapacityError, InvalidInputError


def make_graph(k, seed=0, umax=1.0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
    w /= np.max(np.abs(w))
    np.fill_diagonal(w, 0)
    u = rng.uniform(0, umax, k)
    return gp.WeightedCollisionGraph(w, u)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_two_vertex_loop():
    got = gp.enumerate_paths(2, 2, 0, 0)
    assert got == [(0, 1, 0)]


def test_short_loop_cannot_be_surjective():
    assert gp.enumerate_paths(3, 2, 0, 0, surjective=True) == []


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_path_counts_match_matrix_power(k, n):
    m = np.linalg.matrix_power(np.ones((k, k)) - np.eye(k), n)
    for i in range(k):
        for j in range(k):
            assert len(gp.enumerate_paths(k, n, i, j)) == int(round(m[i, j]))


def test_path_cap():
    with pytest.raises(CapacityError):
        gp.enumerate_paths(6, 12, 0, 0, cap=1000)


def test_identity_residuals_cap_counts_the_whole_run():
    # k = 3, n_max = 4: 3 (2 + 4 + 8 + 16) = 90 paths in all, at most 16 in
    # any one (n, start, end) call
    w = np.ones((3, 3)) - np.eye(3)
    graph = gp.WeightedCollisionGraph(w, np.ones(3))
    assert len(gp.path_sum_identity_residuals(graph, 4, cap=90)) == 36
    with pytest.raises(CapacityError, match=r"length 1\.\.4 exceed cap 89"):
        gp.path_sum_identity_residuals(graph, 4, cap=89)


# ---------------------------------------------------------------------------
# partition <-> path bijection
# ---------------------------------------------------------------------------

def test_alternating_partition_paths():
    op = pa.OrderedPartition(4, [(0, 2, 4), (1, 3)])
    assert gp.partition_to_path(op) == (0, 1, 0, 1, 0)
    op2 = pa.OrderedPartition(3, [(0, 2), (1, 3)])
    assert gp.partition_to_path(op2) == (0, 1, 0, 1)


def test_partition_to_path_rejects_consecutive():
    with pytest.raises(InvalidInputError):
        gp.partition_to_path(pa.OrderedPartition(2, [(0, 1), (2,)]))


@pytest.mark.parametrize("n", range(1, 8))
def test_bijection_exhaustive(n):
    for k in range(2, min(n + 2, 5)):
        # plain family onto all surjective paths
        ops = pa.enumerate_partitions(n, k, family="all", ordered=True)
        ncs = [op for op in ops if op.is_nonconsecutive()]
        paths = {gp.partition_to_path(op) for op in ncs}
        expected = set()
        for i in range(k):
            for j in range(k):
                expected.update(
                    gp.enumerate_paths(k, n, i, j, surjective=True))
        assert paths == expected
        for op in ncs:
            assert gp.path_to_partition(gp.partition_to_path(op)) == op
        # circ family onto closed paths at vertex 0
        circ = pa.enumerate_partitions(n, k, family="circ_nc", ordered=True)
        assert {gp.partition_to_path(op) for op in circ} == set(
            gp.enumerate_paths(k, n, 0, 0, surjective=True))
        # baro family onto paths from 0 to k-1
        baro = pa.enumerate_partitions(n, k, family="baro_nc", ordered=True)
        assert {gp.partition_to_path(op) for op in baro} == set(
            gp.enumerate_paths(k, n, 0, k - 1, surjective=True))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_total_weight_explicit():
    w = np.array([[0, 2 + 1j], [3 - 1j, 0]])
    g = gp.WeightedCollisionGraph(w, [0.5, 2.0])
    expect = 0.5 * (2 + 1j) * 2.0 * (3 - 1j) * 0.5
    assert gp.total_weight((0, 1, 0), g) == pytest.approx(expect)


def test_zero_edge_kills_weight():
    w = np.array([[0, 0], [1, 0]], dtype=complex)
    g = gp.WeightedCollisionGraph(w, [1.0, 1.0])
    assert gp.total_weight((0, 1, 0), g) == 0


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (3, 4), (4, 3)])
def test_path_sums_match_matrix_power_entries(k, n):
    g = make_graph(k, seed=k * 10 + n)
    layer = gp._unit_layers(g, n)[n][0]
    powers = np.prod(g.times ** gp._monomials(k, n + 1), axis=1)
    for i in range(k):
        for j in range(k):
            brute = sum(
                gp.total_weight(p, g)
                for p in gp.enumerate_paths(k, n, i, j))
            assert layer[i, j] @ powers == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# factorial transform
# ---------------------------------------------------------------------------

def _borel_weights_at(u, degree):
    # the power table of that degree at one set of times, then L
    return gp._borel_weights(gp._power_table(np.asarray(u)[None], degree)[0])


def test_borel_drops_constant_directions():
    # L maps C u^nu to C u^(nu - 1) / prod (nu_i - 1)!: u0 u1 goes to the
    # constant 1, and a monomial missing some u_i goes to 0
    u = np.array([0.7, 1.9])
    weights = _borel_weights_at(u, 2)
    for expo, value in (((1, 1), 1.0), ((2, 0), 0.0), ((0, 2), 0.0)):
        row = gp._monomial_index(2, 2, expo)
        assert weights[row] == pytest.approx(value)


def test_borel_explicit_factorials():
    u = np.array([0.7, 1.9])
    w3 = _borel_weights_at(u, 3)
    assert w3[gp._monomial_index(2, 3, (2, 1))] == pytest.approx(u[0])
    assert w3[gp._monomial_index(2, 3, (3, 0))] == 0
    w5 = _borel_weights_at(u, 5)
    assert w5[gp._monomial_index(2, 5, (3, 2))] == pytest.approx(
        u[0] ** 2 * u[1] / 2.0)


def test_borel_kills_degree_one_diagonal():
    # the n = 0 matrix D(u) has single-variable entries: transform is zero
    g = make_graph(3, seed=1)
    layer = gp._first_layer(3, np.arange(3), 1)[0]
    bw = _borel_weights_at(np.ones(3), 1)
    for i in range(3):
        for j in range(3):
            assert not np.any(layer[i, j] * bw)


# ---------------------------------------------------------------------------
# the operator identity
# ---------------------------------------------------------------------------

def test_identity_small_cases():
    # both sides symbolic; rounding only from float weight products
    g2 = make_graph(2, seed=7)
    assert gp.path_sum_identity_check(g2, 2, 0, 0) <= 1e-15
    g3 = make_graph(3, seed=8)
    assert gp.path_sum_identity_check(g3, 3, 0, 1) <= 1e-15


def test_identity_random_k4():
    g = make_graph(4, seed=9)
    assert gp.path_sum_identity_check(g, 5, 0, 1) <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_identity_sweep(k):
    g = make_graph(k, seed=20 + k)
    for n in range(1, 7):
        for i in range(k):
            for j in range(k):
                assert gp.path_sum_identity_check(g, n, i, j) <= 1e-12


def test_identity_checks_the_shared_layers(monkeypatch):
    # the matrix-power side is the layer recursion g_series sums, so a
    # 1e-9 relative error in those layers must break the identity
    exact = gp._next_layer
    monkeypatch.setattr(gp, "_next_layer",
                        lambda *args: exact(*args) * (1 + 1e-9))
    g = make_graph(3, seed=8)
    assert gp.path_sum_identity_check(g, 3, 0, 1) > 1e-12


def test_nonsurjective_difference_is_constant_somewhere():
    for k in (2, 3):
        g = make_graph(k, seed=30 + k)
        for n in range(1, 6):
            assert gp.nonsurjective_terms_constant_in_missed_vertex(
                g, n, 0, 0)


def test_star_import_resolves_every_export():
    import bgflight
    namespace = {}
    exec("from bgflight import *", namespace)
    assert set(bgflight.__all__) <= set(namespace)


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        gp.WeightedCollisionGraph(np.eye(2), [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        gp.WeightedCollisionGraph(np.zeros((2, 2)), [1.0, -1.0])
    g = make_graph(3, seed=0)
    assert g.r0 == pytest.approx(3 * np.max(np.abs(g.weights)))


@pytest.mark.parametrize("weights, times", [
    (np.zeros((2, 3)), [1.0, 1.0]),
    (np.zeros(4), [1.0, 1.0]),
    (np.zeros((1, 1)), [1.0]),
    (np.zeros((3, 3)), [1.0, 1.0]),
    (np.zeros((2, 2)), [[1.0, 1.0]]),
    (np.array([[0, np.inf], [1.0, 0]]), [1.0, 1.0]),
    (np.array([[0, 1.0], [complex(0, np.nan), 0]]), [1.0, 1.0]),
    (np.zeros((2, 2)), [1.0, np.inf]),
    (np.zeros((2, 2)), [np.nan, 1.0]),
], ids=["not_square", "not_a_matrix", "one_vertex", "too_few_times",
        "times_not_a_vector", "infinite_weight", "nan_weight",
        "infinite_time", "nan_time"])
def test_graph_refuses_malformed_input(weights, times):
    with pytest.raises(InvalidInputError):
        gp.WeightedCollisionGraph(weights, times)


def test_random_graph_draws_weights_then_times():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    w /= np.max(np.abs(w))
    np.fill_diagonal(w, 0)
    u = rng.uniform(0.0, 2.0, 3)
    g = gp.random_graph(np.random.default_rng(7), 3, 0.0, 2.0)
    np.testing.assert_array_equal(g.weights, w)
    np.testing.assert_array_equal(g.times, u)
