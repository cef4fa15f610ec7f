import math

import numpy as np
import pytest

from bgflight import lattice as la
from bgflight.errors import CapacityError, InvalidInputError


def test_headline_window_count():
    w = la.LatticeWindow(r_max=math.pi * 500 ** 2, width=1e4)
    s = la.generate(w)
    assert abs(s.count - 1e4) < 300


def test_origin_window_includes_zero():
    w = la.LatticeWindow(r_max=0.1, width=0.1, shift=(0.0, 0.0))
    s = la.generate(w)
    assert s.count >= 1
    assert s.lam[0] == 0.0


def test_doubling_width_doubles_count():
    w1 = la.LatticeWindow(r_max=math.pi * 300 ** 2, width=4000.0)
    w2 = la.LatticeWindow(r_max=math.pi * 300 ** 2, width=8000.0)
    c1, c2 = la.generate(w1).count, la.generate(w2).count
    assert abs(c2 - 2 * c1) < 6 * math.sqrt(c2)


def test_exact_enumeration_matches_naive():
    for rmax, width, shift in ((math.pi * 25 ** 2, 150.0, la.DEFAULT_SHIFT),
                               (math.pi * 12 ** 2, 80.0, (0.25, 0.75)),
                               (500.0, 499.0, (0.1, 0.9))):
        w = la.LatticeWindow(r_max=rmax, width=width, shift=shift)
        fast, slow = la.generate(w), la.generate_naive(w)
        assert fast.count == slow.count
        assert np.allclose(fast.lam, slow.lam)
        assert np.allclose(fast.theta, slow.theta)


def test_generate_deterministic():
    w = la.LatticeWindow(r_max=math.pi * 100 ** 2, width=2000.0)
    a, b = la.generate(w), la.generate(w)
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.theta, b.theta)


def test_skew_basis_unimodular():
    basis = np.array([[1.0, 0.5], [0.0, 1.0]])
    w = la.LatticeWindow(r_max=math.pi * 20 ** 2, width=100.0, basis=basis)
    fast, slow = la.generate(w), la.generate_naive(w)
    assert fast.count == slow.count and np.allclose(fast.lam, slow.lam)
    with pytest.raises(InvalidInputError):
        la.LatticeWindow(r_max=10.0, width=1.0,
                         basis=np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_rows_keep_the_tie_order_of_the_naive_route():
    # at shift (0, 0) every lambda is pi times an integer, so both routes
    # compute it bit for bit; most points tie with a neighbour, and the
    # stable sort must see them in the same order (rows ascending, n2
    # ascending) as the box scan
    w = la.LatticeWindow(r_max=math.pi * 40 ** 2, width=900.0,
                         shift=(0.0, 0.0))
    fast, slow = la.generate(w), la.generate_naive(w)
    assert fast.count == 872
    assert int(np.sum(np.diff(fast.lam) == 0)) == 793
    assert np.array_equal(fast.lam, slow.lam)
    assert np.array_equal(fast.theta, slow.theta)


def test_point_cap():
    with pytest.raises(CapacityError):
        la.generate(la.LatticeWindow(r_max=math.pi * 500 ** 2, width=1e4),
                    cap=100)


@pytest.mark.parametrize("window, count", [
    # the twelve points of norm 5 at shift (0, 0), in a window of width 1
    (la.LatticeWindow(r_max=math.pi * 25 + 0.5, width=1.0, shift=(0.0, 0.0)),
     12),
    (la.LatticeWindow(r_max=785398.16, width=1e4), 10011),
], ids=["norm_five", "headline"])
def test_point_cap_counts_the_summed_row_ranges(window, count):
    # the ranges hold exactly the window's points: a cap one below their
    # summed length is refused, a cap equal to it is not
    assert la.generate(window, cap=count).count == count
    with pytest.raises(CapacityError, match=f"more than {count - 1} points"):
        la.generate(window, cap=count - 1)


def test_window_validation():
    with pytest.raises(InvalidInputError):
        la.LatticeWindow(r_max=1.0, width=2.0)


# ---------------------------------------------------------------------------
# gaps and statistics
# ---------------------------------------------------------------------------

def test_gap_normalisation():
    w = la.LatticeWindow(r_max=math.pi * 500 ** 2, width=1e4)
    g, th = la.gaps(la.generate(w))
    assert np.all(g >= 0)
    assert abs(float(np.mean(g)) - 1.0) < 0.05
    assert th.size == g.size


def test_gaps_need_two_points():
    with pytest.raises(InvalidInputError):
        la.gaps(la.PointSample(np.array([1.0]), np.array([0.5])))


def test_headline_window_statistics():
    w = la.LatticeWindow(r_max=math.pi * 500 ** 2, width=1e4)
    rep = la.joint_test(la.generate(w))
    assert rep["ks_stat"] <= 0.02
    assert rep["pass_ks"] and rep["pass_theta_uniform"]
    assert rep["pass_independence"]


def test_poisson_reference_self_consistent():
    s = la.poisson_reference(1.0, 10 ** 4, seed=5)
    rep = la.joint_test(s)
    assert rep["pass_ks"] and rep["pass_theta_uniform"]
    assert rep["pass_independence"]
    # intensity scaling of the mean gap
    s2 = la.poisson_reference(4.0, 10 ** 4, seed=5)
    g2, _ = la.gaps(s2)
    assert float(np.mean(g2)) == pytest.approx(0.25, abs=0.02)


def test_poisson_reference_seeded():
    a = la.poisson_reference(1.0, 500, seed=11)
    b = la.poisson_reference(1.0, 500, seed=11)
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.theta, b.theta)


def test_rigid_sequence_rejected_by_ks():
    lam = np.arange(5000, dtype=float)
    theta = np.mod(np.sqrt(2.0) * np.arange(5000), 1.0)
    rep = la.joint_test(la.PointSample(lam, theta))
    assert not rep["pass_ks"]


def test_unit_density_across_radii():
    for r in (100, 300, 500):
        w = la.LatticeWindow(r_max=math.pi * r ** 2, width=5000.0)
        assert la.generate(w).count / 5000.0 == pytest.approx(1.0, abs=0.03)


def test_joint_histogram_shapes():
    s = la.poisson_reference(1.0, 5000, seed=1)
    h, ge, te = la.histogram2d(s, theta_bins=10)
    assert h.shape == (len(ge) - 1, 10)
    # density integrates to one
    areas = np.outer(np.diff(ge), np.diff(te))
    assert float(np.sum(h * areas)) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("bins", [1, 0, -3])
def test_bin_counts_below_2_refused(bins):
    s = la.poisson_reference(1.0, 2000, seed=1)
    for call in (lambda: la.histogram2d(s, theta_bins=bins),
                 lambda: la.joint_test(s, theta_bins=bins),
                 lambda: la.joint_test(s, gap_bins=bins)):
        with pytest.raises(InvalidInputError, match="must be at least 2"):
            call()


def test_ks_helper_on_known_input():
    rng = np.random.default_rng(2)
    d, p = la.ks_exponential(rng.exponential(1.0, 20000))
    assert d < 0.015 and p > 0.01
    d2, p2 = la.ks_exponential(rng.uniform(0, 2, 20000))
    assert p2 < 1e-6


@pytest.mark.parametrize("make", [
    lambda: la.LatticeWindow(r_max=10.0, width=1.0, basis=np.eye(3)),
    lambda: la.LatticeWindow(r_max=10.0, width=1.0, basis=[1.0, 0.0]),
    lambda: la.PointSample([1.0, 2.0, 3.0], [0.1, 0.2]),
    lambda: la.PointSample([1.0, 3.0, 2.0], [0.1, 0.2, 0.3]),
    lambda: la.PointSample([1.0, 2.0], [0.1, 1.0]),
    lambda: la.PointSample([1.0, 2.0], [-0.1, 0.5]),
], ids=["basis_3x3", "basis_vector", "lengths_differ", "lambda_unsorted",
        "theta_one", "theta_negative"])
def test_records_refuse_invalid_input(make):
    with pytest.raises(InvalidInputError):
        make()
