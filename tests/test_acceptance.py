"""Acceptance criteria, one test per numbered check.

Each test prints its pass/fail line (visible with -s or on failure) and
asserts both the verdict and, where stated, the runtime budget.  Check 5 is
a strict expected failure: the inequality it asserts is false, with the
counterexample documented in the check's detail string.
"""

import dataclasses

import numpy as np
import pytest

from bgflight import acceptance as acc
from bgflight import gmatrix as gm
from bgflight import kinetic as kn
from bgflight import lattice as la
from bgflight import partitions as pa
from bgflight import paths as gp
from bgflight import scattering as sc


def _report(result):
    flag = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:2d} [{flag}] ({result.seconds:.2f}s) "
          f"{result.name}: {result.detail}")
    return result


def test_criterion_01_bessel_series_equivalence():
    r = _report(acc.check_01_bessel_series_equivalence())
    assert r.passed
    assert r.seconds < 1.0


@pytest.mark.parametrize("seed", [19, 26, 27])
def test_criterion_01_reference_holds_at_large_arguments(seed):
    # these seeds draw |zeta| ~ 21, where a long-double sum of the series
    # loses more digits than the 1e-10 bound allows
    assert _report(acc.check_01_bessel_series_equivalence(seed=seed)).passed


def _k2_new_weights():
    """Monte Carlo reweighting of four two-leg chains."""
    rng = np.random.default_rng(4)
    legs = rng.normal(size=(4, 2, 3))
    legs /= np.linalg.norm(legs, axis=2, keepdims=True)
    times = rng.uniform(0.1, 1.0, (4, 2))
    model = sc.ScatteringModel(sc.GaussianPotential(), coupling=0.4,
                               born_order=1)
    a = kn.GaussianSymbol(x_center=[0.0, 0, 0], y_center=[1.0, 0, 0])
    shift = np.sum(times[..., None] * legs, axis=1)
    return kn._new_weights(a, a, shift, legs, times, model, np.ones(4))[0]


def test_criterion_01_checks_the_library_closed_form(monkeypatch):
    # a 1e-6 relative error in the k = 2 entries G is computed from must
    # show, so the closed-form side cannot be a private copy; the same
    # entries weigh the estimator's two-leg chains
    exact = gm._k2_entries
    before = _k2_new_weights()
    monkeypatch.setattr(gm, "_k2_entries", lambda *args: tuple(
        e * (1 + 1e-6) for e in exact(*args)))
    assert not acc.check_01_bessel_series_equivalence().passed
    after = _k2_new_weights()
    assert np.all(before > 0)
    assert after == pytest.approx(before * (1 + 1e-6) ** 2, rel=1e-12)


def test_criterion_02_three_way_agreement():
    r = _report(acc.check_02_three_way_agreement())
    assert r.passed
    assert r.seconds < 30.0


def test_criterion_03_path_operator_identity():
    r = _report(acc.check_03_path_operator_identity())
    assert r.passed


def test_criterion_03_checks_the_layers_g_is_summed_from(monkeypatch):
    # a 1e-9 relative error in the layer recursion G is summed with must
    # fail criterion 3
    assert gm._next_layer is gp._next_layer
    exact = gp._next_layer
    monkeypatch.setattr(gp, "_next_layer",
                        lambda *args: exact(*args) * (1 + 1e-9))
    assert not acc.check_03_path_operator_identity().passed


def test_criterion_03_checks_the_factorial_transform(monkeypatch):
    # criterion 3 sees which terms L keeps: a transform that also keeps the
    # terms with a zero exponent (the non-surjective paths) must fail it,
    # and it is the transform G is summed with
    assert gm._borel_weights is gp._borel_weights
    exact = gp._borel_weights

    def keeping(*args):
        weights = exact(*args)
        return np.where(weights == 0, 1.0, weights)

    monkeypatch.setattr(gp, "_borel_weights", keeping)
    assert not acc.check_03_path_operator_identity().passed


def test_criterion_04_bijection_suite():
    r = _report(acc.check_04_bijection_suite())
    assert r.passed


def _swap_first_two(seq):
    seq = list(seq)
    seq[:2] = seq[1::-1]
    return tuple(seq)


def _without_last_listing(exact):
    def listed(rows, k, head, tail):
        out, source = exact(rows, k, head, tail)
        last = np.append(source[1:] != source[:-1], True)[:len(source)]
        return out[~last], source[~last]
    return listed


@pytest.mark.parametrize("module, name, perturb", [
    # the singletons of the first two gaps re-inserted in each other's place
    (pa, "expand_marked",
     lambda exact: lambda red, gaps: exact(red, _swap_first_two(gaps))),
    # the halves merged into an unordered marked partition
    (pa, "merge_plus_minus",
     lambda exact: lambda plus, minus: dataclasses.replace(
         exact(plus, minus), ordered=False)),
    # the runs of the first two starters given each other's length
    (pa, "nc_expand",
     lambda exact: lambda op, mults: exact(op, _swap_first_two(mults))),
    # the first two steps of the path swapped
    (gp, "path_to_partition",
     lambda exact: lambda path: exact(_swap_first_two(path))),
    # the ordered enumerations lose the last listing of every item
    (pa, "_listed", _without_last_listing),
    # the block of n (baro) or of the mark (reduced_off) no longer last
    (pa, "_listed",
     lambda exact: lambda rows, k, head, tail: exact(rows, k, head, None)),
    # the block of 0 no longer first
    (pa, "_listed",
     lambda exact: lambda rows, k, head, tail: exact(rows, k, False, tail)),
], ids=["expand_marked", "merge_plus_minus", "nc_expand",
        "path_to_partition", "drop_last_listing", "unpin_tail",
        "unpin_head"])
def test_criterion_04_fails_on_a_perturbed_bijection(module, name, perturb,
                                                     monkeypatch):
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    assert not _report(acc.check_04_bijection_suite()).passed


@pytest.mark.xfail(strict=True, reason=(
    "the stated inequality is false: the factorial weight sum over the "
    "circ family exceeds k^(n+1)/(n+1)! already at n=4, k=2, where the 7 "
    "partitions give 4/12 + 3/24 = 11/24 > 32/120 (exhaustive "
    "counterexample); the corrected bound k^(n+1)/k! holds and is asserted "
    "by the companion test below"))
def test_criterion_05_partition_weight_bound():
    r = _report(acc.check_05_partition_weight_bound())
    assert r.passed


def test_criterion_05_corrected_weight_bound_companion():
    r = _report(acc.check_05_partition_weight_bound())
    assert not r.expected_pass
    assert "corrected bound k^(n+1)/k! holds" in r.detail


def test_criterion_06_optical_theorem():
    r = _report(acc.check_06_optical_theorem())
    assert r.passed
    assert r.seconds < 10.0


def _imag_scaled(scale):
    def perturb(exact):
        def born(*args, **kwargs):
            t = exact(*args, **kwargs)
            return t.real + 1j * scale * t.imag
        return born
    return perturb


def _first_multiplicity_plus_one(kind, k):
    def perturb(exact):
        def table(kind_, k_, n_max):
            orders, sizes, counts, mult = exact(kind_, k_, n_max)
            if (kind_, k_) == (kind, k):
                mult = mult.copy()  # the exact table is cached
                mult[0] += 1
            return orders, sizes, counts, mult
        return table
    return perturb


def _lowest_borel_weight_scaled(scale):
    def perturb(exact):
        def weights(table):
            out = exact(table)
            k, degree = table.shape[-2], table.shape[-1] - 1
            if degree == k:
                # the one monomial (1, ..., 1) of the lowest layer of G
                out = out.copy()
                out[..., (gp._monomials(k, k) == 1).all(axis=1)] *= scale
            return out
        return weights
    return perturb


def _first_moment_scaled(scale):
    def perturb(exact):
        def moments(t, vecs):
            m = exact(t, vecs).copy()
            m[0] *= scale
            return m
        return moments
    return perturb


def _rates_scaled(scale):
    def perturb(exact):
        def table(model, speeds):
            shell = exact(model, speeds)
            return dataclasses.replace(shell, rates=shell.rates * scale)
        return table
    return perturb


def _weights_scaled(scale):
    def perturb(exact):
        def weights(*args):
            w, shares, tails = exact(*args)
            return w * scale, shares, tails
        return weights
    return perturb


# (criterion, module, library function, perturbation): each criterion must
# fail at its own seed, size and tolerance when the code it guards is wrong
@pytest.mark.parametrize("check, module, name, perturb", [
    # one factorial-transform value that the series sums G with, off by
    # 1e-7 relative; criterion 3 checks the transform of the paths module
    (acc.check_02_three_way_agreement, gm, "_borel_weights",
     _lowest_borel_weight_scaled(1 + 1e-7)),
    # the moment of the empty axis set, which the contour weighs with
    # adj(-W), off by 1e-8 relative
    (acc.check_02_three_way_agreement, gm, "_moments",
     _first_moment_scaled(1 + 1e-8)),
    # Im T2 off by 1e-3 relative; criterion 6 reads it at |y| = 1 only
    (acc.check_06_optical_theorem, sc, "born_term_2", _imag_scaled(1 + 1e-3)),
    # one partition miscounted in the lowest order of a partition sum
    (acc.check_08_combinatorial_vs_analytic, kn, "_comb_table",
     _first_multiplicity_plus_one("diag", 3)),
    (acc.check_08_combinatorial_vs_analytic, kn, "_comb_table",
     _first_multiplicity_plus_one("off", 2)),
    # the collision rate the chains draw their flight times at, 5% high;
    # the criterion's reference rate is the Born-1 closed form
    (acc.check_09_sampler_calibration, sc.ScatteringModel, "shell_table",
     _rates_scaled(1.05)),
    # the limit-process weights of the two-leg chains, 20% high
    (acc.check_11_estimator_consistency, kn, "_new_weights",
     _weights_scaled(1.2)),
], ids=["02-borel_weights-degree-k", "02-moments-empty-set",
        "06-born_term_2-imag", "08-comb_table-diag-k3",
        "08-comb_table-off-k2", "09-shell_table-rates",
        "11-new_weights-scale"])
def test_criterion_fails_on_a_perturbed_library(check, module, name, perturb,
                                                monkeypatch):
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    assert not _report(check()).passed


def test_criterion_07_density_identities_positivity():
    r = _report(acc.check_07_density_identities_positivity())
    assert r.passed


def test_criterion_07_checks_the_series_rows(monkeypatch):
    # a 1e-6 relative error in the series rows that g_rows returns above
    # k = 2 (the rows the densities and the estimator read) must show
    exact = gm.g_series_batch

    def scaled(*args, **kwargs):
        out = exact(*args, **kwargs)
        out.entries = out.entries * (1 + 1e-6)
        return out

    monkeypatch.setattr(gm, "g_series_batch", scaled)
    assert not acc.check_07_density_identities_positivity().passed


def test_criterion_08_combinatorial_vs_analytic():
    r = _report(acc.check_08_combinatorial_vs_analytic())
    assert r.passed


def test_criterion_09_sampler_calibration():
    r = _report(acc.check_09_sampler_calibration())
    assert r.passed


def test_criterion_10_lattice_statistics():
    r = _report(acc.check_10_lattice_statistics())
    assert r.passed
    assert r.seconds < 60.0


@pytest.mark.parametrize("shift, fold", [
    ((0.5, 0.5), 1), ((1 / 3, 0.0), 1),
    # angles folded onto half the circle at the headline shift: the gap law
    # is untouched, so only the angle part of the criterion can see it
    (None, 2),
], ids=["shift_half_half", "shift_third_zero", "theta_half_circle"])
def test_criterion_10_fails_on_a_perturbed_lattice(shift, fold, monkeypatch):
    exact = la.generate

    def perturbed(window, *args, **kwargs):
        if shift is not None:
            window = dataclasses.replace(window, shift=shift)
        sample = exact(window, *args, **kwargs)
        return la.PointSample(sample.lam, sample.theta / fold)

    monkeypatch.setattr(la, "generate", perturbed)
    assert not _report(acc.check_10_lattice_statistics()).passed


def test_criterion_11_estimator_consistency():
    r = _report(acc.check_11_estimator_consistency())
    assert r.passed
