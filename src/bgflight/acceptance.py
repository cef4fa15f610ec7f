"""The numbered acceptance checks, shared by the test suite and the CLI.

Each check returns a CheckResult with the measured quantity in ``detail``.
Check 5 carries ``expected_pass = False``: the factorial weight-bound
inequality it states is falsified by exhaustive enumeration (first at
n = 4, k = 2); the check reports the counterexample and verifies the
corrected bound k^(n+1)/k! alongside.  Everything is deterministic: all
randomness below is seeded.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import gmatrix as gm
from . import kinetic as kn
from . import lattice as la
from . import partitions as pa
from . import paths as gp
from . import scattering as sc

SPEED = 1.0
DIM = 3


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    expected_pass: bool = True

    @property
    def ok(self) -> bool:
        """True when reality matches expectation."""
        return self.passed == self.expected_pass


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        number, name, passed, detail, expected = fn(*args, **kwargs)
        return CheckResult(number, name, passed, detail,
                           time.perf_counter() - start, expected)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _unit_disk(rng):
    return math.sqrt(rng.uniform(0, 1)) * np.exp(2j * math.pi
                                                 * rng.uniform(0, 1))


# ---------------------------------------------------------------------------

def _k2_series_abs2(u1, u2, t01, t10, terms):
    """|s_d|^2 and |s_o|^2 of the k = 2 power series truncated at ``terms``
    terms, summed in 40-digit decimal from the exact values of the doubles:

        s_d = sum_{m=1}^{terms} a^m u1^m u2^(m-1) / (m! (m-1)!),
        s_o = -2 i pi t01 sum_{m=0}^{terms-1} (a u1 u2)^m / (m!)^2,

    with a = -4 pi^2 t01 t10."""
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal(math.pi)

        def mul(p, q):
            return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

        def abs2(p):
            return p[0] * p[0] + p[1] * p[1]

        c01 = (Decimal(t01.real), Decimal(t01.imag))
        c10 = (Decimal(t10.real), Decimal(t10.imag))
        a = tuple(-4 * pi * pi * c for c in mul(c01, c10))
        x = tuple(c * Decimal(u1) * Decimal(u2) for c in a)
        # term = x^m / (m!)^2; s_d / (a u1) sums term / (m + 1)
        term = (Decimal(1), Decimal(0))
        s_d, s_o = [Decimal(0)] * 2, [Decimal(0)] * 2
        for m in range(terms):
            for i in range(2):
                s_o[i] += term[i]
                s_d[i] += term[i] / (m + 1)
            term = tuple(c / ((m + 1) * (m + 1)) for c in mul(term, x))
        return (float(abs2(a) * Decimal(u1) ** 2 * abs2(s_d)),
                float(4 * pi * pi * abs2(c01) * abs2(s_o)))


@_timed
def check_01_bessel_series_equivalence(seed=101, draws=100, terms=50,
                                       rtol=1e-10):
    """One-collision densities: the library's k = 2 closed form, through
    kinetic.rho_new_from_values for (0, 0) and (0, 1), against the explicit
    k = 2 power series truncated at 50 terms and summed in 40-digit decimal
    (the unit-modulus transition draws push the Bessel argument to ~8 pi,
    where the alternating series loses ~8 digits to cancellation in double
    and, near |zeta| = 21, ~5 in long double)."""
    rng = np.random.default_rng(seed)
    sig = 0.3
    worst = 0.0
    for _ in range(draws):
        u1, u2 = rng.uniform(0, 2.0, 2) + 1e-12
        t01, t10 = _unit_disk(rng), _unit_disk(rng)
        damping = math.exp(-(u1 + u2) * sig)
        tv = np.array([[0, t01], [t10, 0]])
        rho_d = kn.rho_new_from_values(0, 0, [u1, u2], tv, [sig, sig],
                                       SPEED, DIM).value
        rho_o = kn.rho_new_from_values(0, 1, [u1, u2], tv, [sig, sig],
                                       SPEED, DIM).value
        abs2_d, abs2_o = _k2_series_abs2(u1, u2, t01, t10, terms)
        for a, b in ((rho_d, damping * abs2_d), (rho_o, damping * abs2_o)):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return (1, "bessel/series equivalence", worst <= rtol,
            f"max relative deviation {worst:.3e} over {draws} draws", True)


@_timed
def check_02_three_way_agreement(seed=202, draws=100, tol=1e-8):
    """Generating matrix: series vs contour vs closed form (k = 2) and
    series vs contour (k = 3, times in [0, 1])."""
    rng = np.random.default_rng(seed)
    worst2 = worst3 = 0.0
    for _ in range(draws):
        g = gp.random_graph(rng, 2, 0.0, 2.0)
        (u1, u2), w = g.times, g.weights
        ser = gm.g_series(g, max_order=80).entries
        con = gm.g_contour(g, nodes=256).entries
        bes = gm.g_bessel_k2(u1, u2, w[0, 1], w[1, 0]).entries
        worst2 = max(worst2, float(np.max(np.abs(ser - con))),
                     float(np.max(np.abs(ser - bes))))
        g3 = gp.random_graph(rng, 3, 0.0, 1.0)
        ser3 = gm.g_series(g3, max_order=60).entries
        con3 = gm.g_contour(g3, nodes=64).entries
        worst3 = max(worst3, float(np.max(np.abs(ser3 - con3))))
    passed = worst2 <= tol and worst3 <= tol
    return (2, "three-way matrix agreement", passed,
            f"k=2 max dev {worst2:.3e}, k=3 max dev {worst3:.3e}", True)


@_timed
def check_03_path_operator_identity(seed=303, tol=1e-12):
    """Transformed path sums equal transformed matrix powers for all
    k <= 4, n <= 6."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in (2, 3, 4):
        g = gp.random_graph(rng, k)
        for _, _, _, res in gp.path_sum_identity_residuals(g, 6):
            worst = max(worst, res)
    return (3, "path/matrix-power identity", worst <= tol,
            f"max residual {worst:.3e} over k<=4, n<=6", True)


def _listing_faults(tag, listed, unordered, unorder, listings, pinned):
    """How the ordered enumeration ``listed`` breaks its conventions: it
    must hold ``listings`` listings of each item of ``unordered`` (by
    ``unorder``) and of nothing else, none twice, each one ``pinned``."""
    faults = []
    if len(set(listed)) != len(listed):
        faults.append(f"duplicate listing {tag}")
    if Counter(map(unorder, listed)) != dict.fromkeys(unordered, listings):
        faults.append(f"listing count {tag}")
    if not all(map(pinned, listed)):
        faults.append(f"pinned block {tag}")
    return faults


@_timed
def check_04_bijection_suite(n_max=7):
    """Round trips of the three partition bijections and the path map over
    every instance with n <= 7, the listing conventions of the ordered
    enumerations they draw from (k!, (k-1)! or (k-2)! listings per item,
    the block of 0 first, the block of n or of the mark last, no listing
    twice), plus the two-block parity counts."""
    failures = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 2):
            for mp in pa.enumerate_marked(n, k):
                red, gapsv = pa.reduce_marked(mp)
                if pa.expand_marked(red, gapsv) != mp:
                    failures.append(f"reduce n={n}")
            for cls in ("reduced_diag", "reduced_off"):
                if cls == "reduced_off" and k < 2:
                    continue
                off = cls == "reduced_off"
                listed = pa.enumerate_marked(n, k, marked_class=cls,
                                             ordered=True)
                failures += _listing_faults(
                    f"{cls} n={n} k={k}", listed,
                    pa.enumerate_marked(n, k, marked_class=cls),
                    lambda mp: pa.MarkedPartition(mp.mark, mp.blocks),
                    math.factorial(k - 1 - off),
                    lambda mp: mp.labels[0] == 0 and (
                        not off or mp.labels[mp.mark] == k - 1))
                for mp in listed:
                    plus, minus = pa.split_plus_minus(mp)
                    if pa.merge_plus_minus(plus, minus) != mp:
                        failures.append(f"split n={n}")
        for k in range(1, min(n + 2, 5)):
            for fam, pins in (("circ", 1), ("baro", 2)):
                listed = pa.enumerate_partitions(n, k, family=fam,
                                                 ordered=True)
                failures += _listing_faults(
                    f"{fam} n={n} k={k}", listed,
                    pa.enumerate_partitions(n, k, family=fam),
                    pa.OrderedPartition.unordered,
                    math.factorial(max(k - pins, 0)),
                    pa.OrderedPartition.is_baro_ordered if fam == "baro"
                    else lambda op: op.labels[0] == 0)
                for op in listed:
                    red, mults = pa.nc_reduce(op)
                    if pa.nc_expand(red, mults) != op:
                        failures.append(f"nc n={n}")
            listed = pa.enumerate_partitions(n, k, family="all",
                                             ordered=True)
            failures += _listing_faults(
                f"all n={n} k={k}", listed, pa.enumerate_partitions(n, k),
                pa.OrderedPartition.unordered, math.factorial(k),
                lambda op: True)
            for op in listed:
                if not op.is_nonconsecutive():
                    continue
                if gp.path_to_partition(gp.partition_to_path(op)) != op:
                    failures.append(f"path n={n}")
    for n in range(1, 11):
        n_circ = len(pa.enumerate_partitions(n, 2, family="circ_nc"))
        n_baro = len(pa.enumerate_partitions(n, 2, family="baro_nc"))
        if n_circ != (1 if n >= 2 and n % 2 == 0 else 0):
            failures.append(f"parity circ n={n}")
        if n_baro != (1 if n % 2 == 1 else 0):
            failures.append(f"parity baro n={n}")
    return (4, "bijection suite", not failures,
            "all round trips exact and all listings as stated" if not failures
            else f"{len(failures)} failures: {failures[:3]}", True)


@_timed
def check_05_partition_weight_bound(n_max=8):
    """Factorial weight bound as stated: sum over the circ family of
    prod 1/|F_i|! < k^(n+1)/(n+1)! for n <= 8, k <= n.

    The statement is false (first counterexample n = 4, k = 2); the check
    reports it honestly and verifies the corrected bound k^(n+1)/k!."""
    violations = []
    corrected_ok = True
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            lhs, rhs = pa.weight_bound_pair(n, k)
            if not lhs < rhs:
                violations.append((n, k, lhs, rhs))
            if not lhs < k ** (n + 1) / math.factorial(k):
                corrected_ok = False
    passed = not violations
    strict = [v for v in violations if v[2] > v[3] * (1 + 1e-12)]
    first = strict[0] if strict else violations[0] if violations else None
    detail = "holds exhaustively" if passed else (
        f"{len(violations)} violations ({len(strict)} strict), e.g. "
        f"(n,k)={first[:2]} with lhs={first[2]:.4f} > rhs={first[3]:.4f}; "
        f"corrected bound k^(n+1)/k! {'holds' if corrected_ok else 'fails'}")
    return (5, "partition weight bound (as stated)", passed, detail, False)


@_timed
def check_06_optical_theorem(lam=0.05, tol=1e-3):
    """Second-Born imaginary part against the first-Born cross section."""
    model = sc.ScatteringModel(sc.GaussianPotential(), coupling=lam,
                               born_order=2)
    res = model.optical_residual(np.array([1.0, 0.0, 0.0]))
    ratio = abs(res) / lam ** 2
    return (6, "optical theorem at second order", ratio <= tol,
            f"|residual|/lambda^2 = {ratio:.3e}", True)


def _born1(lam):
    return sc.ScatteringModel(sc.GaussianPotential(), coupling=lam,
                              born_order=1)


def _draw_tvals(rng, k, lam=0.1):
    dirs = rng.normal(size=(k, DIM))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return kn._t_table(_born1(lam), SPEED * dirs)


@_timed
def check_07_density_identities_positivity(seed=707, swaps=200,
                                           bulk=10**4, n_max=12):
    """Index-swap identities to 1e-12 and non-negativity of the limit
    densities on random on-shell draws for k = 2, 3."""
    rng = np.random.default_rng(seed)
    sig = [0.2] * 3
    worst_swap = 0.0
    for _ in range(swaps):
        u = rng.uniform(0.01, 2.0, 2)
        tv = _draw_tvals(rng, 2)
        r11 = kn.rho_new_from_values(1, 1, u, tv, sig[:2], SPEED, DIM).value
        r00s = kn.rho_new_from_values(0, 0, u[::-1], tv[::-1, ::-1].copy(),
                                      sig[:2], SPEED, DIM).value
        r10 = kn.rho_new_from_values(1, 0, u, tv, sig[:2], SPEED, DIM).value
        r01s = kn.rho_new_from_values(0, 1, u[::-1], tv[::-1, ::-1].copy(),
                                      sig[:2], SPEED, DIM).value
        scale = max(r11, r00s, 1e-300)
        worst_swap = max(worst_swap, abs(r11 - r00s) / scale)
        scale = max(r10, r01s, 1e-300)
        worst_swap = max(worst_swap, abs(r10 - r01s) / scale)
    # bulk positivity, k = 2 via the closed form, the library's T at cosang
    u1, u2 = rng.uniform(0.0, 2.0, (2, bulk))
    cosang = rng.uniform(-1, 1, bulk)
    partners = SPEED * np.stack(
        [cosang, np.sqrt(1 - cosang ** 2), np.zeros(bulk)], axis=1)
    w01 = -2j * math.pi * _born1(0.1).t_matrix_batch(
        np.array([SPEED, 0.0, 0.0]), partners)
    g00, g01, g10, g11 = gm._k2_entries(u1, u2, w01, w01)
    vals2 = np.abs(np.stack([g00, g01, g10, g11])) ** 2 \
        * np.exp(-(u1 + u2) * 0.2)
    ok2 = bool(np.all(np.isfinite(vals2)) and np.all(vals2 >= 0))
    # bulk positivity, k = 3 via the batched partition sum; consistency of
    # the evaluator itself is pinned by check 8 and a contour spot check here
    dirs = rng.normal(size=(bulk, 3, DIM))
    dirs /= np.linalg.norm(dirs, axis=2)[..., None]
    # lambda = 0.05 keeps the n_max truncation tail far below the spot check
    tv3 = kn._t_table(_born1(0.05), SPEED * dirs)
    wmat = -2j * math.pi * tv3
    u3 = rng.uniform(0.0, 1.5, (bulk, 3))
    amp, amp_last = kn._comb_amplitudes("diag", u3, wmat, n_max)
    vals3 = np.abs(amp) ** 2 * np.exp(-np.sum(u3, axis=1) * 0.2)
    ok3 = bool(np.all(np.isfinite(vals3)) and np.all(vals3 >= 0))
    # evaluator spot checks against the series and contour routes, inside
    # the truncation tail budget of the path sum (plus, for the contour,
    # its own reported quadrature error and absolute noise floor)
    spot_ok = True
    spot_worst = 0.0
    for idx in range(0, bulk, bulk // 25):
        damp_shell = math.exp(-float(np.sum(u3[idx])) * 0.2) * SPEED
        tail = 5 * abs(amp_last[idx]) + 1e-14
        ref = kn.rho_new_from_values(0, 0, u3[idx], tv3[idx], [0.2] * 3,
                                     SPEED, DIM).value
        if abs(ref - vals3[idx]) > (2 * abs(amp[idx]) + tail) * tail \
                * damp_shell:
            spot_ok = False
        spot_worst = max(spot_worst,
                         abs(ref - vals3[idx]) / max(ref, 1e-300))
        graph = gp.WeightedCollisionGraph(wmat[idx], u3[idx])
        cont = gm.g_contour(graph, nodes=64)
        eps = tail + 10 * cont.quad_error + 1e-13
        dev = abs(abs(cont.entry(0, 0)) ** 2 * damp_shell - vals3[idx])
        if dev > (2 * abs(cont.entry(0, 0)) + eps) * eps * damp_shell:
            spot_ok = False
    passed = worst_swap <= 1e-12 and ok2 and ok3 and spot_ok
    return (7, "density identities and positivity", passed,
            f"max swap dev {worst_swap:.2e}; {2 * bulk} draws >= 0; "
            f"spot rel dev {spot_worst:.2e} within truncation budget: "
            f"{spot_ok}", True)


@_timed
def check_08_combinatorial_vs_analytic(seed=808, draws=100, rtol=1e-10):
    """Truncated partition sums against the closed/contour evaluations."""
    rng = np.random.default_rng(seed)
    sig2 = [0.25, 0.25]
    worst2 = 0.0
    for _ in range(draws):
        u = rng.uniform(0.01, 2.0, 2)
        tv = _draw_tvals(rng, 2)
        for kind, (ell, m) in (("diag", (0, 0)), ("off", (0, 1))):
            ref = kn.rho_new_from_values(ell, m, u, tv, sig2, SPEED, DIM)
            com = kn.rho_combinatorial(kind, u, tv, sig2, SPEED, DIM,
                                       n_max=20)
            scale = max(ref.value, com.value, 1e-300)
            worst2 = max(worst2, abs(ref.value - com.value) / scale)
    # k = 3 against the contour route; the tolerance combines the stated
    # combinatorial truncation tail with the contour's reported quadrature
    # error (tiny amplitudes sit at the contour's absolute noise floor):
    # |delta(|amp|^2)| <= (2|amp| + eps) eps * damping * shell
    worst3 = 0.0
    tail3 = 0.0
    margin_ok = True
    for _ in range(30):
        u = rng.uniform(0.01, 1.2, 3)
        tv = _draw_tvals(rng, 3, lam=0.1)
        w = -2j * math.pi * tv
        for kind, (ell, m) in (("diag", (0, 0)), ("off", (0, 2))):
            graph = gp.WeightedCollisionGraph(w, u)
            cont = gm.g_contour(graph, nodes=64)
            damp_shell = math.exp(-0.25 * float(np.sum(u))) * SPEED
            ref = abs(cont.entry(ell, m)) ** 2 * damp_shell
            com = kn.rho_combinatorial(kind, u, tv, [0.25] * 3, SPEED, DIM,
                                       n_max=14, tail_tol=np.inf)
            dev = abs(ref - com.value)
            eps = 5 * com.tail_estimate + 10 * cont.quad_error + 1e-13
            bound = (2 * math.sqrt(com.amplitude) + eps) * eps * damp_shell
            if dev > bound:
                margin_ok = False
            scale = max(ref, com.value, 1e-300)
            worst3 = max(worst3, dev / scale)
            tail3 = max(tail3, com.tail_estimate)
    passed = worst2 <= rtol and margin_ok
    return (8, "combinatorial vs analytic densities", passed,
            f"k=2 max rel dev {worst2:.2e}; k=3 max rel dev {worst3:.2e} "
            f"within tail+quadrature budget (tail <= {tail3:.1e})", True)


@_timed
def check_09_sampler_calibration(seed=909, n_chains=10**5):
    """Flight-time law and zero-collision frequency of the chain sampler."""
    model = sc.ScatteringModel(sc.GaussianPotential(), coupling=0.5,
                               born_order=1)
    y0 = np.array([1.0, 0.0, 0.0])
    # the Born-1 closed form, not model.sigma_tot: that reads the shell
    # table the sampler draws its flight times from
    sig = float(sc.sigma_tot_born1_speeds(model.potential, model.coupling,
                                          np.array([1.0]))[0])
    horizon = 2.0 / sig
    block = kn.sample_lb_block(horizon, np.tile(y0, (n_chains, 1)), model,
                               seed, np.arange(n_chains), max_legs=2)
    x = np.sort(block.times[(block.legs > 1) | block.truncated, 0])
    n = x.size
    ks = la.ks_distance((1 - np.exp(-sig * x))
                        / (1 - math.exp(-sig * horizon)))
    ks_ok = ks <= 1.63 / math.sqrt(n)  # alpha = 0.01
    horizon0 = 1.0 / sig
    n0 = n_chains // 2
    block = kn.sample_lb_block(horizon0, np.tile(y0, (n0, 1)), model,
                               seed + 1, np.arange(n0), max_legs=2)
    zero = int(np.sum((block.legs == 1) & ~block.truncated))
    p0 = math.exp(-1.0)
    dev = abs(zero / n0 - p0) / math.sqrt(p0 * (1 - p0) / n0)
    passed = ks_ok and dev <= 3.0
    return (9, "chain sampler calibration", passed,
            f"KS {ks:.4f} (n={n}, threshold {1.63 / math.sqrt(n):.4f}); "
            f"zero-collision deviation {dev:.2f} sigma", True)


@_timed
def check_10_lattice_statistics():
    """Window point count, gap law, and angle statistics of the shifted
    square lattice at the headline window."""
    window = la.LatticeWindow(r_max=math.pi * 500 ** 2, width=1e4)
    sample = la.generate(window)
    count_ok = abs(sample.count - 1e4) <= 0.03 * 1e4
    report = la.joint_test(sample)
    passed = (count_ok and report["ks_stat"] <= 0.02 and report["pass_ks"]
              and report["pass_theta_uniform"]
              and report["pass_independence"])
    return (10, "lattice-point statistics", passed,
            f"count {sample.count}; KS {report['ks_stat']:.4f} "
            f"(p={report['ks_p']:.3f}); theta p={report['theta_p']:.3f}; "
            f"independence p={report['independence_p']:.3f}", True)


@_timed
def check_11_estimator_consistency(seed=1111, n_samples=20000):
    """Monte Carlo pairing against the deterministic quadrature for both
    series at k_max = 2."""
    model = sc.ScatteringModel(sc.GaussianPotential(), coupling=0.4,
                               born_order=1)
    a = kn.GaussianSymbol(x_center=[0.0, 0, 0], y_center=[1.0, 0, 0],
                          x_width=1.2, y_width=0.8)
    b = kn.GaussianSymbol(x_center=[0.9, 0.2, 0], y_center=[0.9, 0.1, 0],
                          x_width=1.0, y_width=0.9)
    t = 1.0
    q1 = kn.pair_quadrature("lb", a, b, t, model, k=1, y_nodes=16)
    results = []
    for series in ("lb", "new"):
        q2 = kn.pair_quadrature(series, a, b, t, model, k=2,
                                y_nodes=12, u_nodes=16, sphere=(10, 20))
        est = kn.pair_estimate(series, a, b, t, 2, n_samples, model,
                               seed=seed)
        dev = abs(est.value - (q1 + q2)) / est.stderr
        results.append((series, dev, est.value, q1 + q2))
    passed = all(dev <= 3.0 for _, dev, _, _ in results)
    detail = "; ".join(f"{s}: {dev:.2f} sigma (mc {mc:.3e} vs quad {qd:.3e})"
                       for s, dev, mc, qd in results)
    return (11, "estimator consistency", passed, detail, True)


ALL_CHECKS = [
    check_01_bessel_series_equivalence,
    check_02_three_way_agreement,
    check_03_path_operator_identity,
    check_04_bijection_suite,
    check_05_partition_weight_bound,
    check_06_optical_theorem,
    check_07_density_identities_positivity,
    check_08_combinatorial_vs_analytic,
    check_09_sampler_calibration,
    check_10_lattice_statistics,
    check_11_estimator_consistency,
]
