"""Job lists for the benchmark workloads, drawn from the benchmark seed.

Every job is one bgflight CLI invocation: a command, a JSON config and a
worker count.  A workload is an endless sequence of rounds.  Round ``i`` of
seed ``s`` is a pure function of (workload, s, i), so two runs with the same
seed execute the same jobs in the same order, however many rounds each run
has time for.  Jobs inside a round share their inputs where the output
checks compare jobs with each other (lb against new, one worker against two,
the k = 4 contour against the k = 4 series).  The seed moves the physical
inputs; the Monte Carlo chain seed depends on the round only (``_mc_seed``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = {
    "mc_born1": (
        "simulate at Born order 1 (lb and new at k_max 2 and 3, 1 and 2 "
        "threads): per-chain Python in kinetic and the k = 3 G series "
        "dominate; scattering is closed-form and cheap"),
    "mc_born2": (
        "simulate at Born order 2, k_max 2, both series: every chain pays a "
        "cold sigma_tot, a 513-point bound scan and T2 rejection batches, so "
        "scattering dominates"),
    "oneshot": (
        "single large calls: gmatrix at k = 2, 3, 4 (contour and series), "
        "scatter sigma/tmat/optical at Born order 2-3, lattice, partitions, "
        "paths; k = 4 contour uses 32 nodes because 256^4 never finishes"),
}

# chains per simulate job.  The k_max 3 jobs are small because each chain
# that reaches three legs costs about 100 ms of G series.  The k_max 2 jobs
# are small so that a run holds about eighteen of each kind: job_p50_s is the
# median of the new k_max 2 one-worker jobs, and a median of a handful of
# jobs moves by a tenth from run to run.
MC_BORN1_CHAINS = {2: 250, 3: 15}
MC_BORN2_CHAINS = 2
LIGHT_CHAINS = {2: 60, 3: 4}

# the headline lattice window (README); fixed, since a seeded window would
# sometimes land on a statistical false alarm of the joint test
LATTICE_WINDOW = {"r_max": 785398.16, "width": 10000}
# fixed as well: the enumeration's cost swings 100-fold across small n, k
# and families, which would make the job mix depend on the seed
PARTITIONS = {"n": 9, "k": 3, "family": "all"}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``kind`` is a stable label used to group jobs
    across rounds; ``chains`` counts Monte Carlo chains (0 for other
    commands)."""

    kind: str
    command: str
    config: dict = field(hash=False)
    threads: int = 1
    chains: int = 0

    def argv(self, config_path, out_dir):
        return [self.command, "--config", str(config_path),
                "--out", str(out_dir), "--threads", str(self.threads)]


def _rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _jitter(rng, values, half):
    return [round(v + rng.uniform(-half, half), 6) for v in values]


def _observables(rng):
    """The README's Gaussian observables a and b with their position centres
    moved.  The momentum profiles stay put: they set the speeds of the
    proposal chains, and so how many legs and rejection batches a chain
    costs."""
    a = {"x_center": _jitter(rng, [0.0, 0.0, 0.0], 0.2),
         "y_center": [1.0, 0.0, 0.0], "x_width": 1.2, "y_width": 0.8}
    b = {"x_center": _jitter(rng, [0.9, 0.2, 0.0], 0.2),
         "y_center": [0.9, 0.1, 0.0]}
    return a, b


def _simulate(kind, base, series, k_max, chains, threads):
    cfg = dict(base, series=series, k_max=k_max, n_samples=chains)
    return Job(kind, "simulate", cfg, threads=threads, chains=chains)


def _mc_seed(index):
    """Chain seed of round ``index``, the same for every benchmark seed
    (common random numbers).  In mc_born1 a chain that reaches three legs
    costs ~100 ms of G series against ~0.3 ms for the others, and a run
    holds only a few dozen of them, so independent chain draws would make
    the count, and with it the timing, differ from seed to seed."""
    return 7919 * (index + 2)


def _mc_born1(rng, index, light):
    a, b = _observables(rng)
    base = {"coupling": 0.4, "t": 1.0, "born_order": 1, "a": a, "b": b,
            "seed": _mc_seed(index)}
    sizes = LIGHT_CHAINS if light else MC_BORN1_CHAINS
    jobs = []
    for threads in (1, 2):
        for series, k_max in (("lb", 2), ("new", 2), ("new", 3)):
            jobs.append(_simulate(f"simulate.{series}.k{k_max}.t{threads}",
                                  base, series, k_max, sizes[k_max], threads))
    # the lb partner of the k_max 3 jobs: it takes a few ms and checks their
    # one-leg term.  It runs two workers, so that the one-worker jobs, over
    # which job_p50_s is taken, are three kinds and their median is one kind
    # (new, k_max 2) instead of the gap between two
    jobs.append(_simulate("simulate.lb.k3.t2", base, "lb", 3, sizes[3], 2))
    return jobs


def _mc_born2(rng, index, light):
    a, b = _observables(rng)
    # a weaker coupling and shorter horizon than Born order 1, so that most
    # chains stay within k_max = 2 instead of coming back truncated
    base = {"coupling": 0.2, "t": 0.5, "born_order": 2, "a": a, "b": b,
            "seed": _mc_seed(index)}
    chains = 1 if light else MC_BORN2_CHAINS
    return [_simulate(f"simulate.{series}.born2", base, series, 2, chains, 1)
            for series in ("lb", "new")]


def _graph(rng, k):
    w_re = [[0.0 if i == j else round(rng.uniform(-0.3, 0.3), 6)
             for j in range(k)] for i in range(k)]
    w_im = [[0.0 if i == j else round(rng.uniform(-0.3, 0.3), 6)
             for j in range(k)] for i in range(k)]
    u = [round(rng.uniform(0.3, 1.0), 6) for _ in range(k)]
    return {"k": k, "u": u, "w_re": w_re, "w_im": w_im}


def _momentum(rng, speed):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [round(speed * x / norm, 6) for x in v]


def _oneshot(rng, index, light):
    g4 = _graph(rng, 4)
    # |y| <= 1 keeps the bent theta contour at its minimum of four panels,
    # so the cost of T2 and T3 does not depend on the seed
    y = _momentum(rng, rng.uniform(0.85, 1.0))
    # on shell up to the rounding of the printed components
    yp = _momentum(rng, math.sqrt(sum(x * x for x in y)))
    jobs = [
        Job("gmatrix.k2", "gmatrix", _graph(rng, 2)),
        Job("gmatrix.k3.contour256", "gmatrix",
            dict(_graph(rng, 3), **({"nodes": 64} if light else {}))),
        Job("gmatrix.k4.contour32", "gmatrix",
            dict(g4, method="contour", nodes=8 if light else 32)),
        Job("gmatrix.k4.series", "gmatrix", dict(g4, method="series")),
    ]
    for op, born, kind in (("sigma", 2, "scatter.sigma.born2"),
                           ("sigma", 3, "scatter.sigma.born3"),
                           ("tmat", 3, "scatter.tmat.born3"),
                           ("optical", 2, "scatter.optical")):
        cfg = {"op": op, "coupling": round(rng.uniform(0.08, 0.12), 6),
               "born_order": born, "y": y}
        if op == "tmat":
            cfg["yp"] = yp
        jobs.append(Job(kind, "scatter", cfg))
    jobs.append(Job("lattice.headline", "lattice", dict(LATTICE_WINDOW)))
    jobs.append(Job("partitions", "partitions", dict(PARTITIONS)))
    jobs.append(Job("paths", "paths", {
        "k": 3, "n_max": 5, "seed": rng.randrange(2 ** 31)}))
    return jobs


_BUILDERS = {"mc_born1": _mc_born1, "mc_born2": _mc_born2,
             "oneshot": _oneshot}


def make_round(workload, seed, index, light=False):
    """Jobs of round ``index``; ``light`` shrinks each job to the smallest
    size of its kind, for warm-up and tests."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](_rng(workload, seed, index), index, light)


def warmup_round(workload, seed):
    """One untimed light job of each kind, to fill module-level caches."""
    return make_round(workload, seed, -1, light=True)
