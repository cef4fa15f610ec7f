"""bgflight benchmark: CLI jobs run in-process through ``bgflight.cli.main``.

    python3 perfbench/run.py --workload mc_born1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's jobs back to back (a closed loop),
a round at a time, until ``--seconds`` have passed.  After each round every
job's outputs are checked (``checks.py``), outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the separate
traced pass: it runs round 0 once untraced, installs the timing wrappers of
``tracing.py``, runs round 0 again (its artifacts must be byte-identical to
the untraced ones) and then further rounds, and prints the per-layer
metrics, averaged per traced round.

Noise control: the machine's speed drifts by tens of percent from one minute
to the next, so a fixed reference kernel that does not touch the program is
timed between consecutive jobs, and inside each set-up interpreter right
after its import.  Every gated time is the raw time multiplied by
``KERNEL_BASELINE_S`` over the kernel time around it (for a job, the mean of
the kernel times before and after), i.e. expressed in seconds of a machine
on which the kernel takes its baseline time.  The raw seconds are printed
beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report and the machine record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import jobs as jobgen
from tracing import Tracer, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# median kernel time on the machine the baseline was recorded on (2-core
# x86-64 container, Python 3.11, numpy 2.4)
KERNEL_BASELINE_S = 1.8e-3
SETUP_IMPORTS = 6
# job_tail_s percentile, fixed per workload so that the metric keeps its
# meaning when a change makes jobs faster and a run holds more of them.  At
# the baseline about ten jobs or more lie beyond it; mc_born2 runs too few
# Born-2 jobs in one run for any percentile above the median.
TAIL_PERCENTILE = {"mc_born1": 75.0, "mc_born2": 50.0, "oneshot": 75.0}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

WARNING_KINDS = (
    ("direction rejection efficiency", "rejection_efficiency"),
    ("effective sample size", "low_ess"),
    ("combinatorial tail", "combinatorial_tail"),
    ("contingency cells", "sparse_cells"),
)

_CALLS_SELF_PER_CALL = ("scattering.born_term_2", "scattering.born_term_3",
                        "scattering.t_matrix", "kinetic.sample_lb_chain")
_CALLS_SELF = ("scattering.w_hat",
               "kinetic.rho_new_from_values", "gmatrix.g_bessel_k2",
               "paths.path_sum_identity_check")
_SELF = ("kinetic.pair_estimate", "kinetic.rho_lb", "kinetic.pair_overlap",
         "lattice.generate", "lattice.joint_test",
         "partitions.enumerate_partitions")
_SHARES = ("cli", "kinetic", "gmatrix", "scattering", "lattice",
           "partitions", "paths")


def _layer_metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in _CALLS_SELF_PER_CALL:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower"),
                (f"{name}.us_per_call", "us", "lower")]
    for name in _CALLS_SELF:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(f"{name}.self_s", "s", "lower") for name in _SELF]
    out += [("scattering.sigma_tot.calls", "count", "lower"),
            ("scattering.sigma_tot.cold_calls", "count", "lower"),
            ("scattering.sigma_tot.cold_s", "s", "lower"),
            ("scattering.sigma_tot.hit_ratio", "ratio", "higher"),
            ("kinetic.accept_ratio", "ratio", "higher"),
            ("kinetic.g_evals_per_chain", "count", "lower"),
            ("kinetic.g_evals_per_chain.k2", "count", "lower"),
            ("kinetic.g_evals_per_chain.k3", "count", "lower"),
            ("kinetic.truncated_frac", "ratio", "lower"),
            ("kinetic.ess_frac", "ratio", "higher"),
            ("gmatrix.bessel_j.calls", "count", "lower")]
    for k in (3, 4):
        out += [(f"gmatrix.g_series.k{k}.calls", "count", "lower"),
                (f"gmatrix.g_series.k{k}.self_s", "s", "lower"),
                (f"gmatrix.g_series.k{k}.order_mean", "terms", "lower")]
    for k in (2, 3, 4):
        out += [(f"gmatrix.g_contour.k{k}.calls", "count", "lower"),
                (f"gmatrix.g_contour.k{k}.self_s", "s", "lower"),
                (f"gmatrix.g_contour.k{k}.grid_points", "count", "lower")]
    out += [("lattice.generate.points_per_s", "1/s", "higher"),
            ("partitions.enumerate_partitions.items", "count", "higher"),
            ("cli.self_s", "s", "lower"),
            ("cli.bytes_written", "bytes", "lower")]
    out += [(f"{layer}.self_share", "ratio", "lower") for layer in _SHARES]
    out += [("gmatrix.g_series.self_share_kmax3", "ratio", "lower"),
            ("gmatrix.g_contour.self_share", "ratio", "lower")]
    out += [(f"warnings.{kind}.count", "count", "lower")
            for _, kind in WARNING_KINDS + (("", "other"),)]
    out += [("trace.spans", "count", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


LAYER_METRICS = tuple(_layer_metric_names())


# ---------------------------------------------------------------------------
# machine-speed reference
# ---------------------------------------------------------------------------

_KERNEL_X = np.linspace(0.0, 1.0, 48)
_KERNEL_Z = np.exp(1j * np.linspace(0.0, 6.0, 8192))
_KERNEL_SYM = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7.0
_KERNEL_MEM = np.linspace(0.0, 1.0, 1 << 19)  # 4 MB, beyond the L2 cache
_KERNEL_IDX = np.arange(0, 1 << 19, 61)


def _kernel_once():
    acc = 0.0
    for i in range(150):
        acc += float(np.dot(_KERNEL_X, np.sin(_KERNEL_X * (i % 9))))
    table = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
    acc += float(np.abs(np.exp(_KERNEL_Z) / (_KERNEL_Z + 2.0)).sum())
    acc += float(np.linalg.eigvalsh(_KERNEL_SYM).sum())
    for i in range(2):
        acc += float(_KERNEL_MEM[(_KERNEL_IDX * (i + 3)) % _KERNEL_MEM.size]
                     .sum())
    return acc


def kernel_seconds(repeats=7):
    """Median time of the reference kernel, about 1.8 ms: small numpy calls
    and dict updates in an interpreter loop, complex exponentials over 8192
    points, a 48 x 48 symmetric eigensolve and a gather over 4 MB."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _kernel_once()
        times.append(perf_counter() - start)
    return statistics.median(times)


def machine_record():
    import scipy

    record = {"nproc": os.cpu_count(),
              "usable_cpus": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "numpy": np.__version__, "scipy": scipy.__version__}
    try:  # the dict form of the build record is numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        record["blas"] = "unknown"
    return record


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

class JobRun:
    """One executed job: exit code, times, warnings and check failures."""

    def __init__(self, job, out):
        self.job = job
        self.out = out
        self.rc = None
        self.error = None
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.warnings = Counter()
        self.bytes_written = 0
        self.failures = []

    @property
    def ok_so_far(self):
        return self.error is None and self.rc == 0 and not self.failures

    @property
    def failed(self):
        return bool(self.failures)


def _warning_kind(message):
    for prefix, kind in WARNING_KINDS:
        if str(message).startswith(prefix):
            return kind
    return "other"


class Runner:
    """Runs jobs in-process, each in its own directory under ``work``."""

    def __init__(self, work, tracer=None):
        self.work = Path(work)
        self.tracer = tracer
        self._serial = 0

    def run_job(self, job, kernel):
        """Run one job; ``kernel`` is the reference time taken just before,
        which scales the job's trace spans."""
        from bgflight import cli

        self._serial += 1
        jdir = self.work / f"job{self._serial:05d}"
        jdir.mkdir(parents=True)
        cfg_path = jdir / "config.json"
        cfg_path.write_text(json.dumps(job.config, sort_keys=True))
        run = JobRun(job, jdir / "out")
        sink = io.StringIO()
        if self.tracer is not None:
            self.tracer.begin(job.kind, KERNEL_BASELINE_S / kernel)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run.rc = cli.main(job.argv(cfg_path, run.out))
        except SystemExit as exc:
            run.rc = exc.code
        except Exception as exc:  # a crash is a failed job, not a dead run
            run.error = f"{type(exc).__name__}: {exc}"
        finally:
            run.raw_s = perf_counter() - start
            if self.tracer is not None:
                self.tracer.end()
        run.warnings.update(_warning_kind(w.message) for w in caught)
        if run.out.is_dir():
            run.bytes_written = sum(p.stat().st_size
                                    for p in run.out.iterdir())
        return run

    def run_round(self, round_jobs, check=True):
        """Run a round and, unless ``check`` is false, check it.  The kernel
        is timed between consecutive jobs, and each job is scaled by the
        mean of the kernel times just before and just after it."""
        kernels = [kernel_seconds()]
        runs = []
        for job in round_jobs:
            runs.append(self.run_job(job, kernels[-1]))
            kernels.append(kernel_seconds())
        for run, before, after in zip(runs, kernels, kernels[1:]):
            run.norm_s = run.raw_s * 2.0 * KERNEL_BASELINE_S / (before + after)
        if check:
            checks.check_round(runs)
        return runs


# Run in a fresh interpreter: time the import, then the reference kernel in
# the same process, so that both see the same core at the same moment.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import bgflight.cli
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
from run import kernel_seconds
for _ in range(5):
    kernel_seconds()
print(elapsed, kernel_seconds())
"""


def measure_setup(repeats=SETUP_IMPORTS):
    """Median normalised and raw time of ``import bgflight.cli`` in a fresh
    interpreter, as every CLI run pays it.  The first import compiles
    bytecode and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(Path(__file__).parent)]
    norm, raw = [], []
    for i in range(repeats + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.split()
        if i:
            elapsed, kernel = float(out[0]), float(out[1])
            raw.append(elapsed)
            norm.append(elapsed * KERNEL_BASELINE_S / kernel)
    return statistics.median(norm), statistics.median(raw)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def fail_frac(runs):
    """Share of jobs that raised, exited non-zero or failed a check."""
    return sum(r.failed for r in runs) / len(runs)


def end_to_end(runs, setup, tail_pct):
    """The gated metrics and the report-only figures beside them.
    ``job_p50_s`` is taken over the one-worker jobs: a two-worker job hands
    the GIL to and fro for every chain, and on a shared host that costs it
    1.5 to 2.5 times the one-worker time from one run to the next.  In
    ``mc_born1`` such a job sits next to the median and would drag it by a
    tenth; it still counts in ``jobs_per_s`` and ``job_tail_s``."""
    times = [r.norm_s for r in runs]
    total = sum(times)
    tail = float(np.percentile(times, tail_pct))
    one_worker = [r.norm_s for r in runs if r.job.threads == 1]
    metrics = {
        "setup_s": setup[0],
        "jobs_per_s": len(runs) / total,
        "job_p50_s": float(np.median(one_worker)),
        "job_tail_s": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    chains = sum(r.job.chains for r in runs)
    extra = {
        "chains_per_s": chains / total if chains else None,
        "tail_percentile": tail_pct,
        "jobs": len(runs),
        "one_worker_jobs": len(one_worker),
        "jobs_beyond_tail": sum(t > tail for t in times),
        "raw_setup_s": setup[1],
        "raw_job_s": sum(r.raw_s for r in runs),
        "raw_jobs_per_s": len(runs) / sum(r.raw_s for r in runs),
    }
    return metrics, extra


def _shares(stats_by_kind, kinds=None):
    by_name = defaultdict(float)
    for kind, stats in stats_by_kind.items():
        if kinds is None or kind in kinds:
            for name, rec in stats.items():
                by_name[name] += rec[2]
    return by_name, sum(by_name.values())


def layer_metrics(tracer, n_rounds, runs, overhead):
    """Per-layer metrics from the traced rounds; counts and times are per
    round, ratios are over the whole traced part of the run."""
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for per_kind in tracer.stats.values():
        for name, rec in per_kind.items():
            for i in range(3):
                stats[name][i] += rec[i]
    counts = Counter()
    for per_kind in tracer.counts.values():
        counts.update(per_kind)
    m = {}

    def per_round(value):
        return value / n_rounds

    def ratio(num, den):
        return num / den if den else 0.0

    for name in _CALLS_SELF_PER_CALL:
        calls, total, self_s = stats[name]
        m[f"{name}.calls"] = per_round(calls)
        m[f"{name}.self_s"] = per_round(self_s)
        m[f"{name}.us_per_call"] = 1e6 * ratio(total, calls)
    for name in _CALLS_SELF:
        m[f"{name}.calls"] = per_round(stats[name][0])
        m[f"{name}.self_s"] = per_round(stats[name][2])
    for name in _SELF:
        m[f"{name}.self_s"] = per_round(stats[name][2])
    sig_calls = stats["scattering.sigma_tot"][0]
    m["scattering.sigma_tot.calls"] = per_round(sig_calls)
    m["scattering.sigma_tot.cold_calls"] = per_round(
        counts["sigma_tot.cold_calls"])
    m["scattering.sigma_tot.cold_s"] = per_round(counts["sigma_tot.cold_s"])
    m["scattering.sigma_tot.hit_ratio"] = ratio(
        sig_calls - counts["sigma_tot.cold_calls"], sig_calls)
    m["kinetic.accept_ratio"] = ratio(counts["sampler.accepted"],
                                      counts["sampler.proposals"])
    evals = {k: counts[f"g_evals.k{k}"] for k in (2, 3, 4)}
    chains = {k: counts[f"reweighted.k{k}"] for k in (2, 3, 4)}
    m["kinetic.g_evals_per_chain"] = ratio(sum(evals.values()),
                                           sum(chains.values()))
    for k in (2, 3):
        m[f"kinetic.g_evals_per_chain.k{k}"] = ratio(evals[k], chains[k])
    m["kinetic.truncated_frac"] = ratio(counts["pair.truncated"],
                                        counts["pair.chains"])
    m["kinetic.ess_frac"] = ratio(counts["pair.ess"], counts["pair.chains"])
    m["gmatrix.bessel_j.calls"] = per_round(stats["gmatrix.bessel_j"][0])
    for k in (3, 4):
        calls = counts[f"g_series.k{k}.calls"]
        m[f"gmatrix.g_series.k{k}.calls"] = per_round(calls)
        m[f"gmatrix.g_series.k{k}.self_s"] = per_round(
            counts[f"g_series.k{k}.self_s"])
        m[f"gmatrix.g_series.k{k}.order_mean"] = ratio(
            counts[f"g_series.k{k}.order"], calls)
    for k in (2, 3, 4):
        m[f"gmatrix.g_contour.k{k}.calls"] = per_round(
            counts[f"g_contour.k{k}.calls"])
        m[f"gmatrix.g_contour.k{k}.self_s"] = per_round(
            counts[f"g_contour.k{k}.self_s"])
        m[f"gmatrix.g_contour.k{k}.grid_points"] = per_round(
            counts[f"g_contour.k{k}.grid_points"])
    m["lattice.generate.points_per_s"] = ratio(
        counts["lattice.points"], stats["lattice.generate"][1])
    m["partitions.enumerate_partitions.items"] = per_round(
        counts["partitions.items"])
    m["cli.self_s"] = per_round(stats["cli.main"][2])
    m["cli.bytes_written"] = per_round(sum(r.bytes_written for r in runs))
    by_name, total_self = _shares(tracer.stats)
    for layer in _SHARES:
        m[f"{layer}.self_share"] = ratio(
            sum(v for n, v in by_name.items() if n.startswith(layer + ".")),
            total_self)
    k3_kinds = {kind for kind in tracer.stats if ".k3." in kind}
    k3_names, k3_total = _shares(tracer.stats, k3_kinds)
    m["gmatrix.g_series.self_share_kmax3"] = ratio(
        k3_names["gmatrix.g_series"], k3_total)
    m["gmatrix.g_contour.self_share"] = ratio(by_name["gmatrix.g_contour"],
                                              total_self)
    warned = Counter()
    for r in runs:
        warned.update(r.warnings)
    for _, kind in WARNING_KINDS + (("", "other"),):
        m[f"warnings.{kind}.count"] = per_round(warned[kind])
    m["trace.spans"] = per_round(sum(rec[0] for rec in stats.values()))
    m["trace.overhead_frac"] = overhead
    return m


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _timed_rounds(runner, workload, seed, deadline, index):
    """Rounds from ``index`` on until ``deadline``.  A round starts only if
    it is expected to end less than half a round past the deadline."""
    runs = []
    while True:
        start = perf_counter()
        runs += runner.run_round(jobgen.make_round(workload, seed, index))
        index += 1
        now = perf_counter()
        if now + 0.5 * (now - start) >= deadline:
            return runs, index


def untraced_pass(runner, workload, seed, seconds):
    return _timed_rounds(runner, workload, seed, perf_counter() + seconds, 0)


def traced_pass(work, workload, seed, seconds):
    """Round 0 untraced, then round 0 and further rounds traced.  The
    tracing overhead is the span count times the measured cost of one span,
    over the traced jobs' raw time."""
    deadline = perf_counter() + seconds
    first = jobgen.make_round(workload, seed, 0)
    base = Runner(work / "untraced").run_round(first)
    cost = span_cost()
    tracer = Tracer()
    tracer.install()
    try:
        runner = Runner(work / "traced", tracer)
        runs = runner.run_round(first)
        for plain, run in zip(base, runs):
            if plain.ok_so_far and run.ok_so_far:
                differ = checks.artifact_diff(plain.out, run.out)
                if differ:
                    run.failures.append(f"tracing changed artifacts {differ}")
        index = 1
        if perf_counter() < deadline:
            more, index = _timed_rounds(runner, workload, seed, deadline, 1)
            runs += more
    finally:
        tracer.uninstall()
    spans = sum(rec[0] for per_kind in tracer.stats.values()
                for rec in per_kind.values())
    overhead = spans * cost / sum(r.raw_s for r in runs)
    return base, runs, index, layer_metrics(tracer, index, runs, overhead)


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bgflight" / "cli.py").is_file():
        print(f"no bgflight sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bgflight

    if Path(bgflight.__file__).resolve().parent != SRC / "bgflight":
        print(f"bgflight imported from {bgflight.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    for _ in range(5):
        kernel_seconds()  # the first calls pay one-off numpy set-up
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setup = measure_setup()
        Runner(work / "warmup").run_round(
            jobgen.warmup_round(args.workload, args.seed), check=False)
        if args.trace:
            base, runs, rounds, layers = traced_pass(
                work, args.workload, args.seed, args.seconds)
            checked = base + runs
        else:
            runs, rounds = untraced_pass(Runner(work), args.workload,
                                         args.seed, args.seconds)
            checked = runs
        metrics, extra = end_to_end(runs, setup,
                                    TAIL_PERCENTILE[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in checked if r.failed]
    print(f"workload {args.workload}: {jobgen.WORKLOADS[args.workload]}")
    print(f"seed {args.seed}, {rounds} rounds, {len(runs)} timed jobs, "
          f"trace {args.trace}")
    if not args.trace:
        for name, unit, _ in END_TO_END:
            print(f"  {name:<44} {_fmt(metrics[name]):>14} {unit}")
        print(f"  {'chains_per_s':<44} {_fmt(extra['chains_per_s']):>14} 1/s")
        print(f"  job_tail_s is p{extra['tail_percentile']:g} of "
              f"{extra['jobs']} jobs, {extra['jobs_beyond_tail']} beyond it")
        print(f"  job_p50_s is the median of {extra['one_worker_jobs']} "
              f"one-worker jobs")
    print(f"  {'fail_frac':<44} {_fmt(fail_frac(checked)):>14} ratio")
    by_kind = defaultdict(list)
    warned = Counter()
    for r in runs:
        by_kind[r.job.kind].append(r.norm_s)
        warned.update(r.warnings)
    for kind, times in by_kind.items():
        print(f"  {kind:<32} {len(times):4d} jobs, median "
              f"{statistics.median(times):.4g} s, max {max(times):.4g} s")
    print(f"  warnings: {dict(sorted(warned.items()))}")
    for r in failed:
        print(f"  FAILED {r.job.kind}: {'; '.join(r.failures)}")
    record = dict(machine_record(), kernel_baseline_s=KERNEL_BASELINE_S,
                  **{k: v for k, v in extra.items() if k.startswith("raw_")})
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        for name, unit, _ in LAYER_METRICS:
            print(f"  {name:<44} {_fmt(layers[name]):>14} {unit}")
        shown = {name: {"value": layers[name], "unit": unit}
                 for name, unit, _ in LAYER_METRICS}
    else:
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit, _ in END_TO_END}
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
