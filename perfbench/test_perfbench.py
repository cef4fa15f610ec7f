"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _light(workload, seed, skip=()):
    return [j for j in jobs.make_round(workload, seed, 0, light=True)
            if j.kind not in skip]


def test_rounds_are_a_pure_function_of_the_seed():
    for workload in jobs.WORKLOADS:
        first = jobs.make_round(workload, 11, 3)
        random.seed(99)  # the generator must not read global random state
        assert jobs.make_round(workload, 11, 3) == first
        assert jobs.make_round(workload, 12, 3) != first
        assert jobs.make_round(workload, 11, 4) != first


def test_thread_counts_write_identical_artifacts(tmp_path):
    runs = run.Runner(tmp_path).run_round(_light("mc_born1", 5))
    assert [r.failures for r in runs if r.failed] == []
    by_kind = {r.job.kind: r for r in runs}
    for name in ("lb.k2", "new.k2", "new.k3"):
        one = by_kind[f"simulate.{name}.t1"]
        two = by_kind[f"simulate.{name}.t2"]
        assert checks.artifact_diff(one.out, two.out,
                                    ("wall_seconds", "threads")) == []


def test_traced_pass_writes_identical_artifacts(tmp_path):
    # the light k = 4 contour (8 nodes) is a warm-up size that fails its check
    round_jobs = (_light("mc_born1", 6)
                  + _light("oneshot", 6, skip=("gmatrix.k4.contour32",)))
    plain = run.Runner(tmp_path / "plain").run_round(round_jobs)
    from bgflight import cli

    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        traced = run.Runner(tmp_path / "traced", tracer).run_round(round_jobs)
    finally:
        tracer.uninstall()
    assert cli.main is original
    # spans from pool threads and from the main thread were both recorded
    assert tracer.stats["simulate.new.k2.t2"]["kinetic.sample_lb_chain"][0] > 0
    assert tracer.stats["gmatrix.k3.contour256"]["gmatrix.g_contour"][0] == 1
    for a, b in zip(plain, traced):
        assert not a.failed and not b.failed, (a.failures, b.failures)
        assert checks.artifact_diff(a.out, b.out) == []


def test_planted_wrong_g_entry_counts_as_failure(tmp_path, monkeypatch):
    from bgflight import gmatrix

    original = gmatrix.g_auto

    def wrong(graph, prefer=None, **kwargs):
        result = original(graph, prefer, **kwargs)
        result.entries[0, 1] += 1e-6
        return result

    monkeypatch.setattr(gmatrix, "g_auto", wrong)
    round_jobs = [j for j in _light("oneshot", 2, skip=("gmatrix.k4.contour32",))
                  if j.command in ("gmatrix", "paths")]
    runs = run.Runner(tmp_path).run_round(round_jobs)
    assert [r.job.command for r in runs if r.failed] == ["gmatrix"] * 3
    assert run.fail_frac(runs) == pytest.approx(3 / 4)


def test_planted_wrong_lattice_count_counts_as_failure(tmp_path, monkeypatch):
    from bgflight import lattice

    original = lattice.generate

    def short(window, cap=lattice.DEFAULT_POINT_CAP):
        sample = original(window, cap)
        keep = slice(0, int(sample.count * 0.95))
        return lattice.PointSample(sample.lam[keep], sample.theta[keep])

    monkeypatch.setattr(lattice, "generate", short)
    round_jobs = [j for j in _light("oneshot", 3)
                  if j.command in ("lattice", "partitions")]
    runs = run.Runner(tmp_path).run_round(round_jobs)
    assert [r.job.command for r in runs if r.failed] == ["lattice"]
    assert run.fail_frac(runs) == 0.5


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.LAYER_METRICS)


def test_traced_run_prints_every_layer_metric(capsys):
    assert run.main(["--workload", "mc_born1", "--seed", "4",
                     "--seconds", "0.1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m[0] for m in run.LAYER_METRICS]
    assert result["metrics"]["kinetic.g_evals_per_chain.k3"]["value"] == 12


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oneshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
