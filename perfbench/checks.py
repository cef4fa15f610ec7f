"""Output checks for benchmark jobs.  They run after a round, outside the
timed region, and append one message per defect to ``run.failures``; a job
with any failure counts as failed.

The gmatrix check recomputes G through the independent series route rather
than trusting the program's ``converged`` flag, which stays true for contour
results that are visibly off (16 nodes at k = 4).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

G_TOL = 1e-10            # |G - G_series| relative to max(1, max |G_series|)
OPTICAL_TOL = 1e-3       # |residual| / coupling^2
LATTICE_COUNT_TOL = 0.03  # |points - width| / width


def _load(out, name):
    with open(Path(out) / name) as fh:
        return json.load(fh)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _g_entries(out):
    payload = _load(out, "gmatrix.json")
    return np.asarray(payload["entries_re"]) + 1j * np.asarray(
        payload["entries_im"])


def _graph(cfg):
    from bgflight.paths import WeightedCollisionGraph

    w = np.asarray(cfg["w_re"], dtype=float) + 1j * np.asarray(
        cfg["w_im"], dtype=float)
    return WeightedCollisionGraph(w, np.asarray(cfg["u"], dtype=float))


def _g_mismatch(entries, reference):
    scale = max(1.0, float(np.max(np.abs(reference))))
    err = float(np.max(np.abs(entries - reference)))
    return err if err > G_TOL * scale else None


def check_gmatrix(run):
    from bgflight.gmatrix import g_series

    ref = g_series(_graph(run.job.config), max_order=200)
    if not ref.converged:
        run.failures.append("series reference did not converge")
        return
    err = _g_mismatch(_g_entries(run.out), ref.entries)
    if err is not None:
        run.failures.append(f"G differs from the series route by {err:.2e}")


def read_simulate(out):
    diag = _load(out, "simulate.json")
    per_k = {}
    with open(Path(out) / "simulate.csv") as fh:
        next(fh)
        for line in fh:
            k, value = line.strip().split(",")
            per_k[int(k)] = float(value)
    return diag, per_k


def check_simulate(run):
    diag, per_k = read_simulate(run.out)
    if not _finite(diag["value"], diag["stderr"]):
        run.failures.append("value or stderr not finite")
        return
    total = sum(per_k.values())
    scale = sum(abs(v) for v in per_k.values())
    if abs(total - diag["value"]) > 1e-9 * scale + 1e-300:
        run.failures.append(
            f"sum(per_k) = {total!r} differs from value {diag['value']!r}")


def check_lattice(run):
    width = run.job.config["width"]
    with open(Path(run.out) / "points.csv") as fh:
        count = sum(1 for _ in fh) - 1
    report = _load(run.out, "lattice_report.json")
    if abs(count - width) > LATTICE_COUNT_TOL * width:
        run.failures.append(f"{count} points in a window of width {width}")
    if report["n_points"] != count:
        run.failures.append("report and points.csv disagree on the count")
    for flag in ("pass_ks", "pass_theta_uniform", "pass_independence"):
        if report[flag] is not True:
            run.failures.append(f"{flag} not set")


def check_scatter(run):
    out = _load(run.out, "scatter.json")
    op = run.job.config["op"]
    if op == "sigma":
        if not (_finite(out["sigma_tot"]) and out["sigma_tot"] > 0):
            run.failures.append(f"sigma_tot = {out['sigma_tot']!r}")
    elif op == "tmat":
        if not _finite(out["t_re"], out["t_im"]):
            run.failures.append("T not finite")
    elif op == "optical":
        ratio = out["residual_over_coupling_sq"]
        if not (_finite(ratio) and abs(ratio) <= OPTICAL_TOL):
            run.failures.append(f"optical residual / coupling^2 = {ratio!r}")


def check_partitions(run):
    cfg = run.job.config
    count = _load(run.out, "manifest.json")["checks"]["count"]
    lines = (Path(run.out) / "partitions.jsonl").read_text().splitlines()
    if len(lines) != count:
        run.failures.append(f"{len(lines)} lines for a count of {count}")
    nc = cfg["family"].endswith("_nc")
    for line in lines:
        blocks = json.loads(line)["blocks"]
        cover = sorted(j for b in blocks for j in b)
        adjacent = nc and any(j + 1 in b for b in blocks for j in b)
        if (len(blocks) != cfg["k"] or cover != list(range(cfg["n"] + 1))
                or adjacent):
            run.failures.append(f"not a {cfg['family']} partition: {blocks}")
            return


_SINGLE = {
    "gmatrix": check_gmatrix,
    "simulate": check_simulate,
    "lattice": check_lattice,
    "scatter": check_scatter,
    "partitions": check_partitions,
    # paths checks its own identity and exits 3 when it fails
    "paths": lambda run: None,
}


def artifact_diff(out_a, out_b, manifest_ignore=("wall_seconds",)):
    """Names of artifacts that differ between two output directories; the
    manifest is compared without the fields in ``manifest_ignore``."""
    a, b = Path(out_a), Path(out_b)
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    differ = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            differ.append(name)
        elif name == "manifest.json":
            ma, mb = _load(a, name), _load(b, name)
            for key in manifest_ignore:
                ma.pop(key, None)
                mb.pop(key, None)
            if ma != mb:
                differ.append(name)
        elif pa.read_bytes() != pb.read_bytes():
            differ.append(name)
    return differ


def _check_pairs(runs):
    """Cross-job checks inside one round."""
    sims = [r for r in runs if r.job.command == "simulate" and r.ok_so_far]
    # one worker against two: byte-identical artifacts; the manifest
    # records the worker count itself
    by_work = {}
    for r in sims:
        c = r.job.config
        by_work.setdefault((c["series"], c["k_max"]), []).append(r)
    for group in by_work.values():
        for other in group[1:]:
            differ = artifact_diff(group[0].out, other.out,
                                   ("wall_seconds", "threads"))
            if differ:
                other.failures.append(
                    f"artifacts {differ} depend on the thread count")
    # lb against new on the same config and seed: identical one-leg term
    first_leg = {}
    for r in sims:
        c = r.job.config
        per_k = read_simulate(r.out)[1]
        first_leg.setdefault(c["n_samples"], []).append((r, per_k[1]))
    for group in first_leg.values():
        ref = group[0][1]
        for r, value in group[1:]:
            if abs(value - ref) > 1e-12 * abs(ref):
                r.failures.append(
                    f"per_k[1] = {value!r} differs from {ref!r} of the "
                    f"{group[0][0].job.kind} job")
    # the k = 4 series job is checked against the k = 4 contour job on the
    # same graph, the route independent of it
    g4 = {r.job.config.get("method"): r for r in runs
          if r.job.command == "gmatrix" and r.job.config["k"] == 4
          and r.ok_so_far}
    if "series" in g4 and "contour" in g4:
        err = _g_mismatch(_g_entries(g4["series"].out),
                          _g_entries(g4["contour"].out))
        if err is not None:
            g4["series"].failures.append(
                f"series and contour G differ by {err:.2e}")


def check_round(runs):
    for run in runs:
        if run.error is not None:
            run.failures.append(run.error)
        elif run.rc != 0:
            run.failures.append(f"exit code {run.rc}")
        else:
            try:
                _SINGLE[run.job.command](run)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                run.failures.append(f"unreadable output: {exc!r}")
    try:
        _check_pairs(runs)
    except (OSError, KeyError, ValueError) as exc:
        runs[0].failures.append(f"unreadable output: {exc!r}")
