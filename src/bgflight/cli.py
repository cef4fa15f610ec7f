"""Batch front end: JSON configs in, CSV/JSON artifacts plus a run manifest
out.

Exit codes: 0 success, 2 configuration error, 3 numerical-check failure,
4 resource cap exceeded.  All stochastic outputs are a pure function of
(config, seed): chains run serially, each on its own counter-based stream.
``--threads`` is accepted and recorded in the manifest but has no effect on
execution.  Leg and vertex indices in configs and outputs are 0-based.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import acceptance
from . import gmatrix as gm
from . import kinetic as kn
from . import lattice as la
from . import partitions as pa
from . import paths as gp
from . import scattering as sc
from .errors import CapacityError, InvalidInputError, NumericsError


class ConfigError(Exception):
    pass


def _load_config(path, schema, defaults):
    if path is None:
        cfg = {}
    else:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown config key: {key!r}")
    merged = dict(defaults)
    merged.update(cfg)
    missing = [k for k, req in schema.items() if req and k not in merged]
    if missing:
        raise ConfigError(f"missing required config key: {missing[0]!r}")
    return merged


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(v, ".17g") if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _np_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_np_default)
        fh.write("\n")


def _manifest(out_dir, command, config, seed, threads, outputs, checks,
              started):
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "config_sha256": digest,
        "version": __version__,
        "seed": seed,
        "threads": threads,
        "wall_seconds": round(time.perf_counter() - started, 3),
        "outputs": outputs,
        "checks": checks,
    })


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_partitions(args, out_dir):
    cfg = _load_config(args.config, {
        "n": True, "k": True, "family": False, "ordered": False,
        "marked": False, "diagrams": False, "cap": False,
    }, {"family": "all", "ordered": False, "marked": None,
        "diagrams": False, "cap": pa.DEFAULT_ENUMERATION_CAP})
    if cfg["marked"] is not None:
        items = pa.enumerate_marked(cfg["n"], cfg["k"], cfg["marked"],
                                    ordered=cfg["ordered"], cap=cfg["cap"])
    else:
        items = pa.enumerate_partitions(cfg["n"], cfg["k"], cfg["family"],
                                        ordered=cfg["ordered"],
                                        cap=cfg["cap"])
    path = os.path.join(out_dir, "partitions.jsonl")
    with open(path, "w", newline="\n") as fh:
        for item in items:
            record = {"blocks": [list(b) for b in item.blocks]}
            if isinstance(item, pa.MarkedPartition):
                record["mark"] = item.mark
            if cfg["diagrams"]:
                record["diagram"] = pa.to_diagram(item)
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"count": len(items)}))
    return cfg, [path], {"count": len(items)}, 0


def _cmd_paths(args, out_dir):
    cfg = _load_config(args.config, {
        "k": True, "n_max": False, "seed": False, "tolerance": False,
    }, {"n_max": 5, "seed": 0, "tolerance": 1e-12})
    seed = args.seed if args.seed is not None else cfg["seed"]
    rng = np.random.default_rng(seed)
    k = cfg["k"]
    w = rng.uniform(-1, 1, (k, k)) + 1j * rng.uniform(-1, 1, (k, k))
    w /= np.max(np.abs(w))
    np.fill_diagonal(w, 0)
    graph = gp.WeightedCollisionGraph(w, rng.uniform(0.1, 1.0, k))
    rows = []
    worst = 0.0
    for n in range(1, cfg["n_max"] + 1):
        for i in range(k):
            for j in range(k):
                res = gp.path_sum_identity_check(graph, n, i, j)
                worst = max(worst, res)
                rows.append({"n": n, "start": i, "end": j, "residual": res})
                print(json.dumps(rows[-1]))
    path = os.path.join(out_dir, "paths_identity.jsonl")
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    ok = worst <= cfg["tolerance"]
    return cfg, [path], {"max_residual": worst, "passed": ok}, 0 if ok else 3


def _cmd_gmatrix(args, out_dir):
    cfg = _load_config(args.config, {
        "k": True, "u": True, "w_re": True, "w_im": False, "method": False,
        "max_order": False, "nodes": False, "radius": False,
    }, {"w_im": None, "method": "auto", "max_order": 80, "nodes": 256,
        "radius": None})
    k = cfg["k"]
    w = np.asarray(cfg["w_re"], dtype=float).astype(complex)
    if cfg["w_im"] is not None:
        w += 1j * np.asarray(cfg["w_im"], dtype=float)
    graph = gp.WeightedCollisionGraph(w, np.asarray(cfg["u"], dtype=float))
    method = None if cfg["method"] == "auto" else cfg["method"]
    result = gm.g_auto(graph, prefer=method, max_order=cfg["max_order"],
                       spec=gm.ContourSpec(radius=cfg["radius"],
                                           nodes=cfg["nodes"]))
    payload = {
        "k": k,
        "method": result.method,
        "entries_re": result.entries.real.tolist(),
        "entries_im": result.entries.imag.tolist(),
        "order": result.order,
        "nodes": result.nodes,
        "tail_estimate": result.tail_estimate,
        "quad_error": result.quad_error,
        "converged": result.converged,
    }
    path = os.path.join(out_dir, "gmatrix.json")
    _write_json(path, payload)
    print(json.dumps({"method": result.method,
                      "max_abs": float(np.max(np.abs(result.entries)))}))
    if not result.converged:
        print(f"numerical failure: series not converged at order "
              f"{result.order} (tail {result.tail_estimate:.3g})",
              file=sys.stderr)
    return (cfg, [path], {"converged": result.converged},
            0 if result.converged else 3)


def _build_model(cfg, args):
    pot = sc.GaussianPotential(amplitude=cfg.get("amplitude", 1.0),
                               width=cfg.get("width", 1.0),
                               dim=cfg.get("dim", 3))
    tol = args.tol if args.tol is not None else cfg.get("tolerance", 1e-11)
    return sc.ScatteringModel(
        pot, coupling=cfg["coupling"], born_order=cfg.get("born_order", 1),
        gamma=cfg.get("gamma", 0.0), theta_tol=tol,
        theta_anchor=args.theta_max)


def _cmd_scatter(args, out_dir):
    cfg = _load_config(args.config, {
        "op": True, "coupling": True, "born_order": False, "gamma": False,
        "amplitude": False, "width": False, "dim": False, "y": True,
        "yp": False, "direction": False, "tolerance": False,
        "include_third": False,
    }, {"born_order": 1, "gamma": 0.0, "include_third": False})
    model = _build_model(cfg, args)
    y = np.asarray(cfg["y"], dtype=float)
    out = {"op": cfg["op"]}
    if cfg["op"] == "tmat":
        if "yp" not in cfg:
            raise ConfigError("missing required config key: 'yp'")
        t = model.t_matrix(y, np.asarray(cfg["yp"], dtype=float))
        out.update({"t_re": t.real, "t_im": t.imag})
    elif cfg["op"] == "sigma":
        if "direction" in cfg:
            out["sigma"] = model.sigma_kernel(
                y, np.asarray(cfg["direction"], dtype=float))
        out["sigma_tot"] = model.sigma_tot(y)
    elif cfg["op"] == "optical":
        res = model.optical_residual(y, cfg["include_third"])
        out.update({"residual": res,
                    "residual_over_coupling_sq":
                        res / max(model.coupling ** 2, 1e-300)})
    else:
        raise ConfigError(f"unknown config key: 'op' value {cfg['op']!r}")
    path = os.path.join(out_dir, "scatter.json")
    _write_json(path, out)
    print(json.dumps(out))
    return cfg, [path], {}, 0


def _symbol(spec):
    return kn.GaussianSymbol(
        x_center=spec["x_center"], y_center=spec["y_center"],
        x_width=spec.get("x_width", 1.0), y_width=spec.get("y_width", 1.0),
        amplitude=spec.get("amplitude", 1.0))


def _cmd_simulate(args, out_dir):
    cfg = _load_config(args.config, {
        "series": True, "coupling": True, "born_order": False,
        "amplitude": False, "width": False, "dim": False,
        "a": True, "b": False, "t": True, "k_max": False,
        "n_samples": False, "seed": False, "tolerance": False,
    }, {"born_order": 1, "k_max": 2, "n_samples": 10000, "seed": 0,
        "b": None})
    model = _build_model(cfg, args)
    seed = args.seed if args.seed is not None else cfg["seed"]
    a = _symbol(cfg["a"])
    b = _symbol(cfg["b"]) if cfg["b"] is not None else None
    est = kn.pair_estimate(cfg["series"], a, b, cfg["t"], cfg["k_max"],
                           cfg["n_samples"], model, seed=seed)
    csv_path = os.path.join(out_dir, "simulate.csv")
    rows = [(k, v) for k, v in sorted(est.per_k.items())]
    _write_csv(csv_path, ["k", "contribution"], rows)
    diag = {
        "series": cfg["series"],
        "value": est.value,
        "stderr": est.stderr,
        "n_samples": est.n_samples,
        "ess": est.ess,
        "return_mass": est.return_mass,
        "truncated_fraction": est.truncated_fraction,
        "seed": seed,
    }
    json_path = os.path.join(out_dir, "simulate.json")
    _write_json(json_path, diag)
    print(json.dumps({"value": est.value, "stderr": est.stderr}))
    return cfg, [csv_path, json_path], {"ess": est.ess}, 0


def _cmd_lattice(args, out_dir):
    cfg = _load_config(args.config, {
        "r_max": True, "width": True, "shift": False, "basis": False,
        "gap_bins": False, "theta_bins": False, "cap": False,
    }, {"shift": list(la.DEFAULT_SHIFT), "basis": [[1, 0], [0, 1]],
        "gap_bins": 8, "theta_bins": 8, "cap": la.DEFAULT_POINT_CAP})
    window = la.LatticeWindow(r_max=cfg["r_max"], width=cfg["width"],
                              shift=tuple(cfg["shift"]),
                              basis=np.asarray(cfg["basis"], dtype=float))
    sample = la.generate(window, cap=cfg["cap"])
    pts_path = os.path.join(out_dir, "points.csv")
    _write_csv(pts_path, ["lambda", "theta"],
               zip(sample.lam.tolist(), sample.theta.tolist()))
    g, th = la.gaps(sample)
    gaps_path = os.path.join(out_dir, "gaps.csv")
    _write_csv(gaps_path, ["gap", "theta"], zip(g.tolist(), th.tolist()))
    h, ge, te = la.histogram2d(sample, theta_bins=cfg["theta_bins"])
    hist_path = os.path.join(out_dir, "hist2d.csv")
    hrows = []
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            hrows.append((float(ge[i]), float(ge[i + 1]), float(te[j]),
                          float(te[j + 1]), float(h[i, j])))
    _write_csv(hist_path, ["gap_lo", "gap_hi", "theta_lo", "theta_hi",
                           "density"], hrows)
    report = la.joint_test(sample, gap_bins=cfg["gap_bins"],
                           theta_bins=cfg["theta_bins"])
    rep_path = os.path.join(out_dir, "lattice_report.json")
    _write_json(rep_path, report)
    print(json.dumps({"count": sample.count, "ks_stat": report["ks_stat"]}))
    return (cfg, [pts_path, gaps_path, hist_path, rep_path],
            {k: report[k] for k in ("pass_ks", "pass_theta_uniform",
                                    "pass_independence")}, 0)


def _cmd_verify(args, out_dir):
    results = []
    print(f"{'#':>2}  {'status':8} {'time':>8}  criterion")
    for fn in acceptance.ALL_CHECKS:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else (
            "XFAIL" if not res.expected_pass else "FAIL")
        print(f"{res.number:2d}  {status:8} {res.seconds:7.1f}s  "
              f"{res.name}\n{'':22}{res.detail}")
    surprises = [r for r in results if not r.ok]
    summary = {
        "passed": int(sum(bool(r.passed) for r in results)),
        "expected_failures": [r.number for r in results
                              if not r.expected_pass],
        "surprises": [r.number for r in surprises],
        "total_seconds": round(sum(r.seconds for r in results), 2),
    }
    print(json.dumps(summary))
    rep_path = os.path.join(out_dir, "verify_report.json")
    _write_json(rep_path, {
        "summary": summary,
        "results": [{
            "number": r.number, "name": r.name, "passed": r.passed,
            "expected_pass": r.expected_pass, "detail": r.detail,
            "seconds": round(r.seconds, 3),
        } for r in results],
    })
    checks_out = {str(r.number): r.passed for r in results}
    return {}, [rep_path], checks_out, (3 if surprises else 0)


COMMANDS = {
    "partitions": _cmd_partitions,
    "paths": _cmd_paths,
    "gmatrix": _cmd_gmatrix,
    "scatter": _cmd_scatter,
    "simulate": _cmd_simulate,
    "lattice": _cmd_lattice,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bgflight",
        description="collision-series, scattering and lattice numerics")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1,
                        help="recorded in the manifest; no effect on "
                             "execution")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--theta-max", type=float, default=None,
                        dest="theta_max")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        os.makedirs(args.out, exist_ok=True)
        cfg, outputs, checks, status = COMMANDS[args.command](args, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _manifest(args.out, args.command, cfg, args.seed, args.threads,
              [os.path.basename(p) for p in outputs], checks, started)
    return status


if __name__ == "__main__":
    sys.exit(main())
