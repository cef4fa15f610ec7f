"""Batch front end: JSON configs in, CSV/JSON artifacts plus a run manifest
out.

Exit codes: 0 success, 2 configuration error, 3 numerical-check failure,
4 resource cap exceeded.  All stochastic outputs are a pure function of
(config, seed), with the seed an integer in [0, 2**64) (exit 2 outside
it): ``simulate`` draws chain i from the Philox4x64-10 counters (j + 1, i,
lane, 0) under the key (seed, 0) (``kinetic.pair_estimate``), whatever
block of chains it runs in, and ``paths`` seeds numpy's default generator.
``--threads`` is accepted and recorded in the manifest but has no effect on
execution.  Leg and vertex indices in configs and outputs are 0-based.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import gmatrix as gm
from . import kinetic as kn
from . import lattice as la
from . import partitions as pa
from . import paths as gp
from . import scattering as sc
from .errors import CapacityError, InvalidInputError, NumericsError


class ConfigError(Exception):
    pass


# config keys whose values must be JSON integers, in every command
INT_KEYS = frozenset({"n", "k", "n_max", "seed", "max_order", "nodes",
                      "born_order", "dim", "k_max", "n_samples", "gap_bins",
                      "theta_bins", "cap"})
# config keys whose values must be JSON numbers, in every command
REAL_KEYS = frozenset({"coupling", "t", "gamma", "amplitude", "width",
                       "tolerance", "r_max", "x_width", "y_width"})
# config keys whose values must be JSON true or false, in every command
BOOL_KEYS = frozenset({"ordered", "diagrams", "include_third"})


def _finite(text):
    """A JSON float, NaN or Infinity as a float, refused unless finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config numbers must be finite, not {text}")
    return value


def _load_config(path, schema, defaults):
    if path is None:
        cfg = {}
    else:
        try:
            with open(path) as fh:
                cfg = json.load(fh, parse_float=_finite,
                                parse_constant=_finite)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}")
    return _checked(cfg, schema, defaults, "config")


def _checked(cfg, schema, defaults, name):
    """``defaults`` updated by the JSON object ``cfg`` (called ``name`` in
    messages), once ``cfg`` has only keys of ``schema``, every key that
    ``schema`` marks required, integers under INT_KEYS, numbers a float can
    hold under REAL_KEYS and booleans under BOOL_KEYS."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{name} must be a JSON object")
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown {name} key: {key!r}")
        if key in INT_KEYS and (not isinstance(value, int)
                                or isinstance(value, bool)):
            raise ConfigError(f"{name} key {key!r} must be an integer, "
                              f"not {value!r}")
        if key in REAL_KEYS:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} key {key!r} must be a number, "
                                  f"not {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{name} key {key!r} is an integer too "
                                  f"large for a float")
        if key in BOOL_KEYS and not isinstance(value, bool):
            raise ConfigError(f"{name} key {key!r} must be true or false, "
                              f"not {value!r}")
    merged = dict(defaults)
    merged.update(cfg)
    missing = [k for k, req in schema.items() if req and k not in merged]
    if missing:
        raise ConfigError(f"missing required {name} key: {missing[0]!r}")
    return merged


def _array(value, shape, name):
    """``value`` (config key ``name``) as a float array of ``shape``, from
    nested lists of numbers; anything else is refused."""
    def numbers(v):
        return (all(map(numbers, v)) if isinstance(v, list) else
                isinstance(v, (int, float)) and not isinstance(v, bool))

    try:
        arr = np.asarray(value, dtype=float) if numbers(value) else None
    except ValueError:  # ragged lists
        arr = None
    except OverflowError:
        raise ConfigError(f"{name} holds an integer too large for a float")
    if arr is None or arr.shape != shape:
        what = "x".join(map(str, shape))
        raise ConfigError(f"{name} must be {what} numbers, not {value!r}")
    return arr


def _seed(args, cfg):
    """``--seed`` if given, else the config key 'seed': an integer in
    [0, 2**64), the key range of the chain stream."""
    seed = args.seed if args.seed is not None else cfg["seed"]
    if not 0 <= seed < kn.SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2**64), not {seed}")
    return seed


def _write_csv(path, header, rows):
    """CSV with floats as ``format(v, ".17g")`` and other values as
    ``str(v)``, by one format string from the first row's value types."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        fmt = ",".join("{:.17g}" if isinstance(v, float) else "{}"
                       for v in first) + "\n"
        fh.write(fmt.format(*first))
        fh.writelines(itertools.starmap(fmt.format, rows))


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
    """``obj`` as sorted, indented JSON; a NaN or infinity in it, which JSON
    has no token for, raises NumericsError before the file is opened."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, default=_np_default,
                          allow_nan=False)
    except ValueError:
        raise NumericsError(
            f"{os.path.basename(path)} would hold a non-finite number")
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


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

def _write_partitions(path, rows, marks, diagrams):
    """``partitions.jsonl`` from the label rows of ``pa.partition_rows`` or
    ``pa.marked_rows``: per row the bytes of ``json.dumps(record,
    sort_keys=True)`` for the record ``{"blocks": ..., "diagram": ...,
    "mark": ...}`` (the diagram when ``diagrams``, the mark when ``marks``
    is not None), where block i lists the indices of label i in ascending
    order.  Each piece of a line is a token picked by whole-array indexing,
    joined ``pa.ROW_CHUNK`` rows at a time."""
    n = rows.shape[1] - 1
    index = [str(j) for j in range(n + 1)]
    # the token of an index by what comes before it (its kind): nothing
    # (0), an index of its own block (1), or, for the first index of block
    # b, the last of block b - 1 (b + 1)
    blocks_token = np.array(
        [index, [", " + j for j in index], ["], [" + j for j in index]],
        dtype=object)
    diagram_token = np.array(
        [index, [", " + j for j in index]]
        + [[']}, {"depth": %d, "members": [' % (b + 1) + j for j in index]
           for b in range(1, n + 1)], dtype=object)
    index = np.array(index, dtype=object)
    circles = json.dumps(list(range(n + 1)))
    with open(path, "w", newline="\n") as fh:
        for s in range(0, len(rows), pa.ROW_CHUNK):
            chunk = rows[s:s + pa.ROW_CHUNK]
            mark = None if marks is None else index[marks[s:s + len(chunk)]]
            # each row's indices by block, ascending within a block
            labels, order = np.divmod(np.sort(
                chunk.astype(np.intp) * (n + 1) + np.arange(n + 1), axis=1),
                n + 1)
            kind = np.zeros(order.shape, np.intp)
            kind[:, 1:] = np.where(labels[:, 1:] == labels[:, :-1], 1,
                                   labels[:, 1:] + 1)
            pieces = ['{"blocks": [[', blocks_token[np.minimum(kind, 2),
                                                    order]]
            if diagrams:
                pieces += [
                    ']], "diagram": {"blocks": [{"depth": 1, "members": [',
                    diagram_token[kind, order],
                    ']}], "circles": %s, "mark": ' % circles,
                    "null" if mark is None else mark, ', "n": %d}' % n]
            else:
                pieces.append("]]")
            if mark is not None:
                pieces += [', "mark": ', mark]
            pieces.append("}\n")
            fh.write(_joined(len(chunk), pieces))


def _joined(rows, pieces):
    """The lines of ``rows`` rows, each the concatenation of ``pieces``: a
    string shared by every line, or per line one string (a 1-d array) or a
    run of strings (a 2-d array)."""
    widths = [1 if isinstance(p, str) or p.ndim == 1 else p.shape[1]
              for p in pieces]
    table = np.empty((rows, sum(widths)), dtype=object)
    col = 0
    for piece, width in zip(pieces, widths):
        table[:, col:col + width] = (piece if isinstance(piece, str)
                                     else piece.reshape(rows, width))
        col += width
    return "".join(table.ravel().tolist())


def _cmd_partitions(args, out_dir):
    cfg = _load_config(args.config, {
        "n": True, "k": True, "family": False, "ordered": False,
        "marked": False, "diagrams": False, "cap": False,
    }, {"family": "all", "ordered": False, "marked": None,
        "diagrams": False, "cap": pa.DEFAULT_ENUMERATION_CAP})
    marks = None
    if cfg["marked"] is not None:
        rows, marks = pa.marked_rows(cfg["n"], cfg["k"], cfg["marked"],
                                     ordered=cfg["ordered"], cap=cfg["cap"])
    else:
        rows = pa.partition_rows(cfg["n"], cfg["k"], cfg["family"],
                                 ordered=cfg["ordered"], cap=cfg["cap"])
    path = os.path.join(out_dir, "partitions.jsonl")
    _write_partitions(path, rows, marks, cfg["diagrams"])
    print(json.dumps({"count": len(rows)}))
    return cfg, [path], {"count": len(rows)}, 0


def _cmd_paths(args, out_dir):
    cfg = _load_config(args.config, {
        "k": True, "n_max": False, "seed": False, "tolerance": False,
    }, {"n_max": 5, "seed": 0, "tolerance": 1e-12})
    graph = gp.random_graph(np.random.default_rng(_seed(args, cfg)),
                            cfg["k"])
    rows = []
    worst = 0.0
    for n, i, j, res in gp.path_sum_identity_residuals(graph, cfg["n_max"]):
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
        "max_order": False, "nodes": False,
    }, {"w_im": None, "method": "auto", "max_order": 80, "nodes": 256})
    k = cfg["k"]
    w = _array(cfg["w_re"], (k, k), "'w_re'").astype(complex)
    if cfg["w_im"] is not None:
        w += 1j * _array(cfg["w_im"], (k, k), "'w_im'")
    graph = gp.WeightedCollisionGraph(w, _array(cfg["u"], (k,), "'u'"))
    method = None if cfg["method"] == "auto" else cfg["method"]
    result = gm.g_auto(graph, prefer=method, max_order=cfg["max_order"],
                       nodes=cfg["nodes"])
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


def _build_model(cfg):
    pot = sc.GaussianPotential(amplitude=cfg.get("amplitude", 1.0),
                               width=cfg.get("width", 1.0),
                               dim=cfg.get("dim", 3))
    return sc.ScatteringModel(
        pot, coupling=cfg["coupling"], born_order=cfg.get("born_order", 1),
        gamma=cfg.get("gamma", 0.0))


def _cmd_scatter(args, out_dir):
    cfg = _load_config(args.config, {
        "op": True, "coupling": True, "born_order": False, "gamma": False,
        "amplitude": False, "width": False, "dim": False, "y": True,
        "yp": False, "direction": False, "include_third": False,
    }, {"born_order": 1, "gamma": 0.0, "include_third": False})
    model = _build_model(cfg)
    y = _array(cfg["y"], (model.dim,), "'y'")
    out = {"op": cfg["op"]}
    if cfg["op"] == "tmat":
        if "yp" not in cfg:
            raise ConfigError("missing required config key: 'yp'")
        t = model.t_matrix(y, _array(cfg["yp"], (model.dim,), "'yp'"))
        out.update({"t_re": t.real, "t_im": t.imag})
    elif cfg["op"] == "sigma":
        if "direction" in cfg:
            out["sigma"] = model.sigma_kernel(
                y, _array(cfg["direction"], (model.dim,), "'direction'"))
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


def _symbol(spec, dim, name):
    """The observable config ``spec`` (config key ``name``) in dimension
    ``dim``."""
    spec = _checked(spec, {
        "x_center": True, "y_center": True, "x_width": False,
        "y_width": False, "amplitude": False,
    }, {"x_width": 1.0, "y_width": 1.0, "amplitude": 1.0},
        f"observable {name!r}")
    return kn.GaussianSymbol(
        x_center=_array(spec["x_center"], (dim,), f"'{name}.x_center'"),
        y_center=_array(spec["y_center"], (dim,), f"'{name}.y_center'"),
        x_width=spec["x_width"], y_width=spec["y_width"],
        amplitude=spec["amplitude"])


def _cmd_simulate(args, out_dir):
    cfg = _load_config(args.config, {
        "series": True, "coupling": True, "born_order": False,
        "amplitude": False, "width": False, "dim": False,
        "a": True, "b": False, "t": True, "k_max": False,
        "n_samples": False, "seed": False,
    }, {"born_order": 1, "k_max": 2, "n_samples": 10000, "seed": 0,
        "b": None})
    model = _build_model(cfg)
    seed = _seed(args, cfg)
    a = _symbol(cfg["a"], model.dim, "a")
    b = _symbol(cfg["b"], model.dim, "b") if cfg["b"] is not None else None
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
    window = la.LatticeWindow(
        r_max=cfg["r_max"], width=cfg["width"],
        shift=tuple(_array(cfg["shift"], (2,), "'shift'")),
        basis=_array(cfg["basis"], (2, 2), "'basis'"))
    sample = la.generate(window, cap=cfg["cap"])
    # first, so that its refusals exit before any file is written
    report = la.joint_test(sample, gap_bins=cfg["gap_bins"],
                           theta_bins=cfg["theta_bins"])
    pts_path = os.path.join(out_dir, "points.csv")
    _write_csv(pts_path, ["lambda", "theta"],
               zip(sample.lam.tolist(), sample.theta.tolist()))
    h, ge, te = la.histogram2d(sample, theta_bins=cfg["theta_bins"])
    hist_path = os.path.join(out_dir, "hist2d.csv")
    hrows = []
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            hrows.append((float(ge[i]), float(ge[i + 1]), float(te[j]),
                          float(te[j + 1]), float(h[i, j])))
    _write_csv(hist_path, ["gap_lo", "gap_hi", "theta_lo", "theta_hi",
                           "density"], hrows)
    rep_path = os.path.join(out_dir, "lattice_report.json")
    _write_json(rep_path, report)
    print(json.dumps({"count": sample.count, "ks_stat": report["ks_stat"]}))
    return (cfg, [pts_path, hist_path, rep_path],
            {k: report[k] for k in ("pass_ks", "pass_theta_uniform",
                                    "pass_independence")}, 0)


def _cmd_verify(args, out_dir):
    from . import acceptance

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
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config key 'seed' of paths and "
                             "simulate, an integer in [0, 2**64); the other "
                             "commands only record it in the manifest")
    parser.add_argument("--threads", type=int, default=1,
                        help="recorded in the manifest; no effect on "
                             "execution")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        os.makedirs(args.out, exist_ok=True)
        cfg, outputs, checks, status = COMMANDS[args.command](args, args.out)
        # paths and simulate run on the config's seed unless --seed is given
        seed = cfg.get("seed") if args.seed is None else args.seed
        _manifest(args.out, args.command, cfg, seed, args.threads,
                  [os.path.basename(p) for p in outputs], checks, started)
    except (ConfigError, InvalidInputError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
