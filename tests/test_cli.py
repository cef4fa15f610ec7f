import json
import time
import tracemalloc

import numpy as np
import pytest

from bgflight import acceptance, cli, gmatrix
from bgflight import kinetic as kn
from bgflight import lattice as la
from bgflight import partitions as pa
from bgflight.cli import main
from bgflight.gmatrix import bessel_j_quadrature
from bgflight.paths import WeightedCollisionGraph


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_partitions_jsonl(tmp_path):
    cfg = write(tmp_path / "c.json",
                {"n": 4, "k": 2, "family": "circ_nc"})
    out = tmp_path / "out"
    assert main(["partitions", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "partitions.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"blocks": [[0, 2, 4], [1, 3]]}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"]["count"] == 1
    assert manifest["command"] == "partitions"


def test_partitions_marked_with_diagram(tmp_path):
    cfg = write(tmp_path / "c.json",
                {"n": 2, "k": 1, "marked": "reduced_diag", "diagrams": True})
    out = tmp_path / "out"
    assert main(["partitions", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "partitions.jsonl").read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[1])
    assert rec["mark"] == 1 and rec["diagram"]["circles"] == [0, 1, 2]


# every family and marked class, unordered and ordered, with and without
# diagrams; n = 7 and k = 3 give each of them more than 10 items
_JSONL_GRID = [
    ({"n": 7, "k": 3, "family": family, "ordered": ordered,
      "diagrams": diagrams}, f"{family}-{kind}-{layout}")
    for family in pa.FAMILIES
    for ordered, kind in ((False, "unordered"), (True, "ordered"))
    for diagrams, layout in ((False, "blocks"), (True, "diagrams"))
] + [
    ({"n": 7, "k": 3, "marked": cls, "ordered": ordered,
      "diagrams": diagrams}, f"marked_{cls}-{kind}-{layout}")
    for cls in pa.MARKED_CLASSES
    for ordered, kind in ((False, "unordered"), (True, "ordered"))
    for diagrams, layout in ((False, "blocks"), (True, "diagrams"))
]


@pytest.mark.parametrize("config", [
    {"n": 6, "k": 3, "family": "baro", "ordered": True},
    {"n": 6, "k": 3, "marked": "reduced_off", "ordered": True},
    {"n": 5, "k": 2, "marked": "all", "diagrams": True},
    {"n": 5, "k": 3, "family": "circ", "diagrams": True},
    # S(10, 4) = 34105 rows: three write chunks
    {"n": 9, "k": 4, "family": "all", "diagrams": True},
] + [config for config, _ in _JSONL_GRID],
    ids=["plain", "marked", "marked_diagrams", "diagrams", "chunks"]
    + [name for _, name in _JSONL_GRID])
def test_partitions_jsonl_is_the_sorted_json_of_each_record(tmp_path,
                                                            config):
    # oracle: one json.dumps(record, sort_keys=True) line per item
    if "marked" in config:
        items = pa.enumerate_marked(config["n"], config["k"],
                                    config["marked"],
                                    ordered=config.get("ordered", False))
    else:
        items = pa.enumerate_partitions(config["n"], config["k"],
                                        config["family"],
                                        ordered=config.get("ordered", False))
    expected = []
    for item in items:
        record = {"blocks": [list(b) for b in item.blocks]}
        if "marked" in config:
            record["mark"] = item.mark
        if config.get("diagrams"):
            record["diagram"] = pa.to_diagram(item)
        expected.append(json.dumps(record, sort_keys=True) + "\n")
    assert len(expected) > 10
    if config["k"] == 4:  # "chunks": the last write chunk is partial
        assert 2 * pa.ROW_CHUNK < len(expected) < 3 * pa.ROW_CHUNK
    out = tmp_path / "out"
    assert main(["partitions", "--config", write(tmp_path / "c.json", config),
                 "--out", str(out)]) == 0
    assert (out / "partitions.jsonl").read_text() == "".join(expected)


def _csv_oracle(header, rows):
    """CSV text by the cell rule: floats as format(v, ".17g"), else str."""
    return ",".join(header) + "\n" + "".join(
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                 for v in row) + "\n" for row in rows)


def test_lattice_csv_rows_by_the_cell_rule(tmp_path):
    config = {"r_max": 50000.0, "width": 2000.0}
    sample = la.generate(la.LatticeWindow(**config))
    out = tmp_path / "out"
    assert main(["lattice", "--config", write(tmp_path / "c.json", config),
                 "--out", str(out)]) == 0
    assert (out / "points.csv").read_text() == _csv_oracle(
        ["lambda", "theta"], zip(sample.lam.tolist(), sample.theta.tolist()))


def test_simulate_csv_rows_by_the_cell_rule(tmp_path):
    config = dict(SIMULATE_LB, k_max=3, seed=5)
    model = cli._build_model(config)
    est = kn.pair_estimate("lb", cli._symbol(config["a"], 3, "a"), None,
                           config["t"], 3, config["n_samples"], model,
                           seed=5)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write(tmp_path / "c.json", config),
                 "--out", str(out)]) == 0
    # integer k, float contribution
    assert (out / "simulate.csv").read_text() == _csv_oracle(
        ["k", "contribution"], sorted(est.per_k.items()))


def test_write_csv_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    cli._write_csv(path, ["a", "b"], iter(()))
    assert path.read_text() == "a,b\n"


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {"n": 2, "k": 1, "bogus": True})
    assert main(["partitions", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2,')
    assert main(["partitions", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "malformed" in capsys.readouterr().err


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {"n": 2})
    assert main(["partitions", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "'k'" in capsys.readouterr().err


def test_capacity_exit_4(tmp_path):
    cfg = write(tmp_path / "c.json", {"n": 11, "k": 5, "cap": 10})
    assert main(["partitions", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("k, n_max", [(6, 9), (8, 12)])
def test_paths_cap_bounds_the_whole_run(tmp_path, capsys, k, n_max):
    # each (n, start, end) call stays below the cap, but the run as a whole
    # enumerates more paths (about 1.5e7 and 1.3e11): it exits 4 before the
    # first one is built
    cfg = write(tmp_path / "c.json", {"k": k, "n_max": n_max})
    out = tmp_path / "out"
    started = time.perf_counter()
    assert main(["paths", "--config", cfg, "--out", str(out)]) == 4
    assert time.perf_counter() - started < 5.0
    assert "exceed cap 10000000" in capsys.readouterr().err
    assert not (out / "paths_identity.jsonl").exists()


def test_paths_identity(tmp_path):
    cfg = write(tmp_path / "c.json", {"k": 2, "n_max": 3})
    out = tmp_path / "out"
    assert main(["paths", "--config", cfg, "--out", str(out)]) == 0
    rows = [json.loads(line) for line in
            (out / "paths_identity.jsonl").read_text().splitlines()]
    assert all(row["residual"] <= 1e-12 for row in rows)


def test_gmatrix_eval(tmp_path):
    cfg = write(tmp_path / "c.json", {
        "k": 2, "u": [0.5, 1.0],
        "w_re": [[0, 0.4], [0.3, 0]],
        "w_im": [[0, 0.1], [-0.2, 0]],
        "method": "contour", "nodes": 128})
    out = tmp_path / "out"
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "gmatrix.json").read_text())
    assert payload["method"] == "contour"
    assert payload["quad_error"] < 1e-8
    cfg2 = write(tmp_path / "c2.json", {
        "k": 2, "u": [0.5, 1.0],
        "w_re": [[0, 0.4], [0.3, 0]],
        "w_im": [[0, 0.1], [-0.2, 0]]})
    out2 = tmp_path / "out2"
    assert main(["gmatrix", "--config", cfg2, "--out", str(out2)]) == 0
    other = json.loads((out2 / "gmatrix.json").read_text())
    for i in range(2):
        for j in range(2):
            assert other["entries_re"][i][j] == pytest.approx(
                payload["entries_re"][i][j], abs=1e-9)


def test_gmatrix_k3_contour_at_default_nodes(tmp_path):
    # 256 nodes per circle: the series within 1e-12 of the largest entry
    graph = {"k": 3, "u": [0.4, 0.9, 0.7],
             "w_re": [[0, 0.21, -0.13], [-0.27, 0, 0.08], [0.3, -0.05, 0]],
             "w_im": [[0, -0.1, 0.24], [0.16, 0, -0.29], [0.02, 0.19, 0]]}
    cfg = write(tmp_path / "c.json", dict(graph, method="contour"))
    out = tmp_path / "out"
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "gmatrix.json").read_text())
    assert payload["method"] == "contour" and payload["nodes"] == 256
    g = np.asarray(payload["entries_re"]) + 1j * np.asarray(
        payload["entries_im"])
    w = np.asarray(graph["w_re"]) + 1j * np.asarray(graph["w_im"])
    ser = gmatrix.g_series(WeightedCollisionGraph(w, graph["u"])).entries
    assert np.max(np.abs(g - ser)) <= 1e-12 * max(1.0, np.max(np.abs(ser)))


def test_gmatrix_k2_beyond_former_series_cap(tmp_path):
    # |z| = 2 sqrt(u1 u2 (-w01 w10)) = 40
    cfg = write(tmp_path / "c.json", {
        "k": 2, "u": [20, 20], "w_re": [[0, 1], [-1, 0]]})
    out = tmp_path / "out"
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "gmatrix.json").read_text())
    g = np.asarray(payload["entries_re"]) + 1j * np.asarray(
        payload["entries_im"])
    assert g[0, 1] == pytest.approx(bessel_j_quadrature(0, 40.0), abs=1e-13)
    assert g[0, 0] == pytest.approx(-bessel_j_quadrature(1, 40.0), abs=1e-13)


def test_scatter_born3_beyond_grid_cap_exits_4(tmp_path, capsys):
    # the T3 grid at |y| = 10 is refused before any grid is built
    cfg = write(tmp_path / "c.json", {"op": "sigma", "coupling": 0.1,
                                      "born_order": 3, "y": [10.0, 0, 0]})
    started = time.perf_counter()
    assert main(["scatter", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert time.perf_counter() - started < 5.0
    assert "resource cap" in capsys.readouterr().err


def test_gmatrix_k4_default_nodes_exceeds_grid_cap(tmp_path, capsys):
    # 256^3 grid points: refused before any grid is built
    cfg = write(tmp_path / "c.json", {
        "k": 4, "u": [0.5, 0.5, 0.5, 0.5],
        "w_re": [[0, 0.2, 0, 0], [0.1, 0, 0.3, 0], [0, 0.2, 0, 0.1],
                 [0.3, 0, 0.1, 0]], "method": "contour"})
    started = time.perf_counter()
    assert main(["gmatrix", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert time.perf_counter() - started < 5.0
    assert "resource cap" in capsys.readouterr().err


def test_gmatrix_k10_coefficient_stack_exceeds_grid_cap(tmp_path, capsys):
    # k = 10 at the 4-node minimum: a grid of 4^9 points, but 2^10 * 10^4
    # entries in the stack of coefficient dets, refused before it is built
    k = 10
    cfg = write(tmp_path / "c.json", {
        "k": k, "u": [0.5] * k, "method": "contour", "nodes": 4,
        "w_re": (0.1 * (np.ones((k, k)) - np.eye(k))).tolist()})
    tracemalloc.start()
    try:
        code = main(["gmatrix", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and peak < 2 ** 20
    assert "resource cap" in capsys.readouterr().err


def test_gmatrix_unconverged_series_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {
        "k": 3, "u": [1.0, 1.0, 1.0],
        "w_re": [[0, 0.5, -0.3], [0.2, 0, 0.6], [-0.4, 0.1, 0]],
        "method": "series", "max_order": 4})
    out = tmp_path / "out"
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 3
    assert "not converged" in capsys.readouterr().err
    payload = json.loads((out / "gmatrix.json").read_text())
    assert payload["converged"] is False
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks"] == {"converged": False}


def test_gmatrix_series_cancellation_exits_3(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {
        "k": 2, "u": [20, 20], "w_re": [[0, 1], [-1, 0]],
        "method": "series", "max_order": 200})
    out = tmp_path / "out"
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 3
    assert "not converged" in capsys.readouterr().err


# a k = 3 graph with wide weights, largest entry 8.04, on which the series
# converges: circles of radius 1 + 1.1 r0 put the 256-node contour 4.9 off
# (quad_error 1.7), the radii of gmatrix._radii within 1e-10
G3_WIDE = {"k": 3, "u": [2.0, 2.5, 3.0],
           "w_re": [[0, -0.312, -1.905], [-1.518, 0, 0.595],
                    [0.466, -0.47, 0]],
           "w_im": [[0, 0.75, 0.608], [0.761, 0, -1.474], [0.895, 0.102, 0]]}


def test_gmatrix_k3_default_is_the_series(tmp_path, capsys):
    out, ref = tmp_path / "auto", tmp_path / "series"
    assert main(["gmatrix", "--config", write(tmp_path / "a.json", G3_WIDE),
                 "--out", str(out)]) == 0
    assert main(["gmatrix", "--config",
                 write(tmp_path / "s.json", dict(G3_WIDE, method="series")),
                 "--out", str(ref)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["method"] == "series"
    assert summary["max_abs"] == pytest.approx(8.04, abs=5e-3)
    assert (out / "gmatrix.json").read_bytes() == \
        (ref / "gmatrix.json").read_bytes()
    assert json.loads((out / "gmatrix.json").read_text())["converged"]


def test_gmatrix_k3_wide_contour_matches_the_series(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "c.json", dict(G3_WIDE, method="contour"))
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "gmatrix.json").read_text())
    assert payload["nodes"] == 256
    g = np.asarray(payload["entries_re"]) + 1j * np.asarray(
        payload["entries_im"])
    w = np.array(G3_WIDE["w_re"]) + 1j * np.array(G3_WIDE["w_im"])
    ser = gmatrix.g_series(WeightedCollisionGraph(w, G3_WIDE["u"])).entries
    scale = max(1.0, np.max(np.abs(ser)))
    assert np.max(np.abs(g - ser)) <= 1e-10 * scale
    assert payload["quad_error"] <= 1e-10 * scale


def test_gmatrix_default_unconverged_exits_3(tmp_path, capsys):
    # scaled to max |w| = 3 the series reaches its order cap; the default
    # reports that rather than falling back to the contour
    w = np.array(G3_WIDE["w_re"]) + 1j * np.array(G3_WIDE["w_im"])
    w *= 3 / np.max(np.abs(w))
    cfg = write(tmp_path / "c.json", dict(
        G3_WIDE, w_re=w.real.tolist(), w_im=w.imag.tolist()))
    out = tmp_path / "out"
    assert main(["gmatrix", "--config", cfg, "--out", str(out)]) == 3
    assert "not converged at order 80" in capsys.readouterr().err
    payload = json.loads((out / "gmatrix.json").read_text())
    assert payload["method"] == "series" and payload["converged"] is False


@pytest.mark.parametrize("command, config, message", [
    # the contour works its radii out from the graph: a radius of any shape
    # is refused as an unknown key
    ("gmatrix", dict(G3_WIDE, method="contour", radius=[20, 20]),
     "unknown config key: 'radius'"),
    ("gmatrix", dict(G3_WIDE, method="contour", radius="20"),
     "unknown config key: 'radius'"),
    ("gmatrix", dict(G3_WIDE, w_re=[[0, "1", 0], [0, 0, 0], [0, 0, 0]]),
     "'w_re' must be 3x3 numbers"),
    ("gmatrix", dict(G3_WIDE, w_im=[[0, 1], [1, 0]]),
     "'w_im' must be 3x3 numbers"),
    ("gmatrix", dict(G3_WIDE, k=2), "'w_re' must be 2x2 numbers"),
    ("gmatrix", dict(G3_WIDE, u=[1.0, True, 2.0]), "'u' must be 3 numbers"),
    ("lattice", {"r_max": 50000.0, "width": 2000.0, "shift": [0.1, 0.2, 0]},
     "'shift' must be 2 numbers"),
    ("lattice", {"r_max": 50000.0, "width": 2000.0, "shift": "0.1"},
     "'shift' must be 2 numbers"),
], ids=["gmatrix_radius_length", "gmatrix_radius_string",
        "gmatrix_w_re_string", "gmatrix_w_im_shape", "gmatrix_k_mismatch",
        "gmatrix_u_bool", "lattice_shift_length", "lattice_shift_string"])
def test_malformed_array_exits_2(tmp_path, capsys, command, config, message):
    cfg = write(tmp_path / "c.json", config)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("partitions", None, "missing required config key: 'n'"),
    ("scatter", {"op": "tmat", "coupling": 0.3, "y": [1, 0, 0]},
     "missing required config key: 'yp'"),
    ("scatter", {"op": "phase", "coupling": 0.3, "y": [1, 0, 0]},
     "'op' value 'phase'"),
    ("gmatrix", dict(G3_WIDE, method="contour", nodes=3),
     "at least 4 nodes"),
    ("gmatrix", dict(G3_WIDE, method="contour", nodes=33),
     "need an even count"),
    ("gmatrix", dict(G3_WIDE, method="bessel_k2"), "only exists for k = 2"),
    ("gmatrix", dict(G3_WIDE, method="residues"),
     "unknown method 'residues'"),
    # JSON text as written, for the literals json.dumps does not write
    ("scatter", '{"op": "sigma", "coupling": NaN, "y": [1, 0, 0], '
     '"direction": [0, 1, 0]}', "must be finite, not NaN"),
    ("scatter", '{"op": "sigma", "coupling": 1e400, "y": [1, 0, 0], '
     '"direction": [0, 1, 0]}', "must be finite, not 1e400"),
    ("lattice", '{"r_max": Infinity, "width": 2000.0}',
     "must be finite, not Infinity"),
    ("gmatrix", json.dumps(dict(G3_WIDE, u=[2.0, float("nan"), 3.0])),
     "must be finite, not NaN"),
], ids=["no_config", "scatter_tmat_without_yp", "scatter_unknown_op",
        "gmatrix_contour_3_nodes", "gmatrix_contour_odd_nodes",
        "gmatrix_bessel_k2_at_k3", "gmatrix_unknown_method",
        "scatter_nan_coupling",
        "scatter_overflowing_coupling", "lattice_infinite_r_max",
        "gmatrix_nan_time"])
def test_config_error_exits_2(tmp_path, capsys, command, config, message):
    argv = [command, "--out", str(tmp_path / "out")]
    if isinstance(config, str):
        (tmp_path / "c.json").write_text(config)
        argv += ["--config", str(tmp_path / "c.json")]
    elif config is not None:
        argv += ["--config", write(tmp_path / "c.json", config)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_scatter_ops(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path / "t.json", {
        "op": "tmat", "coupling": 0.3, "y": [1, 0, 0], "yp": [0, 1, 0]})
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    cfg = write(tmp_path / "s.json", {
        "op": "sigma", "coupling": 0.3, "y": [1, 0, 0],
        "direction": [0, 1, 0]})
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "scatter.json").read_text())
    assert payload["sigma_tot"] > 0 and payload["sigma"] >= 0
    cfg = write(tmp_path / "o.json", {
        "op": "optical", "coupling": 0.05, "born_order": 2, "y": [1, 0, 0]})
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "scatter.json").read_text())
    assert abs(payload["residual_over_coupling_sq"]) <= 1e-3


def test_scatter_tmat_at_zero_momentum(tmp_path, capsys):
    # off shell the theta ray is the real axis; on shell the integrand does
    # not decay and the run ends as a numerical failure
    out = tmp_path / "out"
    tmat = {"op": "tmat", "coupling": 0.3, "born_order": 3,
            "y": [0, 0, 0], "yp": [0, 0.5, 0]}
    cfg = write(tmp_path / "off.json", dict(tmat, gamma=0.3))
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "scatter.json").read_text())
    assert np.isfinite([payload["t_re"], payload["t_im"]]).all()
    cfg = write(tmp_path / "on.json", dict(tmat, gamma=0))
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_deterministic(tmp_path):
    cfg = write(tmp_path / "c.json", {
        "series": "lb", "coupling": 0.4, "t": 0.6, "k_max": 2,
        "n_samples": 400, "seed": 9,
        "a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0],
              "x_width": 1.2, "y_width": 0.8},
        "b": {"x_center": [0.5, 0, 0], "y_center": [0.9, 0, 0]}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "simulate.csv").read_bytes() == \
        (out2 / "simulate.csv").read_bytes()
    diag = json.loads((out1 / "simulate.json").read_text())
    assert diag["n_samples"] == 400


def test_simulate_thread_invariance(tmp_path):
    cfg = write(tmp_path / "c.json", {
        "series": "new", "coupling": 0.4, "t": 0.6, "k_max": 2,
        "n_samples": 300, "seed": 4,
        "a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0]},
        "b": {"x_center": [0.5, 0, 0], "y_center": [0.9, 0, 0]}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg, "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2),
                 "--threads", "2"]) == 0
    assert (out1 / "simulate.csv").read_bytes() == \
        (out2 / "simulate.csv").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["threads"] == 2


def test_simulate_single_sample_exits_2(tmp_path):
    cfg = write(tmp_path / "c.json", {
        "series": "lb", "coupling": 0.4, "t": 0.6, "n_samples": 1,
        "a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0]}})
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2


SIMULATE_LB = {
    "series": "lb", "coupling": 0.4, "t": 0.6, "n_samples": 20,
    "a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0]}}


@pytest.mark.parametrize("change, message", [
    ({"a": {"y_center": [1, 0, 0]}}, "'x_center'"),
    ({"a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0], "x_wdth": 2}},
     "'x_wdth'"),
    ({"a": {"x_center": [0, 0], "y_center": [1, 0, 0]}}, "a.x_center"),
    ({"n_samples": "100"}, "'n_samples'"),
    ({"k_max": 2.0}, "'k_max'"),
], ids=["missing_x_center", "unknown_observable_key", "short_x_center",
        "string_n_samples", "float_k_max"])
def test_simulate_malformed_config_exits_2(tmp_path, capsys, change,
                                           message):
    cfg = write(tmp_path / "c.json", dict(SIMULATE_LB, **change))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_scatter_zero_direction_exits_2(tmp_path, capsys):
    # the kernel of a zero direction used to be written as NaN
    cfg = write(tmp_path / "c.json", {
        "op": "sigma", "coupling": 0.3, "y": [1, 0, 0],
        "direction": [0, 0, 0]})
    out = tmp_path / "out"
    assert main(["scatter", "--config", cfg, "--out", str(out)]) == 2
    assert "direction must be non-zero" in capsys.readouterr().err
    assert not (out / "scatter.json").exists()


@pytest.mark.parametrize("key", ["gap_bins", "theta_bins"])
@pytest.mark.parametrize("bins", [0, -3, 1])
def test_lattice_bins_below_2_exit_2(tmp_path, capsys, key, bins):
    # 0 and -3 used to end in a traceback, 1 in NaN p-values and exit 0
    cfg = write(tmp_path / "c.json",
                {"r_max": 50000.0, "width": 2000.0, key: bins})
    out = tmp_path / "out"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 2
    assert f"{key} must be at least 2, not {bins}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_scatter_short_momentum_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "c.json", {
        "op": "tmat", "coupling": 0.3, "y": [1, 0], "yp": [0, 1, 0]})
    assert main(["scatter", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "'y'" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("simulate", dict(SIMULATE_LB, t="0.6")),
    ("simulate", dict(SIMULATE_LB, coupling="0.4")),
    ("simulate", dict(SIMULATE_LB, a=dict(SIMULATE_LB["a"], x_width="1"))),
    ("scatter", {"op": "sigma", "coupling": "0.1", "y": [1, 0, 0]}),
    ("scatter", {"op": "sigma", "coupling": 0.1, "gamma": "0",
                 "y": [1, 0, 0]}),
    ("lattice", {"r_max": "785398.16", "width": 2000.0}),
    ("paths", {"k": 3, "tolerance": "1e-12"}),
    ("scatter", {"op": "sigma", "coupling": True, "y": [1, 0, 0]}),
], ids=["simulate_t", "simulate_coupling", "observable_x_width",
        "scatter_coupling", "scatter_gamma", "lattice_r_max",
        "paths_tolerance", "bool_coupling"])
def test_string_for_real_key_exits_2(tmp_path, capsys, command, config):
    cfg = write(tmp_path / "c.json", config)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("partitions", {"n": 4, "k": 2, "ordered": "false"}),
    ("partitions", {"n": 4, "k": 2, "diagrams": 1}),
    ("scatter", {"op": "optical", "coupling": 0.1, "y": [1, 0, 0],
                 "include_third": "no"}),
], ids=["ordered", "diagrams", "include_third"])
def test_non_boolean_flag_exits_2(tmp_path, capsys, command, config):
    # a truthy string or number used to be taken as true
    cfg = write(tmp_path / "c.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "must be true or false" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_lattice_outputs(tmp_path):
    cfg = write(tmp_path / "c.json", {"r_max": 50000.0, "width": 2000.0})
    out = tmp_path / "out"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 0
    pts = (out / "points.csv").read_text().splitlines()
    assert pts[0] == "lambda,theta"
    assert abs(len(pts) - 1 - 2000) < 200
    # the gaps are np.diff of the lambda column: no file of their own
    assert not (out / "gaps.csv").exists() and (out / "hist2d.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["outputs"] == [
        "points.csv", "hist2d.csv", "lattice_report.json"]
    report = json.loads((out / "lattice_report.json").read_text())
    assert "ks_stat" in report and "independence_p" in report
    # LF endings, no CR
    assert b"\r" not in (out / "points.csv").read_bytes()


@pytest.mark.parametrize("command, config", [
    ("scatter", {"op": "tmat", "coupling": 0.3, "y": [1, 0, 0],
                 "yp": [0, 1, 0], "tolerance": 1e-11}),
    ("simulate", dict(SIMULATE_LB, tolerance=1e-11)),
], ids=["scatter", "simulate"])
def test_tolerance_is_unknown_outside_paths(tmp_path, capsys, command,
                                            config):
    cfg = write(tmp_path / "c.json", config)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key: 'tolerance'" in capsys.readouterr().err


def test_help_describes_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    seed_help = text[text.rindex("--seed SEED"):text.rindex("--threads")]
    assert "config key 'seed' of paths and simulate" in seed_help
    assert "only record it in the manifest" in seed_help


@pytest.mark.parametrize("command, config, argv", [
    ("simulate", dict(SIMULATE_LB, seed=-1), []),
    ("simulate", SIMULATE_LB, ["--seed", str(2 ** 64)]),
    ("paths", {"k": 3, "seed": -1}, []),
    ("paths", {"k": 3}, ["--seed", "-5"]),
], ids=["simulate_config", "simulate_flag", "paths_config", "paths_flag"])
def test_seed_outside_range_exits_2(tmp_path, capsys, command, config, argv):
    cfg = write(tmp_path / "c.json", config)
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "out")] + argv) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err


def test_simulate_largest_seed(tmp_path):
    cfg = write(tmp_path / "c.json", dict(SIMULATE_LB, seed=2 ** 64 - 1))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("series", ["lb", "new"])
def test_simulate_chain_block_invariance(tmp_path, monkeypatch, series):
    # chain i reads only its own counters, so the block size of
    # pair_estimate changes no byte of the artifacts
    from bgflight import kinetic
    cfg = write(tmp_path / "c.json", {
        "series": series, "coupling": 0.4, "t": 0.6, "k_max": 3,
        "n_samples": 300, "seed": 5,
        "a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0],
              "x_width": 1.2, "y_width": 0.8},
        "b": {"x_center": [0.9, 0.2, 0], "y_center": [0.9, 0.1, 0]}})
    artifacts = []
    for block in (1, 7, 256):
        monkeypatch.setattr(kinetic, "CHAIN_BLOCK", block)
        out = tmp_path / f"o{block}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        artifacts.append([(out / name).read_bytes()
                          for name in ("simulate.csv", "simulate.json")])
    assert artifacts[0] == artifacts[1] == artifacts[2]
    assert json.loads(artifacts[0][1])["value"] > 0


# a few proposal chains start above |y| = 3, where the table warns; the
# warning is tested in test_kinetic.py
@pytest.mark.filterwarnings("ignore:shell table error estimate")
@pytest.mark.parametrize("dim, born_order", [(3, 2), (4, 1)])
def test_simulate_shell_table_invariance(tmp_path, monkeypatch, dim,
                                         born_order):
    # above Born order 1, or in d > 3, directions come from the shell
    # table, which treats each chain's row alone: neither the block size
    # nor --threads changes a byte of the artifacts
    from bgflight import kinetic
    pad = [0.0] * (dim - 3)
    cfg = write(tmp_path / "c.json", {
        "series": "new", "coupling": 0.4, "t": 1.0, "k_max": 3,
        "n_samples": 120, "seed": 5, "born_order": born_order, "dim": dim,
        "a": {"x_center": [0, 0, 0] + pad, "y_center": [1, 0, 0] + pad,
              "x_width": 1.2, "y_width": 0.8},
        "b": {"x_center": [0.9, 0.2, 0] + pad,
              "y_center": [0.9, 0.1, 0] + pad}})
    artifacts = []
    for block, threads in ((1, 1), (7, 2), (256, 1), (256, 2)):
        monkeypatch.setattr(kinetic, "CHAIN_BLOCK", block)
        out = tmp_path / f"o{block}.{threads}"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 0
        artifacts.append([(out / name).read_bytes()
                          for name in ("simulate.csv", "simulate.json")])
    assert all(a == artifacts[0] for a in artifacts[1:])
    # chains scattered: the two-leg term is there
    rows = artifacts[0][0].decode().split()
    assert float(rows[2].split(",")[1]) != 0.0


def _stub_check(number, passed, expected_pass=True):
    def check():
        return acceptance.CheckResult(number, f"stub {number}", passed,
                                      f"detail {number}", 0.25,
                                      expected_pass)
    return check


@pytest.mark.parametrize("surprise", [False, True],
                         ids=["as_expected", "surprise"])
def test_verify_reports_and_exits_by_expectation(tmp_path, monkeypatch,
                                                 capsys, surprise):
    # a numpy bool verdict (as criterion 8 returns) is written as JSON
    # true; an expected failure exits 0, a surprise exits 3
    checks = [_stub_check(1, np.bool_(True)), _stub_check(2, False, False)]
    if surprise:
        checks.append(_stub_check(3, False))
    monkeypatch.setattr(acceptance, "ALL_CHECKS", checks)
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == (3 if surprise else 0)
    printed = capsys.readouterr().out
    assert " 1  PASS " in printed and " 2  XFAIL " in printed
    assert (" 3  FAIL " in printed) == surprise
    report = json.loads((out / "verify_report.json").read_text())
    assert report["summary"] == {
        "passed": 1, "expected_failures": [2],
        "surprises": [3] if surprise else [],
        "total_seconds": 0.25 * len(checks)}
    assert [r["passed"] for r in report["results"]] == \
        [True, False] + [False] * surprise
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["checks"] == dict(
        {"1": True, "2": False}, **({"3": False} if surprise else {}))
