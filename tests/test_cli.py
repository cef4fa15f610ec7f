import json
import warnings

import numpy as np
import pytest

from bgflight.cli import main
from bgflight.gmatrix import bessel_j_quadrature

warnings.filterwarnings("ignore", category=UserWarning)


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


def test_lattice_outputs(tmp_path):
    cfg = write(tmp_path / "c.json", {"r_max": 50000.0, "width": 2000.0})
    out = tmp_path / "out"
    assert main(["lattice", "--config", cfg, "--out", str(out)]) == 0
    pts = (out / "points.csv").read_text().splitlines()
    assert pts[0] == "lambda,theta"
    assert abs(len(pts) - 1 - 2000) < 200
    assert (out / "gaps.csv").exists() and (out / "hist2d.csv").exists()
    report = json.loads((out / "lattice_report.json").read_text())
    assert "ks_stat" in report and "independence_p" in report
    # LF endings, no CR
    assert b"\r" not in (out / "points.csv").read_bytes()
