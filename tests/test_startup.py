"""What ``import bgflight.cli`` and each command load into a fresh
interpreter.

Importing ``scipy.special`` is over half of the CLI's start-up time, so it
is imported only by the functions that take Bessel, Kolmogorov, chi-squared
or Jacobi values.  This test process has scipy loaded already, so every case
runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgflight

SRC = Path(bgflight.__file__).resolve().parents[1]

_PROBE = """
import json, sys
import bgflight.cli
loaded = [m for m in sys.modules
          if m == "scipy" or m.startswith("scipy.")
          or m == "bgflight.acceptance"]
code = None
if len(sys.argv) > 1:
    code = bgflight.cli.main(sys.argv[1:])
print(json.dumps({"at_import": loaded, "exit": code,
                  "special": "scipy.special" in sys.modules}))
"""


def _probe(tmp_path, command=None, config=None):
    argv = []
    if command is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_neither_scipy_nor_the_acceptance_checks(tmp_path):
    assert _probe(tmp_path) == {"at_import": [], "exit": None,
                                "special": False}


_SYMBOLS = {"a": {"x_center": [0, 0, 0], "y_center": [1, 0, 0]},
            "b": {"x_center": [0.5, 0, 0], "y_center": [0.9, 0, 0]}}
_GRAPH3 = {"k": 3, "u": [0.5, 0.7, 0.9],
           "w_re": [[0, 0.2, -0.1], [0.1, 0, 0.3], [-0.2, 0.1, 0]],
           "w_im": [[0, 0.1, 0.2], [-0.1, 0, 0.1], [0.2, -0.3, 0]]}


@pytest.mark.parametrize("command, config, special", [
    ("partitions", {"n": 5, "k": 3, "family": "all"}, False),
    ("paths", {"k": 2, "n_max": 3}, False),
    ("scatter", {"op": "sigma", "coupling": 0.1, "born_order": 2,
                 "y": [1, 0, 0]}, False),
    ("gmatrix", dict(_GRAPH3, method="series"), False),
    ("simulate", dict(_SYMBOLS, series="lb", coupling=0.4, t=0.6, k_max=2,
                      n_samples=20, seed=9), False),
    # the k = 2 closed form takes J_0 and J_2, lattice the KS and chi-squared
    # p-values: these load scipy.special at their first call
    ("gmatrix", {"k": 2, "u": [0.5, 1.0], "w_re": [[0, 0.4], [0.3, 0]],
                 "w_im": [[0, 0.1], [-0.2, 0]]}, True),
    ("lattice", {"r_max": 50000.0, "width": 2000.0}, True),
], ids=["partitions", "paths", "scatter-born2", "gmatrix-k3-series",
        "simulate-lb-born1", "gmatrix-k2", "lattice"])
def test_commands_load_scipy_special_only_where_used(tmp_path, command,
                                                     config, special):
    result = _probe(tmp_path, command, config)
    assert result["exit"] == 0
    assert result["special"] is special
