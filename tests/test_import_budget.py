"""Which scipy and numpy.random modules a fresh CLI process loads, mode
by mode.

On a 2-core host numpy imports in about 0.1 s, and scipy.special and
scipy.optimize add about 0.5 s between them; numpy.random, which only
sampling needs, adds about 14 ms.  A theory run on a non-dense
covariance needs none of scipy and no sampling, so these checks keep
that cost from coming back.  A bare ``import scipy`` (the manifest
records its version) is allowed.
"""

import json
import os
import subprocess
import sys

import numpy as np

import poisonlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(poisonlab.__file__)))
HEAVY = ("scipy.optimize", "scipy.special", "scipy.linalg")

# Runs each (config, out dir) pair through cli.main in one process, then
# prints the exit codes and the scipy and numpy.random modules that were
# loaded.
RUNNER = """
import json, sys
from poisonlab import cli
runs = json.loads(sys.argv[1])
codes = [cli.main(["run", "--config", cfg, "--out", out]) for cfg, out in runs]
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.", "numpy.random")))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

PROBLEM = {"p": 40, "n": 80, "phi": 0.2, "lam": 0.5}


def run_fresh(tmp_path, payloads):
    runs = []
    for i, payload in enumerate(payloads):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(payload))
        runs.append((str(path), str(tmp_path / f"out{i}")))
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["codes"], set(result["loaded"])


def loads(loaded, package):
    return any(m == package or m.startswith(package + ".") for m in loaded)


def test_theory_sweep_and_population_runs_load_no_scipy_submodule(tmp_path):
    spectrum = np.linspace(0.5, 2.0, PROBLEM["p"]).tolist()
    payloads = [
        {"mode": "theory", "loss": "logistic", "alpha_grid": [0.0, 1.0, 4.0],
         "problem": dict(PROBLEM, covariance={"kind": "spectrum", "eigenvalues": spectrum})},
        {"mode": "eigen_sweep", "loss": "logistic", "alpha_grid": [0.5, 1.0],
         "problem": dict(PROBLEM, covariance={"kind": "eigen_pair", "s_mu_sq": 1.0,
                                              "s_v_sq": 1.0, "s_rest_sq": 1.0}),
         "sweep": {"s_v_sq_values": [0.5, 2.0]}},
        {"mode": "population", "loss": "logistic", "alpha_grid": [0.0, 2.0],
         "population": {"s_mu_sq": 1.0, "s_v_sq": 1.0, "lam": 0.5, "phi": 0.2}},
    ]
    codes, loaded = run_fresh(tmp_path, payloads)
    assert codes == [0, 0, 0]
    assert not [package for package in HEAVY if loads(loaded, package)]
    assert not loads(loaded, "numpy.random")


def test_dense_and_erm_runs_load_only_scipy_linalg(tmp_path):
    p = PROBLEM["p"]
    a = np.random.default_rng(2).standard_normal((p, p))
    np.savetxt(tmp_path / "cov.csv", a @ a.T / p + np.eye(p), delimiter=",")
    payloads = [
        {"mode": "theory", "loss": "logistic", "alpha_grid": [0.0, 2.0],
         "problem": dict(PROBLEM, covariance={"kind": "dense", "path": "cov.csv"})},
        {"mode": "erm", "loss": "logistic", "alpha_grid": [0.0, 2.0], "reps": 2,
         "problem": dict(PROBLEM, covariance={"kind": "isotropic"})},
    ]
    codes, loaded = run_fresh(tmp_path, payloads)
    assert codes == [0, 0]
    assert loads(loaded, "scipy.linalg")
    assert not loads(loaded, "scipy.optimize")
    assert not loads(loaded, "scipy.special")
    assert loads(loaded, "numpy.random")
