"""The package's public names."""

import json
import os
import subprocess
import sys

import poisonlab as pl

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))

# The names that the tests, the benchmark's checker and the README reach
# through the package; everything else is used through its module.
PUBLIC = {
    "IsotropicCovariance", "EigenPairCovariance", "SpectrumCovariance",
    "DenseCovariance", "ProblemSpec", "SpectralTable", "basis_vector", "cov_quad",
    "solve_tau", "gram_entries", "projections_exact", "alpha_star_exact",
    "phi_sensitivity",
    "SquaredLoss", "LogisticLoss", "loss_by_name", "prox", "f_both",
    "standard_normal_nodes",
    "SolverConfig", "solve_self_consistent", "theory_predictions",
    "PopulationParams", "minimize_population_eigen", "benign_minimizer_eigen",
    "one_step_gradient",
    "variance_decomposition", "noise_floor_ablation",
}


def test_every_export_resolves_once():
    assert len(pl.__all__) == len(set(pl.__all__))
    missing = [name for name in pl.__all__ if not hasattr(pl, name)]
    assert not missing
    namespace = {}
    exec("from poisonlab import *", namespace)
    assert set(pl.__all__) <= set(namespace)


def test_exports_are_the_public_names():
    assert set(pl.__all__) == PUBLIC
    assert not hasattr(pl, "__getattr__")
    assert not hasattr(pl, "run_replicate")


def test_import_loads_no_simulator_and_no_scipy():
    code = ("import json, sys, poisonlab; print(json.dumps(sorted("
            "m for m in sys.modules if m == 'scipy' or m.startswith(('scipy.', 'poisonlab.')))))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(done.stdout)
    assert "poisonlab.simulate" not in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
