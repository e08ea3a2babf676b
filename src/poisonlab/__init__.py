"""Backdoor poisoning of regularized linear classifiers: exact
high-dimensional asymptotics, population limits, and a matching
finite-sample simulator.

The covariance layer reduces every spectral quantity to one evaluator
of resolvent moments over a table built once per problem; the squared
loss admits fully closed-form theory; general losses go through a
certified root solve of the self-consistent equations; and the
simulator draws the corresponding finite Gaussian-mixture problems and
fits them exactly, so theory and experiment can be overlaid from one
config.
"""

from .covariance import (
    DenseCovariance,
    EigenPairCovariance,
    IsotropicCovariance,
    ProblemSpec,
    SpectralTable,
    SpectrumCovariance,
    basis_vector,
    cov_quad,
)
from .fixed_point import (
    FixedPointState,
    SolverConfig,
    TheoryPrediction,
    proxy_expected_norm_sq,
    solve_self_consistent,
    theory_predictions,
)
from .losses import LogisticLoss, SquaredLoss, f_both, loss_by_name, prox
from .metrics import (
    VarianceDecomposition,
    attack_success,
    clean_accuracy,
    noise_floor_ablation,
    variance_decomposition,
)
from .population import (
    PopulationMinimum,
    PopulationParams,
    benign_minimizer_eigen,
    minimize_population_eigen,
    one_step_gradient,
)
from .quadrature import standard_normal_nodes
from .theory_squared import (
    AlphaStar,
    GramEntries,
    SquaredScalars,
    alpha_star_exact,
    gram_entries,
    phi_sensitivity,
    projections_exact,
    solve_tau,
)

__version__ = "0.1.0"

__all__ = [
    "IsotropicCovariance", "EigenPairCovariance",
    "SpectrumCovariance", "DenseCovariance", "ProblemSpec", "SpectralTable",
    "basis_vector", "cov_quad",
    "SquaredScalars", "GramEntries", "AlphaStar", "solve_tau", "gram_entries",
    "projections_exact", "alpha_star_exact", "phi_sensitivity",
    "SquaredLoss", "LogisticLoss", "loss_by_name", "prox", "f_both",
    "standard_normal_nodes",
    "SolverConfig", "FixedPointState", "TheoryPrediction",
    "solve_self_consistent", "theory_predictions", "proxy_expected_norm_sq",
    "PopulationParams", "PopulationMinimum", "minimize_population_eigen",
    "benign_minimizer_eigen", "one_step_gradient",
    "clean_accuracy", "attack_success",
    "VarianceDecomposition", "variance_decomposition", "noise_floor_ablation",
    "RawDataset", "FitResult", "ErmRunResult", "stream_rng", "sample_clean",
    "poison", "absorb", "ridge_fit", "logistic_fit", "evaluate_analytic",
    "evaluate_empirical", "run_replicate",
]

# The simulator is the one module that needs scipy (its BLAS and LAPACK),
# so its names load on first use: a theory run imports numpy only.
_SIMULATE_NAMES = {
    "RawDataset", "FitResult", "ErmRunResult", "stream_rng", "sample_clean",
    "poison", "absorb", "ridge_fit", "logistic_fit", "evaluate_analytic",
    "evaluate_empirical", "run_replicate",
}


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SIMULATE_NAMES)
