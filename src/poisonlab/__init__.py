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

The simulator is the one module that needs scipy (its BLAS and LAPACK),
so it is not imported here: use it as the module ``poisonlab.simulate``,
and a theory run imports numpy only.
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
from .fixed_point import SolverConfig, solve_self_consistent, theory_predictions
from .losses import LogisticLoss, SquaredLoss, f_both, loss_by_name, prox
from .metrics import noise_floor_ablation, variance_decomposition
from .population import (
    PopulationParams,
    benign_minimizer_eigen,
    minimize_population_eigen,
    one_step_gradient,
)
from .quadrature import standard_normal_nodes
from .theory_squared import (
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
    "solve_tau", "gram_entries", "projections_exact", "alpha_star_exact",
    "phi_sensitivity",
    "SquaredLoss", "LogisticLoss", "loss_by_name", "prox", "f_both",
    "standard_normal_nodes",
    "SolverConfig", "solve_self_consistent", "theory_predictions",
    "PopulationParams", "minimize_population_eigen",
    "benign_minimizer_eigen", "one_step_gradient",
    "variance_decomposition", "noise_floor_ablation",
]
