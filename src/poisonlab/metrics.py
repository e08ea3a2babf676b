"""Error metrics and the margin-variance decomposition.

Every metric is a Gaussian orthant probability: conditioned on the
trained direction, a test margin is normal with mean given by the
relevant alignment and variance sigma^2, so accuracies and attack
success rates are single standard-normal CDF evaluations.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import covariance as cov


def _phi(x: float) -> float:
    """Standard normal CDF, within 5e-13 relative of scipy's ``ndtr``
    on [-38, 38]."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def clean_accuracy(mean_alignment: float, variance: float) -> float:
    """P(correct) on clean data: Phi(alignment / sigma)."""
    if not variance > 0:
        raise ValueError("variance must be positive")
    return _phi(mean_alignment / math.sqrt(variance))


def attack_success(
    h_mu: float, h_v: float, alpha_test: float, variance: float
) -> float:
    """P(triggered negative flips positive): Phi((alpha_test h_v - h_mu) / sigma)."""
    if not variance > 0:
        raise ValueError("variance must be positive")
    if alpha_test < 0:
        raise ValueError("alpha_test must be nonnegative")
    return _phi((alpha_test * h_v - h_mu) / math.sqrt(variance))


_ROW_LABELS = (
    ("mean", "clean-mean channel"),
    ("cross", "mean/trigger cross term"),
    ("trigger", "trigger channel"),
    ("noise", "finite-sample noise floor"),
)


@dataclass(frozen=True)
class VarianceDecomposition:
    """Additive split of the margin variance sigma^2.

    With mbar = (eta1 - eta2) mu + eta2 alpha v and A = R C R, the
    signal part mbar' A mbar expands into mean, cross, and trigger
    terms; the remainder is the noise floor gamma tr[R^2 C^2] / n that
    survives even when all alignments are ablated.
    """

    mean_term: float
    cross_term: float
    trigger_term: float
    noise_floor: float

    @property
    def total(self) -> float:
        return self.mean_term + self.cross_term + self.trigger_term + self.noise_floor

    def percentages(self) -> tuple[float, float, float, float]:
        t = self.total
        return (
            100.0 * self.mean_term / t,
            100.0 * self.cross_term / t,
            100.0 * self.trigger_term / t,
            100.0 * self.noise_floor / t,
        )

    def rows(self) -> list[tuple[str, str, float, float]]:
        vals = (self.mean_term, self.cross_term, self.trigger_term, self.noise_floor)
        return [
            (key, label, val, pct)
            for (key, label), val, pct in zip(_ROW_LABELS, vals, self.percentages())
        ]

    def table(self) -> str:
        lines = [f"{'component':<12} {'description':<28} {'value':>24} {'share':>10}"]
        for key, label, val, pct in self.rows():
            lines.append(f"{key:<12} {label:<28} {val:>24.17g} {pct:>9.4f}%")
        lines.append(f"{'total':<12} {'margin variance':<28} {self.total:>24.17g} {100.0:>9.4f}%")
        return "\n".join(lines)


def variance_decomposition(state) -> VarianceDecomposition:
    """Split sigma^2 at a solved state into its four channels."""
    mom = state.moments
    (a_mumu, a_muv), (_, a_vv) = mom.rcr.tolist()
    c_mu, c_v = cov.mean_combination(state.eta1, state.eta2, state.alpha).tolist()
    return VarianceDecomposition(
        mean_term=c_mu**2 * a_mumu,
        cross_term=2.0 * c_mu * c_v * a_muv,
        trigger_term=c_v**2 * a_vv,
        noise_floor=state.gamma * mom.tr_c2r2,
    )


def noise_floor_ablation(state, spec: cov.ProblemSpec, alpha_grid, config=None):
    """Clean accuracy along an alpha sweep, with and without the noise floor.

    Re-solves the self-consistent system at every grid point with the
    loss recorded in ``state``, by one ``solve_sweep`` of ``spec``.  The
    ablated curve removes the finite-sample noise term zeta from the
    margin variance, leaving only signal-channel fluctuations; comparing
    the two isolates how much of any accuracy trend is a pure
    noise-floor effect.

    Returns (included, ablated) accuracy arrays; a point whose solve does
    not converge raises ArithmeticError naming its alpha.
    """
    from . import fixed_point

    alpha_grid = np.asarray(alpha_grid, dtype=float)
    included = np.empty(alpha_grid.size)
    ablated = np.empty(alpha_grid.size)
    states, = fixed_point.solve_sweep([spec], alpha_grid, state.loss_name, config)
    for i, st in enumerate(states):
        if not st.converged:
            raise ArithmeticError(f"fixed-point solve did not converge: alpha {st.alpha:g}")
        pred = fixed_point.theory_predictions(st, alpha_test=0.0)
        signal_var = pred.sigma_sq - pred.zeta
        if not signal_var > 0:
            raise ValueError("degenerate signal variance; ablation undefined")
        included[i] = pred.clean_acc
        ablated[i] = clean_accuracy(pred.h_mu, signal_var)
    return included, ablated
