"""The covariance model, the resolvent-moment evaluator, and ProblemSpec.

The theory reads the feature covariance C only through its eigenvalues
and the eigen-coordinates of mu and v, so ``SpectrumCovariance`` is the
one model.  ``IsotropicCovariance`` and ``EigenPairCovariance`` only
build its eigenvalue vector; ``DenseCovariance`` adds the rotation into
the eigenbasis of an SPD matrix, which it factors and eigendecomposes
once, at construction, by scipy's LAPACK, and samples and rotates by
scipy's BLAS (the ``simulate`` docstring gives the rule that keeps every
large product in scipy's OpenBLAS runtime).

Downstream code reads C through R(lam, tau) = (lam * I + tau * C)^{-1}:
the Gram matrices of R and R C R on the mean and trigger directions and
the normalized traces tr[C R] / n and tr[C^2 R^2] / n, plus, for the
tau-derivatives of the fixed-point solver's Jacobian, the Gram matrix
of R C R C R and tr[C^3 R^3] / n.
``SpectralTable.moments`` returns all of them in one pass over the
eigenvalues.  The table depends only on (C, mu, v, n): each ProblemSpec
builds one, and the specs ``with_alpha`` derives from it share it.

scipy is imported only inside ``DenseCovariance``, the one model that
factors a matrix, so a run on any other covariance never loads
``scipy.linalg``.
"""

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

_SYM_RTOL = 1e-10
# The table columns [mu mu, mu v, v mu, v v] of a 2 x 2 Gram matrix.  Fancy
# indexing by them leaves strided Gram views, which numpy multiplies by its
# own loop; a contiguous copy would go to BLAS and round differently.
_GRAM_COLUMNS = np.array([1, 2, 2, 3])


def basis_vector(dim: int, index: int) -> np.ndarray:
    """Standard basis vector e_index in R^dim."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dim {dim}")
    e = np.zeros(dim)
    e[index] = 1.0
    return e


class SpectrumCovariance:
    """Covariance with the given eigenvalues, diagonal in the standard basis."""

    # The diagonal ridge that ``DenseCovariance.from_csv`` added, else None.
    jitter = None

    def __init__(self, eigenvalues: np.ndarray):
        ev = np.asarray(eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size < 1:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if not (np.all(np.isfinite(ev)) and np.all(ev > 0)):
            raise ValueError("eigenvalues must be positive and finite")
        self._ev = ev.copy()

    @property
    def dim(self) -> int:
        return self._ev.size

    def eigenvalues(self) -> np.ndarray:
        """All dim eigenvalues, in the eigenbasis order."""
        return self._ev.copy()

    def to_eigenbasis(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of vec in the eigenbasis; vec must have shape (dim,)."""
        v = np.asarray(vec, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector shape {v.shape} incompatible with dim {self.dim}")
        return v

    def sample_noise(self, rng: "np.random.Generator", n: int) -> np.ndarray:
        """Draw n rows from N(0, C), scaled in place in the normal draw."""
        g = rng.standard_normal((n, self.dim))
        g *= np.sqrt(self._ev)
        return g


class IsotropicCovariance(SpectrumCovariance):
    """C = scale * I."""

    def __init__(self, dim: int, scale: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be positive")
        if not (np.isfinite(scale) and scale > 0):
            raise ValueError("scale must be positive and finite")
        super().__init__(np.full(int(dim), float(scale)))


class EigenPairCovariance(SpectrumCovariance):
    """Two distinguished eigendirections on a flat bulk.

    Coordinate 0 carries variance ``s_mu_sq`` (the mean direction by
    convention), coordinate 1 carries ``s_v_sq`` (the trigger
    direction), and the remaining dim - 2 coordinates share
    ``s_rest_sq``.
    """

    def __init__(self, dim: int, s_mu_sq: float, s_v_sq: float, s_rest_sq: float = 1.0):
        if dim < 2:
            raise ValueError("dim must be at least 2")
        for name, s in (("s_mu_sq", s_mu_sq), ("s_v_sq", s_v_sq), ("s_rest_sq", s_rest_sq)):
            if not (np.isfinite(s) and s > 0):
                raise ValueError(f"{name} must be positive and finite")
        ev = np.full(int(dim), float(s_rest_sq))
        ev[0] = s_mu_sq
        ev[1] = s_v_sq
        super().__init__(ev)


class DenseCovariance(SpectrumCovariance):
    """Arbitrary SPD covariance matrix.

    The matrix must be symmetric to relative tolerance 1e-10 and admit
    a Cholesky factorization; both are checked at construction.  The
    eigendecomposition happens once, here, so repeated functional
    evaluations stay O(p) after an O(p^3) setup.  Both factors come from
    scipy in Fortran order, the layout ``dtrmm`` and ``dgemv`` read
    without a copy.
    """

    def __init__(self, matrix: np.ndarray):
        c = np.asarray(matrix, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("covariance matrix must be square")
        if not np.all(np.isfinite(c)):
            raise ValueError("covariance matrix must be finite")
        scale = max(1.0, float(np.abs(c).max()))
        if float(np.abs(c - c.T).max()) > _SYM_RTOL * scale:
            raise ValueError("covariance matrix is not symmetric")
        c = 0.5 * (c + c.T)
        from scipy import linalg

        try:
            self._chol = linalg.cholesky(c, lower=True, check_finite=False)
        except linalg.LinAlgError as exc:
            raise ValueError("covariance matrix is not positive definite") from exc
        self._matrix = c
        w, u = linalg.eigh(c, driver="evd", check_finite=False)
        # eigh can return tiny negative values for near-singular SPD input
        # that Cholesky still accepts; clip to keep downstream ratios sane.
        super().__init__(np.maximum(w, np.finfo(float).tiny))
        self._basis = u

    @classmethod
    def from_csv(cls, path) -> "DenseCovariance":
        """Load a matrix from CSV and regularize it before validation.

        A ridge of 1e-4 * tr(C) / p, kept as ``jitter``, is added to the
        diagonal so that empirical covariance estimates with trailing
        near-zero eigenvalues survive the SPD check.
        """
        c = np.loadtxt(path, delimiter=",", ndmin=2)
        if c.shape[0] != c.shape[1]:
            raise ValueError(f"covariance CSV must be square, got {c.shape}")
        jitter = 1e-4 * float(np.trace(c)) / c.shape[0]
        c.flat[::c.shape[0] + 1] += jitter
        model = cls(c)
        model.jitter = jitter
        return model

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def to_eigenbasis(self, vec: np.ndarray) -> np.ndarray:
        from scipy.linalg.blas import dgemv

        return dgemv(1.0, self._basis, super().to_eigenbasis(vec), trans=1)

    def sample_noise(self, rng: "np.random.Generator", n: int) -> np.ndarray:
        from scipy.linalg.blas import dtrmm

        # (G L')' = L G' in place on the Fortran-ordered view G' of the draw.
        g = rng.standard_normal((n, self.dim))
        return dtrmm(1.0, self._chol, g.T, lower=1, overwrite_b=1).T


class ResolventMoments(NamedTuple):
    """Every resolvent form the theory reads, at one (lam, tau).

    ``r``, ``rcr`` and ``rcrcr`` are the 2 x 2 Gram matrices of
    X = R, R C R and R C R C R on the columns [mu, v]; the traces are
    tr[C X] / n for the same three X.  Since dR/dtau = -R C R, the
    last two forms give the tau-derivatives of the R C R ones:
    d(rcr)/dtau = -2 rcrcr and d(tr_c2r2)/dtau = -2 tr_c3r3.
    """

    r: np.ndarray
    rcr: np.ndarray
    rcrcr: np.ndarray
    tr_cr: float
    tr_c2r2: float
    tr_c3r3: float

    @classmethod
    def from_sums(cls, sums) -> "ResolventMoments":
        """The forms of a (3, 4) ``SpectralTable.sums`` array."""
        return cls(*sums[:, _GRAM_COLUMNS].reshape(3, 2, 2), *sums[:, 0].tolist())


class SpectralTable:
    """C, mu and v as the resolvent forms see them.

    In the eigenbasis every form is a weighted sum over eigenvalues, so
    the rows ev / n, mu_r^2, mu_r v_r and v_r^2 (mu_r, v_r being mu and
    v in eigen coordinates) are built once and ``moments`` contracts
    them against the weight columns of R, R C R and R C R C R in one
    product (``sums``).  ``stack`` lays the tables of B problems of one
    dimension side by side, so that one ``sums`` call serves them all.
    """

    def __init__(self, model: SpectrumCovariance, n: int, mu, v):
        mu_r = model.to_eigenbasis(mu)
        v_r = model.to_eigenbasis(v)
        self.ev = model.eigenvalues()
        self.rows = np.stack([self.ev / n, mu_r * mu_r, mu_r * v_r, v_r * v_r])
        self._columns = self.rows.swapaxes(-1, -2)

    @classmethod
    def stack(cls, tables) -> "SpectralTable":
        """The tables of B problems of one dimension as one table, whose
        ``sums`` take lam and tau of shape (B, 1).  A stack of one views
        its table's arrays."""
        stacked = cls.__new__(cls)
        if len(tables) == 1:
            (table,) = tables
            stacked.ev, stacked.rows = table.ev[None], table.rows[None]
        else:
            dims = sorted({len(t.ev) for t in tables})
            if len(dims) > 1:
                raise ValueError(f"a stack holds tables of one dimension, got p in {dims}")
            stacked.ev = np.array([t.ev for t in tables])
            stacked.rows = np.array([t.rows for t in tables])
        stacked._columns = stacked.rows.swapaxes(-1, -2)
        return stacked

    def sums(self, lam, tau, weights=None) -> np.ndarray:
        """The weights of R = (lam I + tau C)^{-1}, R C R and R C R C R summed
        against the table rows: row k of the (3, 4) result holds tr[C X] /
        n and the Gram entries mu mu, mu v and v v of the k-th X.  On a
        ``stack`` of B tables lam and tau have shape (B, 1) and the result
        is (B, 3, 4), each table's rows those it gives alone, bit for bit.
        ``weights``, of shape (3,) + ev.shape, is filled with the weights
        if given; a caller that evaluates often passes one buffer it owns.
        lam and tau are not checked here (``moments`` checks them)."""
        # Row k: weights of R, R C R, R C R C R summed against each table
        # row, filled in place.
        if weights is None:
            weights = np.empty((3,) + self.ev.shape)
        r, ev_r2, ev2_r3 = weights
        np.multiply(self.ev, tau, out=r)
        r += lam
        np.divide(1.0, r, out=r)
        np.multiply(r, r, out=ev_r2)
        ev_r2 *= self.ev
        np.multiply(ev_r2, self.ev, out=ev2_r3)
        ev2_r3 *= r
        return weights.swapaxes(0, -2) @ self._columns

    def moments(self, lam: float, tau: float) -> ResolventMoments:
        """The Gram matrices and traces of R = (lam I + tau C)^{-1}."""
        if not (0.0 < lam < math.inf and 0.0 <= tau < math.inf):
            raise ValueError("resolvent needs lam > 0 and tau >= 0, both finite")
        return ResolventMoments.from_sums(self.sums(lam, tau))


def mean_combination(eta1: float, eta2: float, alpha: float) -> np.ndarray:
    """Coefficients of the proxy mean (eta1 - eta2) mu + eta2 alpha v on [mu, v]."""
    return np.array([eta1 - eta2, eta2 * alpha])


def cov_quad(model: SpectrumCovariance, a, b) -> float:
    """a' C b."""
    ar = model.to_eigenbasis(a)
    br = ar if b is a else model.to_eigenbasis(b)
    return float(np.sum(ar * br * model.eigenvalues()))


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one poisoned learning problem.

    The clean class means are +/- mu; a fraction ``phi`` of the
    negative class receives the additive trigger ``alpha * v`` and has
    its label flipped, so the absorbed two-component mixture has means
    mu and alpha * v - mu with weights 1 - phi and phi.  ``v`` must be
    a unit vector; ``alpha`` carries the whole trigger magnitude.

    ``phi = 0`` is admitted (no poisoning) so benign baselines can run
    through the same pipeline; ``phi >= 0.5`` is rejected because the
    theory requires the clean component to dominate.  ``n`` may be
    ``math.inf``, the population limit: kappa = 0, and the resolvent
    traces over n vanish.
    """

    cov: SpectrumCovariance
    mu: np.ndarray
    v: np.ndarray
    alpha: float
    phi: float
    lam: float
    n: int | float
    spectral: SpectralTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if mu.shape != (self.cov.dim,) or v.shape != (self.cov.dim,):
            raise ValueError("mu and v must match the covariance dimension")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(v))):
            raise ValueError("mu and v must be finite")
        norm_sq = float(v @ v)
        if abs(norm_sq - 1.0) > 1e-10:
            raise ValueError(
                f"v must be a unit vector, got norm {math.sqrt(norm_sq)!r}; "
                "rescale it and fold the magnitude into alpha"
            )
        _check_alpha(self.alpha)
        if not (0.0 <= self.phi < 0.5):
            raise ValueError("phi must lie in [0, 0.5)")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive and finite")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "spectral", SpectralTable(self.cov, self.n, mu, v))

    @property
    def p(self) -> int:
        return self.cov.dim

    @property
    def kappa(self) -> float:
        return self.p / self.n

    def mixture_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Absorbed-sample component means (clean, poisoned)."""
        return self.mu, self.alpha * self.v - self.mu

    def class_weights(self) -> tuple[float, float]:
        return 1.0 - self.phi, self.phi

    def with_alpha(self, alpha: float) -> "ProblemSpec":
        """This problem at trigger magnitude ``alpha``.  The spectral table
        depends only on (cov, mu, v, n), so the derived spec shares it."""
        alpha = float(alpha)
        _check_alpha(alpha)
        derived = copy.copy(self)
        object.__setattr__(derived, "alpha", alpha)
        return derived


def _check_alpha(alpha):
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be nonnegative and finite")
