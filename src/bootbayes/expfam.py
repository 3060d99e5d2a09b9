"""Exponential-family machinery.

A family is described by its canonical parameter ``alpha``, the expectation
parameter ``beta`` (the mean of the sufficient statistic), the normalizer
``psi(alpha)`` and the sufficient-statistic covariance ``V(alpha)``.  All the
reweighting logic downstream reduces to a handful of maps between these two
coordinate systems:

* ``delta(params, alphas, mle)``   exponent of the conversion factor
* ``log_xi(params, alphas, mle)``  Jacobian-like volume ratio sqrt(|V|/|V_hat|)
* ``deviance(beta1, beta2)``       twice the KL divergence between members
* ``log_density_ratio``            log f_{b1}(t) - log f_{b2}(t) at a statistic t

The conversion factor R = xi * exp(delta) turns bootstrap sampling density
into posterior density; a Jeffreys prior cancels xi exactly, which is why the
sampler records delta and log_xi separately.  Both terms take a run's whole
tables, the flat coordinates ``params`` (B, p) and the canonical ones
``alphas`` (B, p) or None, plus the estimate, and return one value per row.
The estimate is evaluated as one more stacked row in the same call, so a row
equal to it gets exactly 0.

Every family map takes one point or a stack (..., p) and gives one value or
row per point, and so does the random draw: ``sample_replication(at, rngs)``
takes a sized iterable of generators, one per replication, and returns the
(B, r) table of raw rows, each drawn from its own generator: the sufficient
vector of a canonical family, the counts for the Poisson model and the n
drawn observations for the multivariate normal.  Terms that depend only on
``at`` are computed once per table, and a one-row table is a list of one
generator.  ``points`` turns the raw table into one stacked point;
``unflatten`` maps stored flat coordinates back.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "NumericalFailure",
    "CapabilityMissing",
    "FamilyModel",
    "chol_logdet",
    "cubic_delta_approx",
]


class NumericalFailure(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


class CapabilityMissing(NotImplementedError):
    """The family does not provide this optional capability."""


def chol_logdet(mat: np.ndarray):
    """Log determinant of a symmetric positive definite matrix, or one per
    matrix of a stack (..., p, p).

    Raises NumericalFailure instead of LinAlgError so callers can map the
    condition to a diagnostic exit path.
    """
    try:
        c = np.linalg.cholesky(np.asarray(mat, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"matrix not positive definite: {exc}") from exc
    return 2.0 * np.log(np.diagonal(c, axis1=-2, axis2=-1)).sum(axis=-1)


def matvec(a, v):
    """a @ v for a vector v or each row of a stack, one matrix-vector product
    per row: a GEMM over the rows would sum in another order."""
    return (a @ v[..., None])[..., 0]


def rowdot(u, v):
    """u . v for two vectors or each row of two stacks, one dot product per
    row, summed as for a single pair."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


class FamilyModel(abc.ABC):
    """Canonical exponential family with an explicit parameterization.

    Subclasses supply the five family-specific maps, each taking one point
    or a stack (..., p); the generic conversion machinery is implemented here
    once.  Points of such a family are plain beta vectors and a stack of them
    is a (B, p) array, so ``flatten`` and ``unflatten`` are identities, and so
    is the estimate: ``mle(beta)`` returns the validated vector.  ``delta``
    and ``log_xi`` take a run's ``params`` and ``alphas`` tables, shape
    (B, p), and the estimate, and return one value per row.
    """

    @property
    @abc.abstractmethod
    def family_id(self) -> str: ...

    @property
    @abc.abstractmethod
    def param_dim(self) -> int: ...

    @abc.abstractmethod
    def psi(self, alpha: np.ndarray) -> np.ndarray:
        """Cumulant normalizer at a canonical parameter (..., p), shape (...)."""

    @abc.abstractmethod
    def mean(self, alpha: np.ndarray) -> np.ndarray:
        """Expectation parameter beta(alpha) = grad psi, shape (..., p)."""

    @abc.abstractmethod
    def canonical(self, beta: np.ndarray) -> np.ndarray:
        """Inverse map alpha(beta), shape (..., p)."""

    @abc.abstractmethod
    def covariance(self, alpha: np.ndarray) -> np.ndarray:
        """Covariance V(alpha) of the sufficient statistic, shape (..., p, p)."""

    @abc.abstractmethod
    def sample_replication(self, at, rngs) -> np.ndarray:
        """Raw rows drawn at a point, one per generator of the sized iterable
        ``rngs``, as a (len(rngs), p) table: the sufficient vectors."""

    def third_cumulant(self, alpha: np.ndarray, direction: np.ndarray) -> float:
        """Directional third cumulant U^(v); optional capability."""
        raise CapabilityMissing(f"{self.family_id} has no third-cumulant map")

    def in_expectation_space(self, beta) -> bool:
        return bool(np.all(np.isfinite(beta)))

    # run surface -----------------------------------------------------------

    def mle(self, beta_hat) -> np.ndarray:
        """The estimate as a beta vector, checked to lie in the expectation space."""
        beta_hat = self.flatten(beta_hat)
        if not self.in_expectation_space(beta_hat):
            raise ValueError(
                f"estimate {beta_hat} outside the expectation space of {self.family_id}")
        return beta_hat

    def points(self, raw) -> np.ndarray:
        """The stacked point of a (B, p) table of raw rows, or one point."""
        return self.unflatten(raw)

    def flatten(self, point) -> np.ndarray:
        return np.atleast_1d(np.asarray(point, dtype=float))

    unflatten = flatten

    def alpha_of(self, point):
        return self.canonical(self.flatten(point))

    def deviance(self, beta1, beta2):
        """D(beta1, beta2) = 2 E_{beta1} log(f_{beta1}/f_{beta2}), always >= 0,
        for one pair or each row of a stacked argument."""
        b1, b2 = self.flatten(beta1), self.flatten(beta2)
        a1, a2 = self.canonical(b1), self.canonical(b2)
        return 2.0 * (rowdot(a1 - a2, b1) - (self.psi(a1) - self.psi(a2)))

    def delta(self, params, alphas, mle) -> np.ndarray:
        """Half the deviance difference [D(b, b_hat) - D(b_hat, b)] / 2 per row."""
        beta = np.vstack([params, self.flatten(mle)])
        a = np.vstack([alphas, self.alpha_of(mle)])
        psi = self.psi(a)
        return (((a[:-1] - a[-1]) * (beta[:-1] + beta[-1])).sum(axis=1)
                - 2.0 * (psi[:-1] - psi[-1]))

    def log_xi(self, params, alphas, mle) -> np.ndarray:
        logdet = chol_logdet(self.covariance(np.vstack([alphas, self.alpha_of(mle)])))
        return 0.5 * (logdet[:-1] - logdet[-1])

    def log_density_ratio(self, point_num, point_den, at):
        """log f_{num}(t)/f_{den}(t) at a sufficient-statistic value t, for
        one pair or each row of a stacked point."""
        a1, a2 = self.alpha_of(point_num), self.alpha_of(point_den)
        return rowdot(a1 - a2, self.flatten(at)) - (self.psi(a1) - self.psi(a2))

    def bab_run_terms(self, run):
        """(alpha_i - alpha_hat) of every replication, shape (B, p), and
        beta_hat: the multiplier terms free of the outer draw, which the run
        caches as ``run.bab_run_terms``."""
        if run.alphas is None:
            raise CapabilityMissing("run carries no canonical coordinates")
        return run.alphas - self.alpha_of(run.mle), self.flatten(run.mle)

    def log_bab_multipliers(self, run, gamma_point) -> np.ndarray:
        """Per-replication log reweighting multipliers toward an outer MLE.

        For canonical families the density ratio collapses to the inner
        product (alpha_i - alpha_hat)'(gamma_k - beta_hat).
        """
        d_alpha, beta_hat = run.bab_run_terms
        return d_alpha @ (self.flatten(gamma_point) - beta_hat)

    def meta(self) -> dict:
        """JSON-safe description sufficient to rebuild the family."""
        raise CapabilityMissing(f"{self.family_id} does not serialize")

    def mle_meta(self, mle) -> dict:
        return {"beta_hat": self.flatten(mle).tolist()}

    def mle_from_meta(self, obj: dict) -> np.ndarray:
        return self.mle(obj["beta_hat"])


def cubic_delta_approx(family: FamilyModel, mle, skewness_hat: float, beta,
                       direction=None):
    """Leading skewness term of delta, gamma_hat * Z**3 / 6, at one beta or
    each row of a stack.

    Z is the standardized deviation of beta from the estimate along
    ``direction`` (the sole axis when the family is one-dimensional).
    """
    beta = family.flatten(beta)
    if direction is None:
        if beta.shape[-1] != 1:
            raise ValueError("direction required for multiparameter families")
        v = np.ones(1)
    else:
        v = np.atleast_1d(np.asarray(direction, dtype=float))
    num = (beta - family.flatten(mle)) @ v
    scale = float(v @ family.covariance(family.alpha_of(mle)) @ v)
    if scale <= 0:
        raise NumericalFailure("direction has nonpositive variance")
    z = num / np.sqrt(scale)
    return skewness_hat * z**3 / 6.0
