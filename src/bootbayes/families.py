"""Concrete families and the statistics evaluated on their replications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .expfam import CapabilityMissing, FamilyModel, NumericalFailure, chol_logdet

__all__ = [
    "GammaScaleFamily",
    "NormalTranslationFamily",
    "MvnParam",
    "MvNormalFamily",
    "Statistic",
    "statistic_correlation",
    "statistic_eigenratio",
    "correlation_statistic",
    "eigenratio_statistic",
    "log_prior_jeffreys_correlation",
    "log_prior_inverse_wishart",
    "family_from_meta",
]


class GammaScaleFamily(FamilyModel):
    """Scaled gamma: n iid exponential-type observations, beta the scale mean.

    The sufficient statistic is the sample mean, distributed beta * G_n / n
    with G_n a standard gamma of shape n.  One-dimensional, constant skewness
    2/sqrt(n), the standard worked example for conversion-factor asymptotics.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.n = int(n)

    @property
    def family_id(self) -> str:
        return f"gamma_scale(n={self.n})"

    @property
    def param_dim(self) -> int:
        return 1

    def in_expectation_space(self, beta) -> bool:
        beta = np.atleast_1d(beta)
        return bool(np.all(np.isfinite(beta)) and beta[0] > 0.0)

    def canonical(self, beta):
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        if beta[0] <= 0.0:
            raise ValueError("scale parameter must be positive")
        return -self.n / beta

    def mean(self, alpha):
        return -self.n / np.atleast_1d(np.asarray(alpha, dtype=float))

    def psi(self, alpha) -> float:
        a = np.atleast_1d(alpha)[0]
        if a >= 0.0:
            raise ValueError("canonical parameter must be negative")
        return float(-self.n * np.log(-a))

    def covariance(self, alpha):
        a = np.atleast_1d(alpha)[0]
        return np.array([[self.n / a**2]])

    def third_cumulant(self, alpha, direction) -> float:
        a = np.atleast_1d(alpha)[0]
        v = np.atleast_1d(direction)[0]
        return float(-2.0 * self.n / a**3 * v**3)

    def skewness_hat(self) -> float:
        """Standardized skewness of the sufficient statistic, 2/sqrt(n)."""
        return 2.0 / np.sqrt(self.n)

    def sample_sufficient(self, alpha, rng):
        beta = -self.n / np.atleast_1d(alpha)[0]
        return np.array([rng.gamma(shape=self.n, scale=beta / self.n)])

    def sample_data(self, point, rng):
        return float(self.sample_replication(point, rng)[0])

    def meta(self) -> dict:
        return {"family": "gamma_scale", "n": self.n}


class NormalTranslationFamily(FamilyModel):
    """Multivariate normal with known covariance; beta is the mean itself.

    V is constant, so xi = 1 and delta = 0 identically: bootstrap and flat
    prior posterior coincide.  Useful as the null case of every reweighting
    identity.
    """

    def __init__(self, sigma=None, dim: int | None = None):
        if sigma is None:
            sigma = np.eye(dim if dim is not None else 1)
        self.sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        if self.sigma.shape[0] != self.sigma.shape[1]:
            raise ValueError("sigma must be square")
        self._chol = np.linalg.cholesky(self.sigma)

    @property
    def family_id(self) -> str:
        return f"normal_translation(p={self.sigma.shape[0]})"

    @property
    def param_dim(self) -> int:
        return self.sigma.shape[0]

    def canonical(self, beta):
        return np.linalg.solve(self.sigma, np.atleast_1d(np.asarray(beta, dtype=float)))

    def mean(self, alpha):
        return self.sigma @ np.atleast_1d(np.asarray(alpha, dtype=float))

    def psi(self, alpha) -> float:
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        return float(a @ self.sigma @ a / 2.0)

    def covariance(self, alpha):
        return self.sigma

    def third_cumulant(self, alpha, direction) -> float:
        return 0.0

    def sample_sufficient(self, alpha, rng):
        return self.mean(alpha) + self._chol @ rng.standard_normal(self.param_dim)

    def sample_data(self, point, rng):
        return self.sample_replication(point, rng)

    # constant V: both corrections vanish identically, so return exact zeros
    # rather than accumulating 1e-16 roundoff through the generic formulas
    def delta(self, params, alphas, mle) -> np.ndarray:
        return np.zeros(len(params))

    def log_xi(self, params, alphas, mle) -> np.ndarray:
        return np.zeros(len(params))

    def meta(self) -> dict:
        return {"family": "normal_translation", "sigma": self.sigma.tolist()}


@dataclass(frozen=True)
class MvnParam:
    """A (mu, sigma) pair: both the MLE anchor and a replication point."""

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of(cls, mu, sigma) -> "MvnParam":
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        return cls(mu, sigma)


def _inv_logdet(sigma: np.ndarray):
    """(inverse, logdet) of a covariance matrix or of each matrix of a stack
    (..., d, d), with a closed form for the common 2x2 case."""
    if sigma.shape[-2:] == (2, 2):
        # indexing the transpose gives scalars for one matrix and arrays over
        # a stack; the inverse is symmetric, so its transpose only puts the
        # stack axes back in front
        t = sigma.T
        a, b, c = t[0, 0], t[1, 0], t[1, 1]
        det = a * c - b * b
        if np.any((det <= 0.0) | (a <= 0.0)):
            raise NumericalFailure("covariance matrix not positive definite")
        inv = np.array([[c, -b], [-b, a]]) / det
        return np.ascontiguousarray(inv.T), np.log(det)
    logdet = chol_logdet(sigma)
    return np.linalg.inv(sigma), logdet


class MvNormalFamily:
    """Unknown mean and covariance of d-variate normal data, n observations.

    The replication point is the pair (ybar, S) with S the covariance MLE
    (divisor n).  delta and xi are expressed directly in these coordinates;
    they agree with the canonical-coordinate forms, which the tests verify
    independently.
    """

    def __init__(self, d: int, n: int):
        if n <= d:
            raise ValueError("need more observations than dimensions")
        self.d = int(d)
        self.n = int(n)

    @property
    def family_id(self) -> str:
        return f"mvnormal(d={self.d},n={self.n})"

    @property
    def param_dim(self) -> int:
        return self.d * (self.d + 3) // 2

    def mle_from_data(self, rows) -> MvnParam:
        # row count may differ from n (leave-one-out refits use n-1 rows)
        y = np.atleast_2d(np.asarray(rows, dtype=float))
        if y.ndim != 2 or y.shape[1] != self.d or y.shape[0] <= self.d:
            raise ValueError(f"expected data rows of width {self.d}, "
                             f"more rows than dimensions")
        mu = y.mean(axis=0)
        dev = y - mu
        return MvnParam(mu, dev.T @ dev / y.shape[0])

    def mle(self, param: MvnParam) -> MvnParam:
        return param

    def in_expectation_space(self, vec) -> bool:
        try:
            p = self.unflatten(vec)
            _inv_logdet(p.sigma)
        except (NumericalFailure, np.linalg.LinAlgError, ValueError):
            return False
        return bool(np.all(np.isfinite(vec)))

    def sample_replication(self, at: MvnParam, rng: np.random.Generator) -> MvnParam:
        chol = np.linalg.cholesky(at.sigma)
        y = at.mu + rng.standard_normal((self.n, self.d)) @ chol.T
        mu = y.mean(axis=0)
        dev = y - mu
        return MvnParam(mu, dev.T @ dev / self.n)

    sample_data = sample_replication

    def flatten(self, point: MvnParam) -> np.ndarray:
        idx = np.tril_indices(self.d)
        return np.concatenate([point.mu, point.sigma[idx]])

    def unflatten(self, vec) -> MvnParam:
        vec = np.asarray(vec, dtype=float)
        mu = vec[: self.d]
        sigma = np.zeros((self.d, self.d))
        idx = np.tril_indices(self.d)
        sigma[idx] = vec[self.d:]
        sigma = sigma + np.tril(sigma, -1).T
        return MvnParam(mu, sigma)

    def alpha_of(self, point):
        return None

    def covariance(self, alpha):
        raise CapabilityMissing(
            "mvnormal works in (mu, sigma) coordinates, not canonical ones")

    def third_cumulant(self, alpha, direction):
        raise CapabilityMissing(
            "mvnormal works in (mu, sigma) coordinates, not canonical ones")

    def _stacked_terms(self, params: np.ndarray, mle: MvnParam):
        """(mus, sigmas, inverses, logdets) of the rows of params with the
        estimate appended as the last row, all through the same batched calls."""
        mus, sigmas = self._batch_split(np.vstack([params, self.flatten(mle)]))
        return (mus, sigmas) + _inv_logdet(sigmas)

    def delta(self, params, alphas, mle: MvnParam) -> np.ndarray:
        mus, sigmas, inv, ld = self._stacked_terms(params, mle)
        dm = mus[:-1] - mus[-1]
        quad = np.einsum("bi,bij,bj->b", dm, inv[-1] - inv[:-1], dm) / 2.0
        tr = (np.trace(sigmas[:-1] @ inv[-1], axis1=1, axis2=2)
              - np.trace(sigmas[-1] @ inv[:-1], axis1=1, axis2=2)) / 2.0
        return self.n * (quad + tr + ld[-1] - ld[:-1])

    def log_xi(self, params, alphas, mle: MvnParam) -> np.ndarray:
        ld = self._stacked_terms(params, mle)[3]
        return (self.d + 2) / 2.0 * (ld[:-1] - ld[-1])

    def _log_kernel(self, param: MvnParam, at: MvnParam) -> float:
        # parameter-dependent part of log f_{param}(at); data-only terms drop
        # from every ratio this is used in
        si, ld = _inv_logdet(param.sigma)
        dm = at.mu - param.mu
        return float(-self.n / 2.0 * (ld + dm @ si @ dm + np.trace(si @ at.sigma)))

    def log_density_ratio(self, point_num: MvnParam, point_den: MvnParam,
                          at: MvnParam) -> float:
        return self._log_kernel(point_num, at) - self._log_kernel(point_den, at)

    def deviance(self, p1: MvnParam, p2: MvnParam) -> float:
        s2i, ld2 = _inv_logdet(p2.sigma)
        _, ld1 = _inv_logdet(p1.sigma)
        dm = p2.mu - p1.mu
        return float(self.n * (ld2 - ld1 + dm @ s2i @ dm
                               + np.trace(p1.sigma @ s2i) - self.d))

    def _batch_split(self, params: np.ndarray):
        mus = params[:, : self.d]
        idx = np.tril_indices(self.d)
        sig = np.zeros((params.shape[0], self.d, self.d))
        sig[:, idx[0], idx[1]] = params[:, self.d:]
        lower = np.tril(sig, -1)
        return mus, sig + np.swapaxes(lower, 1, 2)

    def _batch_log_kernel(self, mus, sigmas, at: MvnParam) -> np.ndarray:
        sign, ld = np.linalg.slogdet(sigmas)
        if np.any(sign <= 0):
            raise NumericalFailure("replication covariance not positive definite")
        inv = np.linalg.inv(sigmas)
        dm = at.mu - mus
        quad = np.einsum("bi,bij,bj->b", dm, inv, dm)
        tr = np.einsum("bij,ji->b", inv, at.sigma)
        return -self.n / 2.0 * (ld + quad + tr)

    def log_bab_multipliers(self, run, gamma_point: MvnParam) -> np.ndarray:
        mus, sigmas = self._batch_split(run.params)
        return (self._batch_log_kernel(mus, sigmas, gamma_point)
                - self._batch_log_kernel(mus, sigmas, run.mle)
                - self._log_kernel(run.mle, gamma_point)
                + self._log_kernel(run.mle, run.mle))

    def meta(self) -> dict:
        return {"family": "mvnormal", "d": self.d, "n": self.n}

    def mle_meta(self, mle: MvnParam) -> dict:
        return {"mu": mle.mu.tolist(), "sigma": mle.sigma.tolist()}

    def mle_from_meta(self, obj: dict) -> MvnParam:
        return MvnParam.of(obj["mu"], obj["sigma"])


@dataclass(frozen=True)
class Statistic:
    """A named scalar function of a replication point."""

    id: str
    fn: Callable[[Any], float]

    def __call__(self, point) -> float:
        return float(self.fn(point))


def statistic_correlation(mu, sigma) -> float:
    """Correlation coefficient of a bivariate covariance matrix."""
    sigma = np.asarray(sigma, dtype=float)
    denom = sigma[0, 0] * sigma[1, 1]
    if denom <= 0.0:
        raise NumericalFailure("degenerate covariance, correlation undefined")
    return float(sigma[0, 1] / np.sqrt(denom))


def statistic_eigenratio(sigma) -> float:
    """Largest eigenvalue over trace of a covariance matrix."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape == (2, 2):
        a, b, c = sigma[0, 0], sigma[0, 1], sigma[1, 1]
        half_gap = np.sqrt((a - c) ** 2 / 4.0 + b * b)
        top = (a + c) / 2.0 + half_gap
    else:
        vals = np.linalg.eigvalsh(sigma)
        top = vals[-1]
    tr = np.trace(sigma)
    if tr <= 0.0:
        raise NumericalFailure("nonpositive trace, eigenratio undefined")
    return float(top / tr)


def correlation_statistic() -> Statistic:
    return Statistic("correlation", lambda pt: statistic_correlation(pt.mu, pt.sigma))


def eigenratio_statistic() -> Statistic:
    return Statistic("eigenratio", lambda pt: statistic_eigenratio(pt.sigma))


def log_prior_jeffreys_correlation(theta):
    """log of the correlation-coefficient Jeffreys-type prior 1/(1 - theta^2)."""
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) >= 1.0):
        raise ValueError("correlation prior defined only on (-1, 1)")
    return -(np.log1p(-theta) + np.log1p(theta))

def log_prior_inverse_wishart(param: MvnParam, scale=None, df: float = 2.0):
    """Inverse-Wishart log kernel on sigma, flat in mu.

    Kernel |sigma|^-((df+d+1)/2) * exp(-tr(scale sigma^-1)/2); scale defaults
    to the identity.
    """
    sigma = np.atleast_2d(param.sigma)
    d = sigma.shape[0]
    psi = np.eye(d) if scale is None else np.atleast_2d(np.asarray(scale, dtype=float))
    si, ld = _inv_logdet(sigma)
    return float(-(df + d + 1) / 2.0 * ld - np.trace(psi @ si) / 2.0)


def family_from_meta(meta: dict):
    """Rebuild a family instance from its stored metadata."""
    kind = meta.get("family")
    if kind == "gamma_scale":
        return GammaScaleFamily(meta["n"])
    if kind == "normal_translation":
        return NormalTranslationFamily(sigma=np.asarray(meta["sigma"], dtype=float))
    if kind == "mvnormal":
        return MvNormalFamily(d=meta["d"], n=meta["n"])
    if kind == "poisson_glm":
        from .glm import PoissonGlmFamily
        return PoissonGlmFamily.from_meta(meta)
    raise ValueError(f"unknown family kind: {kind!r}")
