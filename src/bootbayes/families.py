"""Concrete families and the statistics evaluated on their stacked points."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        if np.any(beta <= 0.0):
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

    def sample_replication(self, at, rng):
        beta = self.mean(self.alpha_of(at))[0]  # through alpha, as seeded runs drew it
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
        # one solve per row, each the same LAPACK call as for a single point
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        return np.linalg.solve(self.sigma, beta[..., None])[..., 0]

    def mean(self, alpha):
        return self.sigma @ np.atleast_1d(np.asarray(alpha, dtype=float))

    def psi(self, alpha) -> float:
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        return float(a @ self.sigma @ a / 2.0)

    def covariance(self, alpha):
        return self.sigma

    def third_cumulant(self, alpha, direction) -> float:
        return 0.0

    def sample_replication(self, at, rng):
        return (self.mean(self.alpha_of(at))
                + self._chol @ rng.standard_normal(self.param_dim))

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
    """A (mu, sigma) pair, or a stack of B of them: mu (B, d), sigma (B, d, d)."""

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of(cls, mu, sigma) -> "MvnParam":
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        return cls(mu, sigma)

    def __getitem__(self, k) -> "MvnParam":
        return MvnParam(self.mu[k], self.sigma[k])

    @cached_property
    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma)


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
    (divisor n), and a raw row is its flat form (ybar, vech S).  delta and xi
    are expressed directly in these coordinates; they agree with the
    canonical-coordinate forms, which the tests verify independently.
    """

    def __init__(self, d: int, n: int):
        if n <= d:
            raise ValueError("need more observations than dimensions")
        self.d = int(d)
        self.n = int(n)
        self._tril = np.tril_indices(self.d)

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

    def sample_replication(self, at: MvnParam, rng: np.random.Generator) -> np.ndarray:
        """The flat (ybar, vech S) of n observations drawn at ``at``."""
        y = at.mu + rng.standard_normal((self.n, self.d)) @ at.chol.T
        mu = y.mean(axis=0)
        dev = y - mu
        return np.concatenate([mu, (dev.T @ dev / self.n)[self._tril]])

    def sample_data(self, point: MvnParam, rng: np.random.Generator) -> MvnParam:
        return self.unflatten(self.sample_replication(point, rng))

    def flatten(self, point: MvnParam) -> np.ndarray:
        return np.concatenate([point.mu, point.sigma[(...,) + self._tril]], axis=-1)

    def unflatten(self, vec) -> MvnParam:
        vec = np.asarray(vec, dtype=float)
        rows, cols = self._tril
        sigma = np.zeros(vec.shape[:-1] + (self.d, self.d))
        sigma[..., rows, cols] = vec[..., self.d:]
        sigma[..., cols, rows] = vec[..., self.d:]
        return MvnParam(vec[..., : self.d], sigma)

    points = unflatten

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
        pts = self.unflatten(np.vstack([params, self.flatten(mle)]))
        return (pts.mu, pts.sigma) + _inv_logdet(pts.sigma)

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

    def _log_kernel(self, param: MvnParam, at: MvnParam):
        # parameter-dependent part of log f_{param}(at), one value per row of
        # a stacked param; data-only terms drop from every ratio it is used in
        si, ld = _inv_logdet(param.sigma)
        dm = at.mu - param.mu
        quad = np.einsum("...i,...ij,...j->...", dm, si, dm)
        tr = np.einsum("...ij,ji->...", si, at.sigma)
        return -self.n / 2.0 * (ld + quad + tr)

    def log_density_ratio(self, point_num: MvnParam, point_den: MvnParam,
                          at: MvnParam) -> float:
        return float(self._log_kernel(point_num, at) - self._log_kernel(point_den, at))

    def deviance(self, p1: MvnParam, p2: MvnParam) -> float:
        # the log kernel's mean under p1 equals its value at p1's own
        # (mu, sigma), up to terms free of the parameter
        return float(2.0 * (self._log_kernel(p1, p1) - self._log_kernel(p2, p1)))

    def log_bab_multipliers(self, run, gamma_point: MvnParam) -> np.ndarray:
        pts = self.unflatten(run.params)
        return (self._log_kernel(pts, gamma_point)
                - self._log_kernel(pts, run.mle)
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
    """A named real function of a family's points.

    ``fn`` maps a stacked point to one value per row; called on a single
    point it gives one scalar.
    """

    id: str
    fn: Callable[[Any], Any]

    def __call__(self, points):
        return np.asarray(self.fn(points), dtype=float)[()]

    def column(self, points, B: int) -> np.ndarray:
        return one_per_row(self, points, B, f"statistic {self.id!r}")


def one_per_row(fn, points, B: int, name: str) -> np.ndarray:
    """fn of a stacked point of B rows, checked to give one value per row; a
    function written for one point raises ValueError naming ``name``."""
    must = f"{name} must map a stacked point of {B} replications to one value per row"
    try:
        values = np.asarray(fn(points), dtype=float)
    except TypeError as exc:
        raise ValueError(f"{must} ({exc})") from exc
    if values.shape != (B,):
        raise ValueError(f"{must}, not to shape {values.shape}")
    return values


def statistic_correlation(mu, sigma):
    """Correlation coefficient of a bivariate covariance matrix, or of each
    matrix of a stack (..., 2, 2)."""
    sigma = np.asarray(sigma, dtype=float)
    denom = sigma[..., 0, 0] * sigma[..., 1, 1]
    if np.any(denom <= 0.0):
        raise NumericalFailure("degenerate covariance, correlation undefined")
    return sigma[..., 0, 1] / np.sqrt(denom)


def statistic_eigenratio(sigma):
    """Largest eigenvalue over trace of a covariance matrix, or of each
    matrix of a stack (..., d, d)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-2:] == (2, 2):
        a, b, c = sigma[..., 0, 0], sigma[..., 0, 1], sigma[..., 1, 1]
        half_gap = np.sqrt((a - c) ** 2 / 4.0 + b * b)
        top = (a + c) / 2.0 + half_gap
    else:
        top = np.linalg.eigvalsh(sigma)[..., -1]
    tr = np.trace(sigma, axis1=-2, axis2=-1)
    if np.any(tr <= 0.0):
        raise NumericalFailure("nonpositive trace, eigenratio undefined")
    return top / tr


def correlation_statistic() -> Statistic:
    return Statistic("correlation", lambda pts: statistic_correlation(pts.mu, pts.sigma))


def eigenratio_statistic() -> Statistic:
    return Statistic("eigenratio", lambda pts: statistic_eigenratio(pts.sigma))


def log_prior_jeffreys_correlation(theta):
    """log of the correlation-coefficient Jeffreys-type prior 1/(1 - theta^2)."""
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) >= 1.0):
        raise ValueError("correlation prior defined only on (-1, 1)")
    return -(np.log1p(-theta) + np.log1p(theta))

def log_prior_inverse_wishart(param: MvnParam, scale=None, df: float = 2.0):
    """Inverse-Wishart log kernel on sigma, flat in mu, at one point or at
    each row of a stacked point.

    Kernel |sigma|^-((df+d+1)/2) * exp(-tr(scale sigma^-1)/2); scale defaults
    to the identity.
    """
    sigma = np.atleast_2d(param.sigma)
    d = sigma.shape[-1]
    psi = np.eye(d) if scale is None else np.atleast_2d(np.asarray(scale, dtype=float))
    si, ld = _inv_logdet(sigma)
    return -(df + d + 1) / 2.0 * ld - np.trace(psi @ si, axis1=-2, axis2=-1) / 2.0


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
