"""Poisson regression as an exponential family on binned counts.

The design matrix columns are an orthonormal polynomial basis over the bin
centers, so nested submodels share sufficient statistics: X_m' y is the first
m+1 entries of the full X' y.  Everything model selection needs after the
bootstrap draw is therefore a function of the stored sufficient vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .expfam import FamilyModel, NumericalFailure, chol_logdet

__all__ = [
    "polynomial_basis",
    "GlmFit",
    "GlmPoint",
    "glm_fit",
    "glm_fit_sufficient",
    "residual_deviance",
    "aic",
    "aic_profile",
    "aic_profiles",
    "select_degrees",
    "PoissonGlmFamily",
    "statistic_fdr",
    "fdr_statistic",
    "selected_degree_statistic",
]


def polynomial_basis(centers, degree: int) -> np.ndarray:
    """Orthonormal basis of polynomials up to ``degree`` on the given points.

    QR of the increasing-power Vandermonde matrix; column signs are fixed so
    the decomposition is deterministic across platforms.
    """
    x = np.asarray(centers, dtype=float)
    if degree < 0 or degree >= x.size:
        raise ValueError("degree must be in [0, number of points)")
    v = np.vander(x, degree + 1, increasing=True)
    q, r = np.linalg.qr(v)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True)
class GlmFit:
    alpha: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    beta: np.ndarray
    deviance: float | None
    iterations: int


@dataclass(frozen=True)
class GlmPoint:
    """A fitted replication: canonical, linear, mean and sufficient coords."""

    alpha: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    beta: np.ndarray


def _irls(x: np.ndarray, beta_suff: np.ndarray, eta0: np.ndarray,
          tol: float, max_iter: int):
    """IRLS on the sufficient statistic alone; returns (alpha, eta, mu, iters)."""
    eta = eta0
    mu = np.exp(eta)
    loglik, change = None, np.inf
    for it in range(1, max_iter + 1):
        xw = x * mu[:, None]
        try:
            alpha = np.linalg.solve(xw.T @ x, xw.T @ eta + (beta_suff - x.T @ mu))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular weighted design at iteration {it}") from exc
        eta = x @ alpha
        if np.max(eta) > 500.0:
            raise NumericalFailure("diverging linear predictor in Poisson fit")
        mu = np.exp(eta)
        new = float(beta_suff @ alpha - mu.sum())
        if loglik is not None:
            change = abs(new - loglik)
            if change <= tol * (abs(loglik) + 1.0):
                return alpha, eta, mu, it
        loglik = new
    raise NumericalFailure(
        f"Poisson fit did not converge in {max_iter} iterations "
        f"(last log-likelihood change {change:.3e})")


def _start_log_rate(x: np.ndarray, beta_suff: np.ndarray) -> np.ndarray:
    """Log of the constant rate that starts a fit, for one sufficient vector
    (J,) or a stack of them (b, J).

    The total count is recoverable whenever the constant vector lies in the
    column span.
    """
    ones = np.ones(x.shape[0])
    coef, res, rank, _ = np.linalg.lstsq(x, ones, rcond=None)
    total = np.asarray(beta_suff @ coef)
    return np.log(np.where(total <= 0.0, 1.0, total) / x.shape[0])


def glm_fit_sufficient(x, beta_suff, *, tol: float = 1e-10,
                       max_iter: int = 50) -> GlmFit:
    """Poisson MLE given only X'y; deviance is left unset."""
    x = np.asarray(x, dtype=float)
    beta_suff = np.asarray(beta_suff, dtype=float)
    eta0 = np.full(x.shape[0], _start_log_rate(x, beta_suff))
    alpha, eta, mu, it = _irls(x, beta_suff, eta0, tol, max_iter)
    return GlmFit(alpha, eta, mu, beta_suff, None, it)


def glm_fit(x, y, *, tol: float = 1e-10, max_iter: int = 50) -> GlmFit:
    """Poisson MLE from observed counts, with residual deviance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("counts must be nonnegative")
    beta_suff = x.T @ y
    eta0 = np.log(np.maximum(y, 0.5))
    coef, *_ = np.linalg.lstsq(x, eta0, rcond=None)
    alpha, eta, mu, it = _irls(x, beta_suff, x @ coef, tol, max_iter)
    return GlmFit(alpha, eta, mu, beta_suff, residual_deviance(y, mu), it)


def residual_deviance(y, mu) -> float:
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(y > 0, y * np.log(np.where(y > 0, y / mu, 1.0)), 0.0)
    return float(2.0 * np.sum(term - (y - mu)))


def aic(deviance: float, degree: int) -> float:
    """Deviance penalized by twice the parameter count of a degree-m model."""
    return deviance + 2.0 * (degree + 1)


def _outer_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise outer products x_j x_j', one flattened (p * p) row per j, so
    that mu @ _outer_rows(x) stacks the matrices X' diag(mu) X."""
    q = x.shape[1]
    return (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], q * q)


# rows per IRLS block in aic_profiles: the whole table in one block needs
# about 20 MB more peak memory at B=4,000 and is no faster
_PROFILE_BLOCK = 256


def _irls_rows(x: np.ndarray, beta: np.ndarray, log_rate: np.ndarray,
               first_row: int, tol: float = 1e-10,
               max_iter: int = 50) -> np.ndarray:
    """Final log-likelihood beta' alpha - sum(mu) of _irls for each row of beta.

    Row i starts from the constant linear predictor log_rate[i], as
    glm_fit_sufficient starts it.  All rows take each IRLS step together:
    the weighted Gram matrices are one product of the fitted means with the
    row-wise outer products x_j x_j', and they feed one stacked solve.  Each
    row keeps _irls's stopping rule and failure checks and leaves the active
    set at the iteration where it converges; a failure names its row as
    ``first_row`` plus its block index.
    """
    q = x.shape[1]
    xx = _outer_rows(x)
    out = np.empty(beta.shape[0])
    rows = np.arange(beta.shape[0])
    eta = np.repeat(log_rate[:, None], x.shape[0], axis=1)
    mu = np.exp(eta)
    loglik, change = None, np.full(beta.shape[0], np.inf)

    def fail(r, what):
        return NumericalFailure(f"row {first_row + rows[r]}, degree {q - 1}: {what}")

    for it in range(1, max_iter + 1):
        gram = (mu @ xx).reshape(-1, q, q)
        rhs = (mu * eta) @ x + (beta - mu @ x)
        try:
            alpha = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for r in range(rows.size):
                try:
                    np.linalg.solve(gram[r], rhs[r])
                except np.linalg.LinAlgError as exc:
                    raise fail(r, f"singular weighted design at iteration {it}") from exc
            raise
        eta = alpha @ x.T
        diverged = np.max(eta, axis=1) > 500.0
        if diverged.any():
            raise fail(int(np.argmax(diverged)),
                       "diverging linear predictor in Poisson fit")
        mu = np.exp(eta)
        new = np.einsum("ij,ij->i", beta, alpha) - mu.sum(axis=1)
        if loglik is not None:
            change = np.abs(new - loglik)
            done = change <= tol * (np.abs(loglik) + 1.0)
            out[rows[done]] = new[done]
            active = ~done
            rows, beta, eta, mu, new, change = (
                rows[active], beta[active], eta[active], mu[active],
                new[active], change[active])
            if rows.size == 0:
                return out
        loglik = new
    raise fail(0, f"Poisson fit did not converge in {max_iter} iterations "
                  f"(last log-likelihood change {change[0]:.3e})")


def aic_profiles(basis_full: np.ndarray, betas, degrees) -> np.ndarray:
    """Pseudo-AIC of each nested submodel for every row of a sufficient table.

    Column k of the (B, len(degrees)) result is
    -2(beta_m' alpha_m - sum(mu_m)) + 2(m+1) for m = degrees[k], with beta_m
    the first m+1 entries of each row of ``betas``.  The saturated terms
    shared by every submodel cancel, so the argmin matches the one from
    residual deviances.  Each fit starts, steps and stops as
    glm_fit_sufficient does, and a row whose fit fails raises
    NumericalFailure naming the row.
    """
    basis_full = np.asarray(basis_full, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    degrees = [int(m) for m in degrees]
    out = np.empty((betas.shape[0], len(degrees)))
    for k, m in enumerate(degrees):
        x = basis_full[:, : m + 1]
        log_rate = _start_log_rate(x, betas[:, : m + 1])
        for lo in range(0, betas.shape[0], _PROFILE_BLOCK):
            hi = lo + _PROFILE_BLOCK
            loglik = _irls_rows(x, betas[lo:hi, : m + 1], log_rate[lo:hi], lo)
            out[lo:hi, k] = -2.0 * loglik + 2.0 * (m + 1)
    return out


def select_degrees(profiles, degrees) -> np.ndarray:
    """Row-wise AIC-minimizing degree; ties within 1e-12 go to the smaller."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    degrees = np.asarray([int(m) for m in degrees])
    order = np.argsort(degrees, kind="stable")
    best = profiles[:, order[0]]
    chosen = np.full(profiles.shape[0], degrees[order[0]])
    for k in order[1:]:
        better = profiles[:, k] < best - 1e-12
        best = np.where(better, profiles[:, k], best)
        chosen = np.where(better, degrees[k], chosen)
    return chosen


def aic_profile(basis_full: np.ndarray, beta_full: np.ndarray,
                degrees) -> dict[int, float]:
    """aic_profiles for one sufficient vector, keyed by degree."""
    degrees = [int(m) for m in degrees]
    row = aic_profiles(basis_full, beta_full, degrees)[0]
    return {m: float(v) for m, v in zip(degrees, row)}


def select_degree(profile: dict[int, float]) -> int:
    """select_degrees for one profile keyed by degree."""
    degrees = sorted(profile)
    return int(select_degrees([[profile[m] for m in degrees]], degrees)[0])


class PoissonGlmFamily(FamilyModel):
    """Independent Poisson counts with log-linear means exp(X alpha).

    Replication points are fully refitted GlmPoint objects; the flat
    coordinate is the sufficient vector X'y.
    """

    def __init__(self, x: np.ndarray, centers=None, degree: int | None = None):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < self.x.shape[1]:
            raise ValueError("design must be J x p with J >= p")
        self.centers = None if centers is None else np.asarray(centers, dtype=float)
        self.degree = degree

    @classmethod
    def from_basis(cls, centers, degree: int) -> "PoissonGlmFamily":
        return cls(polynomial_basis(centers, degree), centers=centers, degree=degree)

    @classmethod
    def from_meta(cls, meta: dict) -> "PoissonGlmFamily":
        if "centers" in meta:
            return cls.from_basis(np.asarray(meta["centers"], dtype=float), meta["degree"])
        return cls(np.asarray(meta["x"], dtype=float))

    @property
    def family_id(self) -> str:
        return f"poisson_glm(p={self.x.shape[1]},J={self.x.shape[0]})"

    @property
    def param_dim(self) -> int:
        return self.x.shape[1]

    def psi(self, alpha) -> float:
        return float(np.exp(self.x @ alpha).sum())

    def mean(self, alpha):
        return self.x.T @ np.exp(self.x @ alpha)

    def canonical(self, beta):
        return glm_fit_sufficient(self.x, beta).alpha

    def covariance(self, alpha):
        mu = np.exp(self.x @ alpha)
        return (self.x * mu[:, None]).T @ self.x

    def third_cumulant(self, alpha, direction) -> float:
        mu = np.exp(self.x @ alpha)
        return float(np.sum(mu * (self.x @ direction) ** 3))

    def in_expectation_space(self, beta) -> bool:
        # interior validity is decided by the refit, not by a coordinate test
        return bool(np.all(np.isfinite(beta)))

    def fit(self, y) -> GlmPoint:
        f = glm_fit(self.x, y)
        return GlmPoint(f.alpha, f.eta, f.mu, f.beta)

    def mle(self, y_or_point):
        if isinstance(y_or_point, GlmPoint):
            return y_or_point
        return self.fit(y_or_point)

    def _mu_of(self, at) -> np.ndarray:
        if isinstance(at, GlmPoint):
            return at.mu
        at = np.asarray(at, dtype=float)
        if at.shape == (self.x.shape[0],):
            return at
        raise ValueError("expected a GlmPoint or a mean-rate vector")

    def sample_counts(self, at, rng) -> np.ndarray:
        return rng.poisson(self._mu_of(at)).astype(float)

    def sample_sufficient(self, alpha, rng):
        return self.x.T @ rng.poisson(np.exp(self.x @ alpha))

    def sample_replication(self, at, rng) -> GlmPoint:
        y = self.sample_counts(at, rng)
        f = glm_fit(self.x, y)
        return GlmPoint(f.alpha, f.eta, f.mu, f.beta)

    def sample_data(self, point, rng) -> np.ndarray:
        return self.sample_counts(point, rng)

    def flatten(self, point) -> np.ndarray:
        return point.beta if isinstance(point, GlmPoint) else np.asarray(point, dtype=float)

    def unflatten(self, vec) -> GlmPoint:
        f = glm_fit_sufficient(self.x, np.asarray(vec, dtype=float))
        return GlmPoint(f.alpha, f.eta, f.mu, f.beta)

    def alpha_of(self, point):
        return point.alpha if isinstance(point, GlmPoint) else self.canonical(point)

    def _stacked_rates(self, alphas, mle: GlmPoint):
        """Linear predictors and means of each row of alphas, with the
        estimate appended as the last row."""
        eta = np.vstack([alphas, mle.alpha]) @ self.x.T
        return eta, np.exp(eta)

    def delta(self, params, alphas, mle: GlmPoint) -> np.ndarray:
        eta, mu = self._stacked_rates(alphas, mle)
        return (np.einsum("ij,ij->i", eta[:-1] - eta[-1], mu[:-1] + mu[-1])
                - 2.0 * (mu[:-1] - mu[-1]).sum(axis=1))

    def log_xi(self, params, alphas, mle: GlmPoint) -> np.ndarray:
        mu = self._stacked_rates(alphas, mle)[1]
        p = self.x.shape[1]
        logdet = chol_logdet((mu @ _outer_rows(self.x)).reshape(-1, p, p))
        return 0.5 * (logdet[:-1] - logdet[-1])

    def deviance(self, p1, p2) -> float:
        p1 = p1 if isinstance(p1, GlmPoint) else self.unflatten(p1)
        p2 = p2 if isinstance(p2, GlmPoint) else self.unflatten(p2)
        # expectation parameter X'mu1, not the sufficient vector of the fit
        return float(2.0 * ((p1.eta - p2.eta) @ p1.mu
                            - (p1.mu.sum() - p2.mu.sum())))

    def log_density_ratio(self, point_num, point_den, at) -> float:
        """log f_num(y)/f_den(y) for the count vector implied by ``at``.

        ``at`` may be a GlmPoint (its fitted mean vector stands in for the
        counts; exact when the design saturates the fit, and the sufficient
        projection is what matters otherwise) or a raw count vector.
        """
        p1 = point_num if isinstance(point_num, GlmPoint) else self.unflatten(point_num)
        p2 = point_den if isinstance(point_den, GlmPoint) else self.unflatten(point_den)
        if isinstance(at, GlmPoint):
            y = at.mu
        else:
            y = np.asarray(at, dtype=float)
            if y.shape != (self.x.shape[0],):
                raise ValueError("expected counts over the bins")
        return float((p1.eta - p2.eta) @ y - (p1.mu.sum() - p2.mu.sum()))

    def meta(self) -> dict:
        if self.centers is not None and self.degree is not None:
            return {"family": "poisson_glm", "centers": self.centers.tolist(),
                    "degree": int(self.degree)}
        return {"family": "poisson_glm", "x": self.x.tolist()}

    def mle_meta(self, mle: GlmPoint) -> dict:
        return {"beta": np.asarray(mle.beta).tolist()}

    def mle_from_meta(self, obj: dict) -> GlmPoint:
        return self.unflatten(np.asarray(obj["beta"], dtype=float))


def _fdr_rule(z: float, centers):
    """statistic_fdr at a fixed threshold and bins, as a function of mu; the
    normal tail and the bin masks are computed once."""
    x = np.asarray(centers, dtype=float)
    below, at = x < z - 1e-9, np.abs(x - z) <= 1e-9
    tail = norm.sf(z)

    def fdr(mu) -> float:
        mu = np.asarray(mu, dtype=float)
        total = mu.sum()
        if total <= 0.0:
            raise NumericalFailure("fitted counts sum to zero")
        upper = 1.0 - float(mu[below].sum() + 0.5 * mu[at].sum()) / total
        if upper <= 0.0:
            raise NumericalFailure(f"no fitted mass above z={z}, fdr undefined")
        return float(tail / upper)

    return fdr


def statistic_fdr(mu, z: float, centers) -> float:
    """Model-based false discovery rate at threshold z.

    The numerator is the standard-normal upper tail; the denominator is the
    upper tail of the fitted counts treated as a density over the bins, with
    a bin sitting exactly at z contributing half its mass.
    """
    return _fdr_rule(z, centers)(mu)


def fdr_statistic(z: float, centers) -> "Statistic":
    from .families import Statistic
    fdr = _fdr_rule(z, centers)
    return Statistic(f"fdr_{z:g}", lambda pt: fdr(pt.mu))


def selected_degree_statistic(basis_full: np.ndarray, degrees=range(2, 9)) -> "Statistic":
    """AIC-minimizing polynomial degree, computed from the sufficient vector."""
    from .families import Statistic
    degrees = list(degrees)

    def pick(pt) -> float:
        return float(select_degrees(aic_profiles(basis_full, pt.beta, degrees),
                                    degrees)[0])

    return Statistic("aic_degree", pick)
