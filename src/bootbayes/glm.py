"""Poisson regression as an exponential family on binned counts.

The design matrix columns are an orthonormal polynomial basis over the bin
centers, so nested submodels share sufficient statistics: X_m' y is the first
m+1 entries of the full X' y.  Everything model selection needs after the
bootstrap draw is therefore a function of the stored sufficient vector.
Every fit, of one vector or of each row of a table, runs the one IRLS loop
``_irls``, with the arithmetic of a single fit in each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expfam import FamilyModel, NumericalFailure, chol_logdet, matvec, rowdot

__all__ = [
    "polynomial_basis",
    "GlmFit",
    "GlmPoint",
    "glm_fit",
    "residual_deviance",
    "aic",
    "aic_profiles",
    "select_degrees",
    "PoissonGlmFamily",
    "statistic_fdr",
    "fdr_statistic",
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
class GlmPoint:
    """A fitted replication: canonical, linear, mean and sufficient coords,
    or a stack of them, one row per replication in each field."""

    alpha: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    beta: np.ndarray

    def __getitem__(self, k) -> "GlmPoint":
        return GlmPoint(self.alpha[k], self.eta[k], self.mu[k], self.beta[k])


@dataclass(frozen=True)
class GlmFit(GlmPoint):
    deviance: float
    iterations: int


def _normal_equations(x, beta, eta, mu):
    """IRLS step matrices X' diag(mu) X and right-hand sides
    X' diag(mu) eta + (beta - X' mu), one per row of beta (b, p)."""
    xwt = (x * mu[..., None]).swapaxes(-1, -2)
    return xwt @ x, matvec(xwt, eta) + (beta - matvec(x.T, mu))


def _irls(x: np.ndarray, beta: np.ndarray, eta: np.ndarray, first_row=None,
          step=_normal_equations, max_iter: int = 50):
    """IRLS on sufficient vectors beta (b, p) alone, from linear predictors
    eta (b, J); returns the stacked (alpha, eta, mu, iterations).

    The active rows take each ``step`` and one stacked solve together; a row
    leaves them once its log-likelihood beta' alpha - sum(mu) changes by at
    most 1e-10 relative.  With ``first_row`` given, a failure names its row as
    first_row plus its index, and the degree.
    """
    out = [np.empty(beta.shape), np.empty(eta.shape), np.empty(eta.shape),
           np.empty(beta.shape[0], dtype=int)]
    rows = np.arange(beta.shape[0])
    mu = np.exp(eta)
    loglik, change = None, np.full(rows.size, np.inf)

    def fail(r, what):
        if first_row is not None:
            what = f"row {first_row + rows[r]}, degree {x.shape[1] - 1}: {what}"
        return NumericalFailure(what)

    for it in range(1, max_iter + 1):
        gram, rhs = step(x, beta, eta, mu)
        try:
            alpha = np.linalg.solve(gram, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for r in range(rows.size):
                try:
                    np.linalg.solve(gram[r], rhs[r])
                except np.linalg.LinAlgError as exc:
                    raise fail(r, f"singular weighted design at iteration {it}") from exc
            raise
        eta = matvec(x, alpha)
        diverged = np.max(eta, axis=1) > 500.0
        if diverged.any():
            raise fail(int(np.argmax(diverged)),
                       "diverging linear predictor in Poisson fit")
        mu = np.exp(eta)
        new = matvec(beta[:, None, :], alpha)[:, 0] - mu.sum(axis=1)
        if loglik is not None:
            change = np.abs(new - loglik)
            done = change <= 1e-10 * (np.abs(loglik) + 1.0)
            for o, v in zip(out, (alpha, eta, mu, np.full(rows.size, it))):
                o[rows[done]] = v[done]
            rows, beta, eta, mu, new, change = (
                v[~done] for v in (rows, beta, eta, mu, new, change))
            if rows.size == 0:
                return tuple(out)
        loglik = new
    raise fail(0, f"Poisson fit did not converge in {max_iter} iterations "
                  f"(last log-likelihood change {change[0]:.3e})")


# rows per _irls call over a table: the whole 4,000-row table in one call
# needs about 20 MB more peak memory and is no faster
_IRLS_BLOCK = 256


def _fit_table(x, beta, eta, table: bool = True, step=_normal_equations) -> GlmPoint:
    """The stacked fits of a table's rows, _IRLS_BLOCK rows per _irls call,
    with a failure naming its row in the whole table; or, unless ``table``,
    the fit of its one row."""
    blocks = [_irls(x, beta[lo:lo + _IRLS_BLOCK], eta[lo:lo + _IRLS_BLOCK],
                    lo if table else None, step)[:3]
              for lo in range(0, beta.shape[0], _IRLS_BLOCK)]
    point = GlmPoint(*(np.concatenate(parts) for parts in zip(*blocks)), beta)
    return point if table else point[0]


def _rate_start(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Starting linear predictors (b, J) for sufficient vectors (b, p): each
    row's constant rate, from its total count, which is recoverable whenever
    the constant vector lies in the column span."""
    total = beta @ np.linalg.lstsq(x, np.ones(x.shape[0]), rcond=None)[0]
    log_rate = np.log(np.where(total <= 0.0, 1.0, total) / x.shape[0])
    return np.repeat(log_rate[:, None], x.shape[0], axis=1)


def _count_start(x: np.ndarray, counts: np.ndarray):
    """Sufficient vectors X'y (b, p) and starting linear predictors (b, J)
    of count rows (b, J): the least-squares fit of log(max(y, 1/2))."""
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    # one lstsq per row: a multi-right-hand-side lstsq differs in the last bits
    coef = np.array([np.linalg.lstsq(x, e, rcond=None)[0]
                     for e in np.log(np.maximum(counts, 0.5))])
    return matvec(x.T, counts), matvec(x, coef)


def glm_fit(x, y, *, max_iter: int = 50) -> GlmFit:
    """Poisson MLE from observed counts, with residual deviance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta, eta0 = _count_start(x, y[None])
    alpha, eta, mu, it = _irls(x, beta, eta0, max_iter=max_iter)
    return GlmFit(alpha[0], eta[0], mu[0], beta[0], residual_deviance(y, mu[0]), int(it[0]))


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


def _gemm_step(x: np.ndarray):
    """An IRLS step like _normal_equations whose products are 2-D GEMMs over
    the rows: about twice as fast, with sums in another order."""
    q, xx = x.shape[1], _outer_rows(x)
    return lambda x, beta, eta, mu: ((mu @ xx).reshape(-1, q, q),
                                     (mu * eta) @ x + (beta - mu @ x))


def aic_profiles(basis_full: np.ndarray, betas, degrees) -> np.ndarray:
    """Pseudo-AIC of each nested submodel for every row of a sufficient table.

    Column k of the (B, len(degrees)) result is
    -2(beta_m' alpha_m - sum(mu_m)) + 2(m+1) for m = degrees[k], with beta_m
    the first m+1 entries of each row of ``betas``.  The saturated terms
    shared by every submodel cancel, so the argmin matches the one from
    residual deviances.  The degrees run in ascending order through the IRLS
    loop of PoissonGlmFamily.unflatten, with _gemm_step's faster steps.  The
    lowest starts from the constant rate, as unflatten does; each higher
    degree starts from the fitted linear predictors of the degree below,
    which the nested bases make the exact point [alpha_m, 0] of the larger
    model.  Start and steps change the values only by round-off, which
    reaches the outputs only through the argmin.  A degree outside the basis
    raises ValueError, and a row whose fit fails raises NumericalFailure
    naming the row.
    """
    basis_full = np.asarray(basis_full, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    degrees = np.asarray([int(m) for m in degrees], dtype=int)
    top = basis_full.shape[1] - 1
    if np.any((degrees < 0) | (degrees > top)):
        raise ValueError(f"degrees must lie in [0, {top}], those of the basis")
    out = np.empty((betas.shape[0], degrees.size))
    eta = None
    for m in np.unique(degrees):
        x, beta = basis_full[:, : m + 1], betas[:, : m + 1]
        fits = _fit_table(x, beta, _rate_start(x, beta) if eta is None else eta,
                          step=_gemm_step(x))
        eta = fits.eta
        loglik = np.einsum("ij,ij->i", beta, fits.alpha) - fits.mu.sum(axis=1)
        out[:, degrees == m] = (-2.0 * loglik + 2.0 * (m + 1))[:, None]
    return out


def select_degrees(profiles, degrees) -> np.ndarray:
    """Row-wise AIC-minimizing degree; ties within 1e-12 go to the smaller."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    degrees = np.asarray([int(m) for m in degrees])
    if profiles.shape[1] != degrees.size:
        raise ValueError(f"{profiles.shape[1]} profile columns for "
                         f"{degrees.size} degrees")
    order = np.argsort(degrees, kind="stable")
    best = profiles[:, order[0]]
    chosen = np.full(profiles.shape[0], degrees[order[0]])
    for k in order[1:]:
        better = profiles[:, k] < best - 1e-12
        best = np.where(better, profiles[:, k], best)
        chosen = np.where(better, degrees[k], chosen)
    return chosen


class PoissonGlmFamily(FamilyModel):
    """Independent Poisson counts with log-linear means exp(X alpha).

    A raw row is a vector of counts over the bins, and its point is the
    GlmPoint refitted to them; the flat coordinate is the sufficient vector
    X'y.  points and unflatten refit a whole table in blocks of rows.
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

    def _rates(self, alpha):
        """Fitted means exp(X alpha) of one alpha or each row of a stack."""
        return np.exp(matvec(self.x, np.asarray(alpha, dtype=float)))

    def psi(self, alpha):
        return self._rates(alpha).sum(axis=-1)

    def mean(self, alpha):
        return matvec(self.x.T, self._rates(alpha))

    def canonical(self, beta):
        return self.unflatten(beta).alpha

    def covariance(self, alpha):
        mu = self._rates(alpha)
        return (self.x * mu[..., None]).swapaxes(-1, -2) @ self.x

    def third_cumulant(self, alpha, direction) -> float:
        mu = self._rates(alpha)
        return float(np.sum(mu * (self.x @ direction) ** 3))

    def points(self, counts) -> GlmPoint:
        """The fit to one count vector, or the stacked fits to a (B, J) table."""
        counts = np.asarray(counts, dtype=float)
        return _fit_table(self.x, *_count_start(self.x, np.atleast_2d(counts)),
                          counts.ndim == 2)

    def mle(self, y_or_point):
        if isinstance(y_or_point, GlmPoint):
            return y_or_point
        return self.points(y_or_point)

    def _over_bins(self, at) -> np.ndarray:
        """A point's fitted means, or a vector over the bins as given."""
        if isinstance(at, GlmPoint):
            return at.mu
        at = np.asarray(at, dtype=float)
        if at.shape != (self.x.shape[0],):
            raise ValueError("expected a GlmPoint or a vector over the bins")
        return at

    def _point(self, point) -> GlmPoint:
        return point if isinstance(point, GlmPoint) else self.unflatten(point)

    def sample_replication(self, at, rngs) -> np.ndarray:
        """Counts drawn at a point's fitted means, one row per generator."""
        mu = self._over_bins(at)
        counts = np.empty((len(rngs), mu.size))
        for row, rng in zip(counts, rngs):
            row[:] = rng.poisson(mu)
        return counts

    def flatten(self, point) -> np.ndarray:
        return point.beta if isinstance(point, GlmPoint) else np.asarray(point, dtype=float)

    def unflatten(self, vec) -> GlmPoint:
        beta = np.atleast_2d(np.asarray(vec, dtype=float))
        return _fit_table(self.x, beta, _rate_start(self.x, beta), np.ndim(vec) == 2)

    def alpha_of(self, point):
        return self._point(point).alpha

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

    def deviance(self, p1, p2):
        p1, p2 = self._point(p1), self._point(p2)
        # expectation parameter X'mu1, not the sufficient vector of the fit
        return 2.0 * (rowdot(p1.eta - p2.eta, p1.mu)
                      - (p1.mu.sum(axis=-1) - p2.mu.sum(axis=-1)))

    def log_density_ratio(self, point_num, point_den, at):
        """log f_num(y)/f_den(y) for the count vector implied by ``at``.

        ``at`` may be a GlmPoint (its fitted mean vector stands in for the
        counts; exact when the design saturates the fit, and the sufficient
        projection is what matters otherwise) or a raw count vector.
        """
        p1, p2 = self._point(point_num), self._point(point_den)
        y = self._over_bins(at)
        return rowdot(p1.eta - p2.eta, y) - (p1.mu.sum(axis=-1) - p2.mu.sum(axis=-1))

    def meta(self) -> dict:
        if self.centers is not None and self.degree is not None:
            return {"family": "poisson_glm", "centers": self.centers.tolist(),
                    "degree": int(self.degree)}
        return {"family": "poisson_glm", "x": self.x.tolist()}

    def mle_meta(self, mle: GlmPoint) -> dict:
        return {"beta": np.asarray(mle.beta).tolist()}

    def mle_from_meta(self, obj: dict) -> GlmPoint:
        return self.unflatten(np.asarray(obj["beta"], dtype=float))


# Cephes (S. Moshier) erf/erfc rational approximations, as in scipy.special
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = math.sqrt(0.5)


def _horner(x: float, coeffs, monic: bool = False) -> float:
    y = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        y = y * x + c
    return y


def _erf_small(x: float) -> float:  # |x| <= 1
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _normal_tail(z: float) -> float:
    """P(Z > z) for a standard normal Z, step for step Cephes ndtr(-z), the
    routine behind scipy.special.ndtr.  A libm erfc differs in the last bits,
    and the central-difference acceleration of the fdr amplifies that: it
    moves the prostate study's ``a`` by 4e-9 relative."""
    x = -z * _SQRT1_2
    a = abs(x)
    if a < _SQRT1_2:
        return 0.5 + 0.5 * _erf_small(x)
    if a < 1.0:
        y = 0.5 * (1.0 - _erf_small(a))
    elif a * a > 7.09782712893383996843e2:  # exp(-a^2) underflows
        y = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if a < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * (math.exp(-a * a) * _horner(a, p) / _horner(a, q, monic=True))
    return 1.0 - y if x > 0 else y


def _fdr_rule(z: float, centers):
    """statistic_fdr at a fixed threshold and bins, as a function of mu (J,)
    or of a stack (B, J); the normal tail and the bin masks are computed
    once."""
    x = np.asarray(centers, dtype=float)
    below, at = x < z - 1e-9, np.abs(x - z) <= 1e-9
    tail = _normal_tail(z)

    def fdr(mu):
        mu = np.asarray(mu, dtype=float)
        total = mu.sum(axis=-1)
        if np.any(total <= 0.0):
            raise NumericalFailure("fitted counts sum to zero")
        # compress copies the bins contiguously, so each row sums in the same
        # order as one mean vector does (mu[:, below] would not)
        upper = 1.0 - (np.compress(below, mu, axis=-1).sum(axis=-1)
                       + 0.5 * np.compress(at, mu, axis=-1).sum(axis=-1)) / total
        if np.any(upper <= 0.0):
            raise NumericalFailure(f"no fitted mass above z={z}, fdr undefined")
        return tail / upper

    return fdr


def statistic_fdr(mu, z: float, centers):
    """Model-based false discovery rate at threshold z, for one mean vector
    or each row of a stack.

    The numerator is the standard-normal upper tail; the denominator is the
    upper tail of the fitted counts treated as a density over the bins, with
    a bin sitting exactly at z contributing half its mass.
    """
    return _fdr_rule(z, centers)(mu)


def fdr_statistic(z: float, centers) -> "Statistic":
    from .families import Statistic
    fdr = _fdr_rule(z, centers)
    return Statistic(f"fdr_{z:g}", lambda pts: fdr(pts.mu))
