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

from .expfam import (_ROW_BLOCK, FamilyModel, NumericalFailure, _RowFailure, _whole,
                     matvec, rowdot)

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
    if _whole("degree", degree, 0) >= x.size:
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


_MAX_ITER = 50


def _irls(x: np.ndarray, beta: np.ndarray, eta: np.ndarray, first_row=None,
          step=_normal_equations):
    """IRLS on sufficient vectors beta (b, p) alone, from linear predictors
    eta (b, J); returns the stacked (alpha, eta, mu, iterations).

    The active rows take each ``step`` and one stacked solve together; a row
    leaves them once its log-likelihood beta' alpha - sum(mu) changes by at
    most 1e-10 relative, within _MAX_ITER steps.  With ``first_row`` given, a
    failure names its row as first_row plus its index, and the degree.
    """
    out = [np.empty(beta.shape), np.empty(eta.shape), np.empty(eta.shape),
           np.empty(beta.shape[0], dtype=int)]
    rows = np.arange(beta.shape[0])
    mu = np.exp(eta)
    loglik, change = None, np.full(rows.size, np.inf)

    def fail(r, what):
        if first_row is None:
            return NumericalFailure(what)
        return _RowFailure(first_row + int(rows[r]), f"degree {x.shape[1] - 1}: {what}")

    for it in range(1, _MAX_ITER + 1):
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
    raise fail(0, f"Poisson fit did not converge in {_MAX_ITER} iterations "
                  f"(last log-likelihood change {change[0]:.3e})")


def _fit_table(x, beta, eta, table: bool = True) -> GlmPoint:
    """The stacked fits of a table's rows, one _irls call per block of
    expfam's _ROW_BLOCK rows, with a failure naming its row in the table
    given; or, unless ``table``, the fit of its one row."""
    blocks = [_irls(x, beta[lo:lo + _ROW_BLOCK], eta[lo:lo + _ROW_BLOCK],
                    lo if table else None)[:3]
              for lo in range(0, beta.shape[0], _ROW_BLOCK)]
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


def glm_fit(x, y) -> GlmFit:
    """Poisson MLE from observed counts, with residual deviance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    beta, eta0 = _count_start(x, y[None])
    alpha, eta, mu, it = _irls(x, beta, eta0)
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


def _gemm_step(x: np.ndarray):
    """An IRLS step like _normal_equations whose products are 2-D GEMMs over
    the rows: about twice as fast, with sums in another order.  Row j of xx
    is the flattened outer product x_j x_j', so mu @ xx stacks the matrices
    X' diag(mu) X."""
    q = x.shape[1]
    xx = (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], q * q)
    return lambda x, beta, eta, mu: ((mu @ xx).reshape(-1, q, q),
                                     (mu * eta) @ x + (beta - mu @ x))


def aic_profiles(basis_full: np.ndarray, betas, degrees) -> np.ndarray:
    """Pseudo-AIC of each nested submodel for every row of a sufficient table.

    Column k of the (B, len(degrees)) result is
    -2(beta_m' alpha_m - sum(mu_m)) + 2(m+1) for m = degrees[k], with beta_m
    the first m+1 entries of each row of ``betas``.  The saturated terms
    shared by every submodel cancel, so the argmin matches the one from
    residual deviances.  The table is taken expfam's _ROW_BLOCK rows at a
    time, so the working memory is one block's fits; in each block the
    degrees run in ascending order through the IRLS loop of
    PoissonGlmFamily.unflatten, with _gemm_step's faster steps.  The lowest
    starts from the constant rate, as unflatten does; each higher degree
    starts from the fitted linear predictors of the degree below, which the
    nested bases make the exact point [alpha_m, 0] of the larger model.
    Start and steps change the values only by round-off, which reaches the
    outputs only through the argmin.  A degree outside the basis raises
    ValueError, and a row whose fit fails raises NumericalFailure naming the
    row.
    """
    basis_full = np.asarray(basis_full, dtype=float)
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    degrees = np.asarray([int(m) for m in degrees], dtype=int)
    top = basis_full.shape[1] - 1
    if np.any((degrees < 0) | (degrees > top)):
        raise ValueError(f"degrees must lie in [0, {top}], those of the basis")
    # sorted(set()), not np.unique, whose masked-array check loads numpy.ma
    ladder = [(m, basis_full[:, : m + 1], _gemm_step(basis_full[:, : m + 1]))
              for m in sorted(set(degrees.tolist()))]
    out = np.empty((betas.shape[0], degrees.size))
    for lo in range(0, betas.shape[0], _ROW_BLOCK):
        block, eta = betas[lo:lo + _ROW_BLOCK], None
        for m, x, step in ladder:
            beta = block[:, : m + 1]
            alpha, eta, mu, _ = _irls(
                x, beta, _rate_start(x, beta) if eta is None else eta, lo, step)
            loglik = np.einsum("ij,ij->i", beta, alpha) - mu.sum(axis=1)
            out[lo:lo + beta.shape[0], degrees == m] = (
                -2.0 * loglik + 2.0 * (m + 1))[:, None]
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
    GlmPoint fitted to them; the flat coordinate is the sufficient vector
    X'y.  Only points and unflatten fit, a table a block of rows at a time;
    the other maps take GlmPoints and read their fields: alpha, and the
    fitted means mu = exp(X alpha) for psi, V and U.
    """

    def __init__(self, x: np.ndarray, centers=None):
        # row-major, as a design rebuilt from a store is: products round by layout
        self.x = np.ascontiguousarray(x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] < self.x.shape[1]:
            raise ValueError("design must be J x p with J >= p")
        # a design built from centers is non-finite wherever they are
        if not np.all(np.isfinite(self.x)):
            raise ValueError("design must be finite: a center or an entry of x "
                             "is NaN or infinite")
        self.centers = None if centers is None else np.asarray(centers, dtype=float)

    @classmethod
    def from_basis(cls, centers, degree: int) -> "PoissonGlmFamily":
        return cls(polynomial_basis(centers, degree), centers=centers)

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

    def canonical_of(self, point: GlmPoint):
        return point.alpha

    def psi_of(self, point: GlmPoint):
        return point.mu.sum(axis=-1)

    # X' diag(mu) X by one einsum, so a block's log_xi builds no (b, J, p)
    # temporary
    def covariance_of(self, point: GlmPoint):
        return np.einsum("...j,jk,jl->...kl", point.mu, self.x, self.x)

    def third_cumulant_of(self, point: GlmPoint, direction) -> float:
        return float(np.sum(point.mu * (self.x @ direction) ** 3))

    def points(self, counts) -> GlmPoint:
        """The fit to one count vector, or the stacked fits to a (B, J) table."""
        counts = np.asarray(counts, dtype=float)
        return _fit_table(self.x, *_count_start(self.x, np.atleast_2d(counts)),
                          counts.ndim == 2)

    def sample_replication(self, at: GlmPoint, rngs) -> np.ndarray:
        """Counts drawn at a point's fitted means, one row per generator."""
        counts = np.empty((len(rngs), at.mu.size))
        for row, rng in zip(counts, rngs):
            row[:] = rng.poisson(at.mu)
        return counts

    def flatten(self, point) -> np.ndarray:
        return point.beta if isinstance(point, GlmPoint) else np.asarray(point, dtype=float)

    def unflatten(self, vec) -> GlmPoint:
        beta = np.atleast_2d(np.asarray(vec, dtype=float))
        return _fit_table(self.x, beta, _rate_start(self.x, beta), np.ndim(vec) == 2)

    def stored_points(self, params, alphas) -> GlmPoint:
        """The fits a run stored as its params and alphas: eta = X alpha by
        the per-row products of _irls, so every field has the fit's bits."""
        eta = matvec(self.x, alphas)
        return GlmPoint(alphas, eta, np.exp(eta), params)

    # the deviance needs the expectation parameter X'mu1, which mean_of
    # cannot give: BaB must keep the stored sufficient vector X'y there
    def deviance(self, p1: GlmPoint, p2: GlmPoint):
        return 2.0 * (rowdot(p1.eta - p2.eta, p1.mu)
                      - (p1.mu.sum(axis=-1) - p2.mu.sum(axis=-1)))

    # centers and degree stand for the design only when it is their basis
    def meta(self) -> dict:
        degree = self.x.shape[1] - 1
        if self.centers is not None and np.array_equal(
                self.x, polynomial_basis(self.centers, degree)):
            return {"family": "poisson_glm", "centers": self.centers.tolist(),
                    "degree": degree}
        return {"family": "poisson_glm", "x": self.x.tolist()}

    def mle_meta(self, mle: GlmPoint) -> dict:
        return {"beta": np.asarray(mle.beta).tolist()}

    def mle_from_meta(self, obj: dict) -> GlmPoint:
        """The fit at the sufficient vector ``beta`` a spec or store gives,
        refused unless it has param_dim finite entries."""
        beta = np.asarray(obj["beta"], dtype=float)
        if beta.shape != (self.param_dim,):
            raise ValueError(f"estimate beta {beta.tolist()} of {self.family_id} "
                             f"needs {self.param_dim} entries")
        if not np.all(np.isfinite(beta)):
            raise ValueError(f"estimate beta {beta.tolist()} must be finite")
        return self.unflatten(beta)


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
    routine behind scipy.special.ndtr.  It is kept for the bits of the
    prostate study's ``a``: at z = 3, 0.5 * math.erfc(z / sqrt 2) differs
    from it by 1.8e-15 relative, and the central-difference acceleration of
    the fdr amplifies that to 4e-9 relative in ``a``."""
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


def _fdr_bins(z: float, centers):
    """Masks of the bins below the threshold z and of those at it, within
    1e-9; the fdr is undefined unless some bin is not below."""
    x = np.asarray(centers, dtype=float)
    return x < z - 1e-9, np.abs(x - z) <= 1e-9


def _fdr_rule(z: float, centers):
    """statistic_fdr at a fixed threshold and bins, as a function of mu (J,)
    or of a stack (B, J); the normal tail and the bin masks are computed
    once."""
    below, at = _fdr_bins(z, centers)
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
