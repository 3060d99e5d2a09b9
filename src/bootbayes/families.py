"""Concrete families and the statistics evaluated on their stacked points.

Every family draws future data the way a run draws its replications, with
``sample_replication(at, rngs)``: a table of raw rows at a point, one row per
generator, with the terms of the point computed once per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .expfam import (FamilyModel, NumericalFailure, _whole, chol_logdet, matvec,
                     rowdot)

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
        self.n = _whole("gamma_scale n", n, 1)

    @property
    def family_id(self) -> str:
        return f"gamma_scale(n={self.n})"

    @property
    def param_dim(self) -> int:
        return 1

    def in_expectation_space(self, beta) -> bool:
        return bool(np.all(np.isfinite(beta) & (np.asarray(beta) > 0.0)))

    def canonical_of(self, point):
        beta = self.flatten(point)
        if np.any(beta <= 0.0):
            raise ValueError("scale parameter must be positive")
        return -self.n / beta

    def psi_of(self, point):
        a = self.canonical_of(point)[..., 0]
        if np.any(a >= 0.0):
            raise ValueError("canonical parameter must be negative")
        return -self.n * np.log(-a)

    def covariance_of(self, point):
        a = self.canonical_of(point)[..., 0]
        return (self.n / a**2)[..., None, None]

    def third_cumulant_of(self, point, direction) -> float:
        a = self.canonical_of(point)[0]
        v = np.atleast_1d(direction)[0]
        return float(-2.0 * self.n / a**3 * v**3)

    def sample_replication(self, at, rngs):
        beta = float(self.flatten(at)[0])
        if beta <= 0.0:
            raise ValueError("scale parameter must be positive")
        # beta through its canonical round trip -n / (-n / beta), in scalar
        # arithmetic, as seeded runs drew it
        scale = -self.n / (-self.n / beta) / self.n
        return np.array([rng.gamma(shape=self.n, scale=scale) for rng in rngs])[:, None]

    def meta(self) -> dict:
        return {"family": "gamma_scale", "n": self.n}


class NormalTranslationFamily(FamilyModel):
    """Multivariate normal with known covariance; beta is the mean itself.

    V is constant, so xi = 1 and delta = 0 identically: bootstrap and flat
    prior posterior coincide.  Useful as the null case of every reweighting
    identity.
    """

    def __init__(self, sigma=1.0):
        self.sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
        # before the symmetry check, which NaN would fail, and the Cholesky
        # factor, which infinity would pass
        if not np.isfinite(self.sigma).all():
            raise ValueError(f"normal_translation sigma {self.sigma.tolist()} must "
                             "be finite")
        if not np.array_equal(self.sigma, self.sigma.T):
            raise ValueError(f"normal_translation sigma {self.sigma.tolist()} is not "
                             "symmetric")
        try:
            self._chol = np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            raise ValueError(f"normal_translation sigma {self.sigma.tolist()} is not "
                             "positive definite") from None

    @property
    def family_id(self) -> str:
        return f"normal_translation(p={self.sigma.shape[0]})"

    @property
    def param_dim(self) -> int:
        return self.sigma.shape[0]

    def canonical_of(self, point):
        # one solve per row, each the same LAPACK call as for a single point
        return np.linalg.solve(self.sigma, self.flatten(point)[..., None])[..., 0]

    def psi_of(self, point):
        a = self.canonical_of(point)
        # (a' sigma) a, per row the products of a single point
        return (a[..., None, :] @ self.sigma @ a[..., None])[..., 0, 0] / 2.0

    def covariance_of(self, point):
        return np.broadcast_to(self.sigma, np.shape(self.flatten(point))[:-1]
                               + self.sigma.shape)

    def third_cumulant_of(self, point, direction) -> float:
        return 0.0

    def sample_replication(self, at, rngs):
        z = np.empty((len(rngs), self.param_dim))
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        return matvec(self.sigma, self.canonical_of(at)) + matvec(self._chol, z)

    # constant V: both corrections vanish identically, so return exact zeros
    # rather than accumulating 1e-16 roundoff through the generic formulas
    def delta(self, points, at):
        return np.zeros(np.shape(points)[:-1])

    log_xi = delta

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

    @cached_property
    def inv_logdet(self):
        """(inverse, logdet) of sigma, or of each matrix of a stack, with a
        closed form for the common 2x2 case."""
        if self.sigma.shape[-2:] == (2, 2):
            # indexing the transpose gives scalars for one matrix and arrays
            # over a stack; the inverse is symmetric, so its transpose only
            # puts the stack axes back in front
            t = self.sigma.T
            a, b, c = t[0, 0], t[1, 0], t[1, 1]
            det = a * c - b * b
            if np.any((det <= 0.0) | (a <= 0.0)):
                raise NumericalFailure("covariance matrix not positive definite")
            inv = np.array([[c, -b], [-b, a]]) / det
            return np.ascontiguousarray(inv.T), np.log(det)
        logdet = chol_logdet(self.sigma)
        return np.linalg.inv(self.sigma), logdet


def _mean_cov(y) -> MvnParam:
    """(ybar, S), S with divisor the row count, of a (rows, d) data array or
    of each one in a stack (..., rows, d)."""
    mu = y.mean(axis=-2)
    dev = y - mu[..., None, :]
    return MvnParam(mu, dev.swapaxes(-1, -2) @ dev / y.shape[-2])


class MvNormalFamily(FamilyModel):
    """Unknown mean and covariance of d-variate normal data, n observations.

    The replication point is the pair (ybar, S) with S the covariance MLE
    (divisor n).  A raw row is the n drawn observations, which ``points``
    reduces to (ybar, S); runs store the flat form (ybar, vech S), which
    ``unflatten`` maps back.

    Three of FamilyModel's point maps take a point (mu, sigma) or a stack of
    them, in closed form:

    * ``canonical_of``  alpha = (sigma^-1 mu, -1/2 c o vech sigma^-1), with
      c = 1 on the diagonal and 2 off it;
    * ``mean_of``       beta = n (mu, vech(sigma + mu mu'));
    * ``psi_of``        psi = (n/2) (mu' sigma^-1 mu + log|sigma|).

    ``covariance_of`` and ``third_cumulant_of`` are not written yet and raise
    CapabilityMissing.  The sufficient statistic of data with estimate
    (ybar, S) is beta(ybar, S), so the inherited ``deviance``,
    ``log_density_ratio`` and BaB multipliers serve this family as they are.
    ``delta``, ``log_xi`` and ``alpha_of`` are overridden, for the reasons
    given at each.
    """

    def __init__(self, d: int, n: int):
        self.d = _whole("mvnormal d", d, 1)
        self.n = _whole("mvnormal n", n, self.d + 1)
        self._tril = np.tril_indices(self.d)
        # -c/2 over vech: -1/2 on the diagonal, -1 off it
        self._vech_half_c = np.where(self._tril[0] == self._tril[1], -0.5, -1.0)

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
        return _mean_cov(y)

    def sample_replication(self, at: MvnParam, rngs) -> np.ndarray:
        """The n observations drawn at ``at`` from each generator, one flat row
        of n * d values per generator: the standard normals fill a (B, n, d)
        table one generator at a time, and one batched product maps them."""
        z = np.empty((len(rngs), self.n, self.d))
        for block, rng in zip(z, rngs):
            rng.standard_normal(out=block)
        y = z @ at.chol.T
        y += at.mu
        return y.reshape(len(z), -1)

    def points(self, raw) -> MvnParam:
        """(ybar, S) of each row of a (B, n * d) table of drawn observations,
        as one stacked point, or of one such row."""
        y = np.asarray(raw, dtype=float)
        return _mean_cov(y.reshape(y.shape[:-1] + (self.n, self.d)))

    def flatten(self, point: MvnParam) -> np.ndarray:
        return np.concatenate([point.mu, point.sigma[(...,) + self._tril]], axis=-1)

    def unflatten(self, vec) -> MvnParam:
        vec = np.asarray(vec, dtype=float)
        rows, cols = self._tril
        sigma = np.zeros(vec.shape[:-1] + (self.d, self.d))
        sigma[..., rows, cols] = vec[..., self.d:]
        sigma[..., cols, rows] = vec[..., self.d:]
        return MvnParam(vec[..., : self.d], sigma)

    # runs store no alpha columns: storing them costs 0.03-0.04 s more per
    # 10,000-row save_store, 0.02 s per load_store and 1.60 -> 2.69 MB a store
    def alpha_of(self, point):
        return None

    def canonical_of(self, point: MvnParam) -> np.ndarray:
        """alpha of a point, or of each row of a stack, shape (..., p)."""
        si = point.inv_logdet[0]
        return np.concatenate([matvec(si, point.mu),
                               self._vech_half_c * si[(...,) + self._tril]], axis=-1)

    def mean_of(self, point: MvnParam) -> np.ndarray:
        """beta of a point, or of each row of a stack, shape (..., p)."""
        mu = point.mu
        second = point.sigma + mu[..., :, None] * mu[..., None, :]
        return self.n * np.concatenate([mu, second[(...,) + self._tril]], axis=-1)

    def psi_of(self, point: MvnParam):
        """psi of a point, or of each row of a stack, shape (...)."""
        si, ld = point.inv_logdet
        return self.n / 2.0 * (rowdot(point.mu, matvec(si, point.mu)) + ld)

    # delta in (mu, sigma) arithmetic.  The inherited half deviance
    # difference agrees to 8.5e-13 absolute on the seed-15 eigenratio run
    # (|delta| up to 61), but moves that study's report past the 1e-12
    # window seeded outputs are held to: rbd.rbd by 6.2e-12 relative and
    # rbd.correlation by 1.1e-12
    def delta(self, points: MvnParam, at: MvnParam):
        inv, ld = points.inv_logdet
        inv_hat, ld_hat = at.inv_logdet
        dm = points.mu - at.mu
        quad = np.einsum("...i,...ij,...j->...", dm, inv_hat - inv, dm) / 2.0
        tr = (np.trace(points.sigma @ inv_hat, axis1=-2, axis2=-1)
              - np.trace(at.sigma @ inv, axis1=-2, axis2=-1)) / 2.0
        return self.n * (quad + tr + ld_hat - ld)

    # log|V| = (d + 2) log|sigma| plus a constant, so log_xi needs only the
    # log determinants delta reads too
    def log_xi(self, points: MvnParam, at: MvnParam):
        return (self.d + 2) / 2.0 * (points.inv_logdet[1] - at.inv_logdet[1])

    def meta(self) -> dict:
        return {"family": "mvnormal", "d": self.d, "n": self.n}

    def mle_meta(self, mle: MvnParam) -> dict:
        return {"mu": mle.mu.tolist(), "sigma": mle.sigma.tolist()}

    def mle_from_meta(self, obj: dict) -> MvnParam:
        """The estimate (mu, sigma) a spec or store gives, refused unless
        both are finite and of the family's shapes and sigma is exactly
        symmetric and positive definite: the draws read sigma's lower
        triangle and the weights its upper one."""
        mle = MvnParam.of(obj["mu"], obj["sigma"])
        if mle.mu.shape != (self.d,) or mle.sigma.shape != (self.d, self.d):
            raise ValueError(f"estimate of {self.family_id} needs mu of {self.d} "
                             f"entries and a {self.d} x {self.d} sigma")
        if not (np.all(np.isfinite(mle.mu)) and np.all(np.isfinite(mle.sigma))):
            raise ValueError(f"estimate mu {mle.mu.tolist()} and sigma "
                             f"{mle.sigma.tolist()} must be finite")
        if not np.array_equal(mle.sigma, mle.sigma.T):
            raise ValueError(f"estimate sigma {mle.sigma.tolist()} is not symmetric")
        try:
            mle.chol
        except np.linalg.LinAlgError:
            raise ValueError(f"estimate sigma {mle.sigma.tolist()} is not "
                             "positive definite") from None
        return mle


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
    # a strided view (one flat coordinate) would sum dot products in another order
    return np.ascontiguousarray(values)


def statistic_correlation(sigma):
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
    return Statistic("correlation", lambda pts: statistic_correlation(pts.sigma))


def eigenratio_statistic() -> Statistic:
    return Statistic("eigenratio", lambda pts: statistic_eigenratio(pts.sigma))


def log_prior_inverse_wishart(param: MvnParam, scale=None, df: float = 2.0):
    """Inverse-Wishart log kernel on sigma, flat in mu, at one point or at
    each row of a stacked point.

    Kernel |sigma|^-((df+d+1)/2) * exp(-tr(scale sigma^-1)/2); scale defaults
    to the identity.
    """
    si, ld = param.inv_logdet
    d = si.shape[-1]
    psi = np.eye(d) if scale is None else np.atleast_2d(np.asarray(scale, dtype=float))
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
