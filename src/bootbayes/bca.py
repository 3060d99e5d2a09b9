"""Bias-corrected accelerated reweighting of bootstrap replications.

Instead of quantile-mapping the bootstrap histogram, the BCa correction is
expressed as per-replication weights

    w_i = phi(z_i/(1+a z_i) - z0) / [ (1+a z_i)^2 phi(z_i + z0) ],
    z_i = Phi^-1(G(t_i)) - z0,

with G the bootstrap CDF.  Dividing the weights by the conversion factor R
exposes the implied prior, so BCa intervals slot into the same machinery as
any other reweighted posterior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .expfam import NumericalFailure
from .posterior import Prior, WeightVector, importance_weights, log_conversion
from .sampler import BootstrapRun

__all__ = [
    "BcaConstants",
    "z0_estimate",
    "jackknife_acceleration",
    "family_skew_acceleration",
    "bca_prior",
    "bca_weights",
]


# standard normal quantile (Wichura's AS241, in C), within a few ulp of
# scipy.special.ndtri
_normal_quantile = NormalDist().inv_cdf


@dataclass(frozen=True)
class BcaConstants:
    """Bias correction z0 and acceleration a."""

    z0: float
    a: float

    def __post_init__(self):
        if abs(self.z0) >= 3.0:
            warnings.warn(
                f"z0={self.z0:.3f} is extreme; the bootstrap distribution "
                "barely overlaps the estimate", stacklevel=2)


def z0_estimate(run: BootstrapRun, statistic_id: str, theta_hat: float) -> float:
    """Bias-correction constant from the bootstrap CDF at the observed value.

    Ties at theta_hat count half, keeping the estimate symmetric under sign
    flips of the statistic.
    """
    t = run.statistic_values(statistic_id)
    if t.size < 100:
        warnings.warn(f"z0 from only B={t.size} replications is noisy", stacklevel=2)
    p = (np.sum(t < theta_hat) + 0.5 * np.sum(t == theta_hat)) / t.size
    if p <= 0.0 or p >= 1.0:
        raise NumericalFailure(
            f"all replications on one side of the estimate (p={p}); increase B")
    return _normal_quantile(p)


def jackknife_acceleration(rows, statistic) -> float:
    """Acceleration from leave-one-out skewness of the statistic over rows."""
    rows = np.asarray(rows)
    n = rows.shape[0]
    if n < 3:
        raise ValueError("jackknife needs at least three rows")
    loo = np.array([float(statistic(np.delete(rows, i, axis=0)))
                    for i in range(n)])
    dev = loo.mean() - loo
    denom = np.sum(dev**2) ** 1.5
    if denom == 0.0:
        raise NumericalFailure("statistic is constant under row deletion")
    return float(np.sum(dev**3) / (6.0 * denom))


def family_skew_acceleration(family, mle, statistic) -> float:
    """Acceleration a = gamma/6 from the family's directional skewness.

    The direction is the gradient of the statistic in the flat replication
    coordinate, premultiplied by the inverse of ``covariance_of(mle)`` (the
    least-favorable direction); the skewness uses ``third_cumulant_of`` at
    the estimate in that direction.  A family without those maps raises
    CapabilityMissing.

    The gradient is a central difference at 1e-5 standard deviations of
    ``statistic(family.unflatten(b))``, so where ``unflatten`` refits a model
    to tol=1e-10 it amplifies ulp-level changes in that fit: perturbing the
    refit's input by 1e-15 relative moves ``a`` by about 1e-7 relative on the
    prostate degree-4 model.  So Poisson single fits and table refits run one
    IRLS loop, per row the same sums.
    """
    beta_hat = family.flatten(mle)
    v = family.covariance_of(mle)
    steps = 1e-5 * np.sqrt(np.diag(v))
    grad = np.empty(beta_hat.size)
    for j in range(beta_hat.size):
        e = np.zeros_like(beta_hat)
        e[j] = steps[j]
        grad[j] = (statistic(family.unflatten(beta_hat + e))
                   - statistic(family.unflatten(beta_hat - e))) / (2 * steps[j])
    c = np.linalg.solve(v, grad)
    scale = float(c @ v @ c)
    if scale <= 0.0:
        raise NumericalFailure("statistic gradient vanishes at the estimate")
    gamma = family.third_cumulant_of(mle, c) / scale**1.5
    return float(gamma / 6.0)


def _average_rank(t: np.ndarray) -> np.ndarray:
    """1-based ranks of t, tied values sharing the mean of their ranks."""
    s = np.sort(t)
    return (np.searchsorted(s, t, "left") + np.searchsorted(s, t, "right") + 1) / 2.0


def _log_bca_weights(run: BootstrapRun, statistic_id: str,
                     constants: BcaConstants) -> np.ndarray:
    t = run.statistic_values(statistic_id)
    z0, a = constants.z0, constants.a
    g = _average_rank(t) / (t.size + 1.0)
    z = np.fromiter(map(_normal_quantile, g.tolist()), float, g.size) - z0
    denom = 1.0 + a * z
    if np.any(denom <= 0.0):
        bad = int(np.argmin(denom))
        raise NumericalFailure(
            f"acceleration a={a} folds the transform at replication {bad} "
            f"(1 + a z = {denom[bad]:.3e})")
    u = z / denom - z0
    v = z + z0
    return (v * v - u * u) / 2.0 - 2.0 * np.log(denom)


def bca_prior(run: BootstrapRun, statistic_id: str,
              constants: BcaConstants) -> Prior:
    """The prior implied by BCa weights: log pi_i = log w_i - log R_i.

    Feeding this prior back through importance_weights reproduces the BCa
    weight vector exactly, since that is how bca_weights is defined.
    """
    lp = _log_bca_weights(run, statistic_id, constants) - log_conversion(run)
    return Prior.from_values(f"bca[{statistic_id}]", lp)


def bca_weights(run: BootstrapRun, statistic_id: str,
                constants: BcaConstants) -> WeightVector:
    """The BCa weights of a statistic: importance_weights under bca_prior."""
    return importance_weights(run, bca_prior(run, statistic_id, constants))

