"""Exact density of the sample correlation of bivariate normal data.

The density of the observed correlation r under true correlation theta is

    f(r | theta) = c * integral_0^inf (cosh w - theta r)^-(n-1) dw,
    c = (n-2) (1-theta^2)^((n-1)/2) (1-r^2)^((n-4)/2) / pi.

The integrand decays like e^-(n-1)w, so the integral is truncated where the
relative tail drops below a fixed power of ten.  Two evaluation paths exist:
an adaptive-quadrature scalar path used for tail areas and interval
construction, and a fixed Gauss-Legendre path vectorized over thousands of
(r, theta) pairs for importance weights; the tests cross-check them.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import bisect
from scipy.special import logsumexp

from .expfam import NumericalFailure

__all__ = [
    "fisher_density",
    "fisher_log_density",
    "fisher_exact_ci",
    "log_correlation_weights",
    "log_correlation_bab_multipliers",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)


def _check_open_interval(*values):
    for v in values:
        if np.any(np.abs(v) >= 1.0):
            raise ValueError("correlations must lie strictly inside (-1, 1)")


def _wmax(prod, n: int, log10_tail: float) -> np.ndarray:
    # beyond cosh(w) = prod + C(1-prod) the integrand has decayed by 10^-tail
    c = 10.0 ** (log10_tail / (n - 1))
    return np.arccosh(prod + c * (1.0 - prod))


def fisher_density(r: float, theta: float, n: int) -> float:
    """Scalar density via adaptive quadrature."""
    _check_open_interval(r, theta)
    if n < 5:
        raise ValueError("density formula requires n >= 5")
    prod = theta * r
    hi = float(_wmax(prod, n, 14.0))
    val, _ = quad(lambda w: (np.cosh(w) - prod) ** (-(n - 1)), 0.0, hi)
    logc = (np.log(n - 2) - np.log(np.pi)
            + (n - 1) / 2.0 * np.log1p(-theta * theta)
            + (n - 4) / 2.0 * np.log1p(-r * r))
    return float(np.exp(logc) * val)


def fisher_log_density(r, theta, n: int):
    """Log density, vectorized over broadcastable r and theta arrays."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _check_open_interval(r, theta)
    prod = theta * r
    hi = _wmax(prod, n, 16.0)
    # map the 120 nodes onto [0, wmax] per element
    w = 0.5 * hi[..., None] * (_GL_NODES + 1.0)
    lv = -(n - 1) * np.log(np.cosh(w) - prod[..., None])
    logint = logsumexp(lv, axis=-1, b=_GL_WEIGHTS * 0.5 * hi[..., None])
    logc = (np.log(n - 2) - np.log(np.pi)
            + (n - 1) / 2.0 * (np.log1p(-theta) + np.log1p(theta))
            + (n - 4) / 2.0 * (np.log1p(-r) + np.log1p(r)))
    return logc + logint


def _tail_above(theta: float, lo: float, n: int) -> float:
    val, _ = quad(lambda r: fisher_density(r, theta, n), lo, 1.0, limit=200)
    return val


def _tail_below(theta: float, hi: float, n: int) -> float:
    val, _ = quad(lambda r: fisher_density(r, theta, n), -1.0, hi, limit=200)
    return val


def fisher_exact_ci(theta_hat: float, n: int, coverage: float = 0.95,
                    xtol: float = 1e-4) -> tuple[float, float]:
    """Equal-tailed exact interval for the correlation.

    The lower endpoint is the theta whose upper tail beyond the observed value
    equals (1-coverage)/2, and symmetrically for the upper endpoint; both are
    found by bisection.
    """
    _check_open_interval(theta_hat)
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")
    tail = (1.0 - coverage) / 2.0
    eps = 1e-9

    def g_lo(th):
        return _tail_above(th, theta_hat, n) - tail

    def g_hi(th):
        return _tail_below(th, theta_hat, n) - tail

    try:
        lo = bisect(g_lo, -1.0 + eps, theta_hat, xtol=xtol)
        hi = bisect(g_hi, theta_hat, 1.0 - eps, xtol=xtol)
    except ValueError as exc:
        raise NumericalFailure(f"interval endpoints not bracketed: {exc}") from exc
    return float(lo), float(hi)


def log_correlation_weights(thetas, theta_hat: float, n: int,
                            log_prior=None) -> np.ndarray:
    """Unnormalized log posterior weights for correlation replications.

    w_i = pi(theta_i) f(theta_hat | theta_i) / f(theta_i | theta_hat); the
    default prior is the scale-type 1/(1-theta^2).
    """
    thetas = np.asarray(thetas, dtype=float)
    if log_prior is None:
        lp = -(np.log1p(-thetas) + np.log1p(thetas))
    else:
        lp = np.asarray(log_prior(thetas), dtype=float)
    return (lp + fisher_log_density(theta_hat, thetas, n)
            - fisher_log_density(thetas, theta_hat, n))


def log_correlation_bab_multipliers(thetas, theta_hat: float,
                                    theta_hat_k: float, n: int) -> np.ndarray:
    """Bootstrap-after-bootstrap log multipliers for correlation replications:
    log of [f(th_k | t_i)/f(th_k | th_hat)] / [f(th_hat | t_i)/f(th_hat | th_hat)]."""
    thetas = np.asarray(thetas, dtype=float)
    return (fisher_log_density(theta_hat_k, thetas, n)
            - fisher_log_density(theta_hat_k, theta_hat, n)
            - fisher_log_density(theta_hat, thetas, n)
            + fisher_log_density(theta_hat, theta_hat, n))
