"""Exact density of the sample correlation of bivariate normal data.

The density of the observed correlation r under true correlation theta is

    f(r | theta) = c * integral_0^inf (cosh w - theta r)^-(n-1) dw,
    c = (n-2) (1-theta^2)^((n-1)/2) (1-r^2)^((n-4)/2) / pi.

The integrand decays like e^-(n-1)w, so the integral is truncated where the
relative tail drops below 10^-16 and evaluated by a fixed 120-node
Gauss-Legendre rule, vectorized over broadcastable (r, theta) arrays.
Integrated once more by Gauss-Legendre in Fisher's z = atanh r, it gives the
tail areas behind the exact interval.

The importance weights need no integral.  The integrand depends on (r, theta)
only through the product theta r, so in the ratio f(theta_hat | theta) /
f(theta | theta_hat) the integrals cancel, and so does every power of
(1 - r^2)(1 - theta^2) common to both; what is left is
((1 - theta^2) / (1 - theta_hat^2))^(3/2), for every n.
"""

from __future__ import annotations

import math

import numpy as np

from .expfam import NumericalFailure

__all__ = [
    "fisher_log_density",
    "fisher_exact_ci",
    "log_correlation_weights",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)
# tanh(18) < 1 in double precision, so |r| stays strictly inside (-1, 1)
_Z_MAX = 18.0


def _check_n(n: int) -> None:
    if n < 5:
        raise ValueError(f"density formula requires n >= 5, got n={n}")


def _check_open_interval(*values):
    for v in values:
        if np.any(np.abs(v) >= 1.0):
            raise ValueError("correlations must lie strictly inside (-1, 1)")


def _wmax(prod, n: int, log10_tail: float) -> np.ndarray:
    # beyond cosh(w) = prod + C(1-prod) the integrand has decayed by 10^-tail
    c = 10.0 ** (log10_tail / (n - 1))
    return np.arccosh(prod + c * (1.0 - prod))


def _logsumexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(sum(b * exp(a))) over the last axis, for positive b."""
    m = a.max(axis=-1, keepdims=True)
    return np.log(np.sum(b * np.exp(a - m), axis=-1)) + m[..., 0]


def fisher_log_density(r, theta, n: int):
    """Log density, vectorized over broadcastable r and theta arrays."""
    _check_n(n)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _check_open_interval(r, theta)
    prod = theta * r
    hi = _wmax(prod, n, 16.0)
    # map the 120 nodes onto [0, wmax] per element
    w = 0.5 * hi[..., None] * (_GL_NODES + 1.0)
    lv = -(n - 1) * np.log(np.cosh(w) - prod[..., None])
    logint = _logsumexp(lv, _GL_WEIGHTS * 0.5 * hi[..., None])
    logc = (np.log(n - 2) - np.log(np.pi)
            + (n - 1) / 2.0 * (np.log1p(-theta) + np.log1p(theta))
            + (n - 4) / 2.0 * (np.log1p(-r) + np.log1p(r)))
    return logc + logint


def _mass(theta: float, lo: float, hi: float, n: int) -> float:
    """P(lo < r < hi | theta) by Gauss-Legendre in z = atanh r, where the
    density is near normal with sd 1/sqrt(n-3) about atanh(theta) and its
    tails fall like e^-(n-2)|z|; the range is cut where both are negligible."""
    centre = math.atanh(theta)
    half = max(12.0 / math.sqrt(n - 3), 40.0 / (n - 2))
    a = max(centre - half, -_Z_MAX)
    b = min(centre + half, _Z_MAX)
    if lo > -1.0:
        a = max(a, math.atanh(lo))
    if hi < 1.0:
        b = min(b, math.atanh(hi))
    if b <= a:
        return 0.0
    r = np.tanh(a + 0.5 * (b - a) * (_GL_NODES + 1.0))
    f = np.exp(fisher_log_density(r, theta, n)) * (1.0 - r * r)
    return float(0.5 * (b - a) * (_GL_WEIGHTS @ f))


def _bisect(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by bisection, step for step the loop of
    scipy.optimize.bisect (relative tolerance 4 eps, at most 100 halvings).
    The steps are kept because they pick which point inside its 1e-4
    tolerance fisher_exact_ci reports."""
    rtol = 4.0 * np.finfo(float).eps
    fa, fb = f(xa), f(xb)
    if fa * fb > 0.0:
        raise NumericalFailure(
            f"interval endpoints not bracketed: f({xa:.6g}) = {fa:.3e} and "
            f"f({xb:.6g}) = {fb:.3e} have the same sign")
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    dm = xb - xa
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise NumericalFailure(f"bisection did not converge within 100 steps "
                           f"(last bracket [{xa:.17g}, {xa + dm:.17g}])")


def fisher_exact_ci(theta_hat: float, n: int,
                    coverage: float = 0.95) -> tuple[float, float]:
    """Equal-tailed exact interval for the correlation.

    The lower endpoint is the theta whose upper tail beyond the observed value
    equals (1-coverage)/2, and symmetrically for the upper endpoint; both are
    found by bisection to 1e-4.
    """
    fisher_log_density(theta_hat, theta_hat, n)  # validates theta_hat and n
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")
    tail = (1.0 - coverage) / 2.0
    eps = 1e-9

    def g_lo(th):
        return _mass(th, theta_hat, 1.0, n) - tail

    def g_hi(th):
        return _mass(th, -1.0, theta_hat, n) - tail

    lo = _bisect(g_lo, -1.0 + eps, theta_hat, 1e-4)
    hi = _bisect(g_hi, theta_hat, 1.0 - eps, 1e-4)
    return float(lo), float(hi)


def log_correlation_weights(thetas, theta_hat: float, n: int) -> np.ndarray:
    """Unnormalized log posterior weights for correlation replications under
    the scale-type prior 1/(1-theta^2).

    w_i = pi(theta_i) f(theta_hat | theta_i) / f(theta_i | theta_hat), with
    the density ratio in its closed form ((1-theta_i^2)/(1-theta_hat^2))^(3/2).
    """
    _check_n(n)
    thetas = np.asarray(thetas, dtype=float)
    _check_open_interval(thetas, theta_hat)
    log_one_minus_sq = np.log1p(-thetas) + np.log1p(thetas)
    return -log_one_minus_sq + 1.5 * (log_one_minus_sq - np.log1p(-theta_hat)
                                      - np.log1p(theta_hat))
