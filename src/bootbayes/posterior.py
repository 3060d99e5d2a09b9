"""Posterior summaries from reweighted bootstrap replications.

The bootstrap samples from f_{beta_hat}; multiplying each replication by
pi(beta_i) R(beta_i) with R = xi exp(delta) converts bootstrap averages into
posterior expectations.  Weights are normalized once here and every summary
below is a plain weighted functional of the stored statistic columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .expfam import NumericalFailure
from .families import one_per_row
from .sampler import BootstrapRun

__all__ = [
    "Prior",
    "WeightVector",
    "log_conversion",
    "importance_weights",
    "weights_from_log",
    "weighted_quantile",
    "Interval",
    "credible_interval",
    "PosteriorSummary",
    "summarize",
    "RbdResult",
    "GridSpec",
    "weighted_density",
]


@dataclass(frozen=True)
class Prior:
    """A prior specification over family parameter points.

    kind selects the weighting rule: "jeffreys" cancels the volume factor xi
    analytically, "flat" keeps it, "density" evaluates log_density once on
    the run's stacked point (one value per replication), "values" uses
    precomputed per-replication log values.
    """

    id: str
    kind: str
    log_density: Callable | None = None
    log_values: np.ndarray | None = None

    @classmethod
    def jeffreys(cls) -> "Prior":
        return cls("jeffreys", "jeffreys")

    @classmethod
    def flat(cls) -> "Prior":
        return cls("flat", "flat")

    @classmethod
    def from_log_density(cls, prior_id: str, fn: Callable) -> "Prior":
        return cls(prior_id, "density", log_density=fn)

    @classmethod
    def from_values(cls, prior_id: str, log_values) -> "Prior":
        return cls(prior_id, "values",
                   log_values=np.asarray(log_values, dtype=float))

    def scaled(self, c: float) -> "Prior":
        """The prior times c > 0: the prior itself, since a constant factor
        cancels in the normalization of the weights."""
        if not c > 0.0:
            raise ValueError("prior scale factor must be positive")
        return self


@dataclass(frozen=True)
class WeightVector:
    """Normalized posterior weights tied to one run and one prior."""

    w: np.ndarray
    log_raw: np.ndarray
    prior_id: str
    run_id: str

    @property
    def ess(self) -> float:
        return _ess(self.w)

    @property
    def max_share(self) -> float:
        """The largest normalized weight: the share of the posterior that
        rests on one replication; ``ess`` is at least its reciprocal."""
        return float(np.max(self.w))

    @cached_property
    def khat(self) -> float:
        """Pareto tail shape of the weights: the generalized-Pareto shape of
        the largest m = ceil(min(B/5, 3 sqrt(B))) weights over the next one.
        At or past 0.7 importance sampling is unreliable (Vehtari et al.,
        "Pareto smoothed importance sampling").  NaN when there are fewer
        than m + 1 weights or ties leave the first quartile of the
        exceedances at 0, as with uniform weights."""
        w = np.sort(self.w)
        m = int(np.ceil(min(0.2 * w.size, 3.0 * np.sqrt(w.size))))
        if w.size < m + 1:
            return math.nan
        return _zhang_stephens_shape(w[-m:] - w[-m - 1])


def _zhang_stephens_shape(x) -> float:
    """Generalized-Pareto shape of exceedances x >= 0 by Zhang and Stephens'
    posterior-mean estimator on the grid PSIS uses (without PSIS's later
    prior on the shape); NaN when the first quartile of x is 0, which leaves
    the grid undefined."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    quartile = x[int(n / 4 + 0.5) - 1]
    if not quartile > 0.0:
        return math.nan
    m = 30 + int(np.sqrt(n))
    b = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))) / (
        3.0 * quartile)
    k = np.log1p(-b[:, None] * x).mean(axis=1)
    loglik = n * (np.log(-b / k) - k - 1.0)
    post = np.exp(loglik - loglik.max())
    return float(np.mean(np.log1p(-(post @ b / post.sum()) * x)))


def _ess(w: np.ndarray) -> float:
    """Effective sample size 1 / sum(w^2) of normalized weights."""
    return float(1.0 / np.sum(w**2))


def _normalized(log_raw: np.ndarray, truncate: float | None = None):
    """Weights proportional to exp(log_raw), taken relative to the largest,
    capped at their ``truncate`` quantile when given, and normalized to sum
    to one; None when every weight underflows to zero.  A NaN or a +inf log
    weight raises NumericalFailure."""
    if np.any(np.isnan(log_raw)):
        raise NumericalFailure("NaN in log weights")
    m = np.max(log_raw)
    if m == np.inf:
        raise NumericalFailure(
            f"infinite log weight at replication {int(np.argmax(log_raw))}")
    if m == -np.inf:
        return None
    w = np.exp(log_raw - m)
    if truncate is not None:
        w = np.minimum(w, np.quantile(w, truncate))
    total = w.sum()
    if not total > 0.0:
        raise NumericalFailure("importance weights sum to zero")
    return w / total


def _check_run(run: BootstrapRun, weights: WeightVector) -> None:
    """Raise unless ``weights`` is a WeightVector built for ``run``."""
    if not isinstance(weights, WeightVector):
        raise TypeError("weights must be a WeightVector of the run")
    if weights.run_id != run.run_id:
        raise ValueError(
            f"weights built for run {weights.run_id}, got run {run.run_id}")
    if weights.w.size != run.B:
        raise ValueError("weight vector length does not match the run")


def log_conversion(run: BootstrapRun) -> np.ndarray:
    """Per-replication log conversion factor log(xi) + delta, plus the
    proposal correction when the run has one.

    The weight builder and the implied-prior constructions share this one
    helper.  Dividing by R and multiplying back is not exact in floating
    point: on the eigenratio run (seed 15, B=2000, BcaConstants(0.1, 0.02)),
    (log w - log R) + log R differs from the BCa log weights log w by up to
    1.1e-15.  BCa weights agree with importance weights under ``bca_prior``
    because ``bca_weights`` is defined as exactly that."""
    lr = run.log_xi + run.delta
    if run.log_prop_corr is not None:
        lr = lr + run.log_prop_corr
    return lr


def _log_prior_values(run: BootstrapRun, prior: Prior) -> np.ndarray:
    if prior.kind == "flat":
        return np.zeros(run.B)
    if prior.kind == "density":
        return one_per_row(prior.log_density, run.points(), run.B,
                           f"prior {prior.id!r}")
    if prior.kind == "values":
        vals = prior.log_values
        if vals is None or vals.shape != (run.B,):
            raise ValueError("per-replication prior values do not match the run")
        return vals
    raise ValueError(f"unknown prior kind {prior.kind!r}")


def weights_from_log(run: BootstrapRun, log_raw, prior_id: str,
                     truncate: float | None = None) -> WeightVector:
    """Normalize raw log weights into a WeightVector for this run."""
    log_raw = np.asarray(log_raw, dtype=float)
    if log_raw.shape != (run.B,):
        raise ValueError("log weights must have one entry per replication")
    if truncate is not None and not 0.0 < truncate <= 1.0:
        raise ValueError("truncation quantile must be in (0, 1]")
    w = _normalized(log_raw, truncate)
    if w is None:
        raise NumericalFailure("all importance weights underflowed to zero")
    return WeightVector(w, log_raw, prior_id, run.run_id)


def importance_weights(run: BootstrapRun, prior: Prior,
                       truncate: float | None = None) -> WeightVector:
    """Posterior weights w_i proportional to pi_i xi_i exp(delta_i).

    For the jeffreys kind the xi factors cancel algebraically, so only delta
    enters; the non-standard-proposal correction is added whenever the run
    carries one.
    """
    if prior.kind == "jeffreys":
        lw = run.delta.copy()
        if run.log_prop_corr is not None:
            lw = lw + run.log_prop_corr
    else:
        lw = _log_prior_values(run, prior) + log_conversion(run)
    return weights_from_log(run, lw, prior.id, truncate)


def weighted_quantile(values, w, probs):
    """Quantiles of a weighted sample.

    Sorts by value, places each observation at the midpoint of its cumulative
    weight mass, interpolates linearly between neighbors and clamps beyond
    the extremes.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    return ordered_quantile(values[order], order, np.asarray(w, dtype=float), probs)


def ordered_quantile(v, order, w, probs):
    """weighted_quantile of values already sorted once: ``v`` is
    ``values[order]`` and ``w`` the weights in the original order, so many
    weight vectors can share one sort of the same values.

    np.interp's slope (v[j+1] - v[j]) / (c[j+1] - c[j]) overflows for values
    near the float maximum, so there it interpolates v * 2**-k, leaving 64
    binary orders of headroom, and scales back by 2**k; a power of two scales
    exactly short of the subnormal range."""
    ws = w[order] / w.sum()
    c = np.cumsum(ws) - 0.5 * ws
    k = max(0, np.frexp(max(abs(v[0]), abs(v[-1])))[1] - 960)
    q = np.interp(np.asarray(probs, dtype=float), c, np.ldexp(v, -k) if k else v)
    return np.ldexp(q, k)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    level: float

    def __iter__(self):
        return iter((self.lo, self.hi))


def credible_interval(run: BootstrapRun, weights: WeightVector,
                      statistic_id: str, level: float = 0.95) -> Interval:
    """Central credible interval from the weighted replication quantiles; a
    constant statistic c gets (c, c)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    _check_run(run, weights)
    tail = (1.0 - level) / 2.0
    lo, hi = weighted_quantile(run.statistic_values(statistic_id), weights.w,
                               [tail, 1.0 - tail])
    return Interval(float(lo), float(hi), level)


@dataclass(frozen=True)
class RbdResult:
    rbd: float
    correlation: float
    cv: float


@dataclass(frozen=True)
class PosteriorSummary:
    """The posterior of one statistic under one weight vector.

    ``mean`` and the central credible ``interval`` are computed with the
    summary; ``mc_se``, ``cv_internal``, ``rbd`` and ``ess`` only when first
    read, so a summary whose cv is undefined (an indicator with no weighted
    mass has mean 0) still gives its mean, interval and ``mc_se``.
    """

    run: BootstrapRun = field(repr=False, compare=False)
    weights: WeightVector = field(repr=False, compare=False)
    statistic_id: str
    mean: float
    interval: Interval

    @cached_property
    def mc_se(self) -> float:
        """Monte Carlo standard error of ``mean`` over the i.i.d. bootstrap
        replications: [sum w_i^2 (t_i - mean)^2]^(1/2), the delta-method
        error of the ratio of bootstrap averages sum w_i t_i / sum w_i;
        shrinks like B^-1/2 at fixed weight dispersion."""
        t = self.run.statistic_values(self.statistic_id)
        return float(np.sqrt(self.weights.w ** 2 @ (t - self.mean) ** 2))

    @cached_property
    def cv_internal(self) -> float:
        """Coefficient of variation ``mc_se / |mean|`` of the mean estimate."""
        if self.mean == 0.0:
            raise NumericalFailure("weighted mean is zero, cv undefined")
        return self.mc_se / abs(self.mean)

    @cached_property
    def rbd(self) -> RbdResult:
        """Relative Bayesian difference: posterior-vs-bootstrap mean shift in
        bootstrap standard deviation units, with its correlation * cv identity
        companions."""
        t = self.run.statistic_values(self.statistic_id)
        r = self.weights.w
        t_bar = t.mean()
        sd_t = t.std()
        if sd_t == 0.0:
            raise NumericalFailure("statistic is constant across replications")
        value = (self.mean - t_bar) / sd_t
        r_bar = r.mean()
        sd_r = r.std()
        corr = 0.0 if sd_r == 0.0 else float(
            ((t - t_bar) @ (r - r_bar)) / (t.size * sd_t * sd_r))
        return RbdResult(float(value), corr, float(sd_r / r_bar))

    @cached_property
    def ess(self) -> float:
        return self.weights.ess


def summarize(run: BootstrapRun, weights: WeightVector, statistic_id: str,
              level: float = 0.95) -> PosteriorSummary:
    """Posterior mean and central ``level`` credible interval of a statistic
    under ``weights``; every reported posterior quantity comes from here."""
    # looked up as a module global on every call, so a wrapper bound over
    # credible_interval (bench/tracer.py) sees each interval
    interval = credible_interval(run, weights, statistic_id, level)
    mean = float(weights.w @ run.statistic_values(statistic_id))
    return PosteriorSummary(run, weights, statistic_id, mean, interval)


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    cells: int = 200

    def edges(self) -> np.ndarray:
        if not (self.hi > self.lo and self.cells >= 1):
            raise ValueError("grid needs hi > lo and at least one cell")
        return np.linspace(self.lo, self.hi, self.cells + 1)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.cells


def _gaussian_smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel smoothing of x with zeros beyond its ends, the kernel
    cut at int(4 sigma + 0.5) cells."""
    radius = int(4.0 * sigma + 0.5)
    k = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    return np.convolve(x, w / w.sum())[radius:radius + x.size]


def weighted_density(run: BootstrapRun, weights: WeightVector,
                     statistic_id: str,
                     grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Weighted histogram density of a statistic, smoothed by a Gaussian
    kernel of bandwidth 1.06 sd ess^(-1/5) (none when the weighted sd is 0).

    Mass outside the grid is discarded and the rest renormalized, so the
    returned curve always integrates to one over the grid.
    """
    _check_run(run, weights)
    t = run.statistic_values(statistic_id)
    edges = grid.edges()
    counts, _ = np.histogram(t, bins=edges, weights=weights.w)
    inside = counts.sum()
    if inside <= 0.0:
        raise NumericalFailure("no posterior mass inside the density grid")
    density = counts / (inside * grid.width)
    mean = float(weights.w @ t)
    sd = float(np.sqrt(max(weights.w @ (t - mean) ** 2, 0.0)))
    bw = 1.06 * sd * weights.ess ** (-0.2)
    if bw > 0.0:
        density = _gaussian_smooth(density, bw / grid.width)
        total = density.sum() * grid.width
        if total <= 0.0:
            raise NumericalFailure("density vanished after smoothing")
        density = density / total
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, density
