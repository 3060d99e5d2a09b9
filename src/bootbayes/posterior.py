"""Posterior summaries from reweighted bootstrap replications.

The bootstrap samples from f_{beta_hat}; multiplying each replication by
pi(beta_i) R(beta_i) with R = xi exp(delta) converts bootstrap averages into
posterior expectations.  Weights are normalized once here and every summary
below is a plain weighted functional of the stored statistic columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .expfam import NumericalFailure
from .families import one_per_row
from .sampler import PREDICTIVE_STREAM_OFFSET, BootstrapRun, substream

__all__ = [
    "Prior",
    "WeightVector",
    "log_conversion",
    "importance_weights",
    "weights_from_log",
    "posterior_expectation",
    "weighted_quantile",
    "Interval",
    "credible_interval",
    "posterior_probability",
    "RbdResult",
    "rbd",
    "internal_cv",
    "GridSpec",
    "weighted_density",
    "posterior_predictive",
]


@dataclass(frozen=True)
class Prior:
    """A prior specification over family parameter points.

    kind selects the weighting rule: "jeffreys" cancels the volume factor xi
    analytically, "flat" keeps it, "density" evaluates log_density once on
    the run's stacked point (one value per replication), "values" uses
    precomputed per-replication log values.
    log_scale records multiplicative rescalings; it never enters the weight
    arithmetic because it cancels in the normalization, which is what makes
    scaling bit-exact.
    """

    id: str
    kind: str
    log_density: Callable | None = None
    log_values: np.ndarray | None = None
    log_scale: float = 0.0

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
        if not c > 0.0:
            raise ValueError("prior scale factor must be positive")
        return replace(self, log_scale=self.log_scale + math.log(c))


@dataclass(frozen=True)
class WeightVector:
    """Normalized posterior weights tied to one run and one prior."""

    w: np.ndarray
    log_raw: np.ndarray
    prior_id: str
    run_id: str
    truncated: bool = False

    @property
    def ess(self) -> float:
        return _ess(self.w)


def _ess(w: np.ndarray) -> float:
    """Effective sample size 1 / sum(w^2) of normalized weights."""
    return float(1.0 / np.sum(w**2))


def _normalized(log_raw: np.ndarray, truncate: float | None = None):
    """(w, truncated): weights proportional to exp(log_raw), taken relative
    to the largest, capped at their ``truncate`` quantile when given, and
    normalized to sum to one; None when every weight underflows to zero.
    A NaN or a +inf log weight raises NumericalFailure."""
    if np.any(np.isnan(log_raw)):
        raise NumericalFailure("NaN in log weights")
    m = np.max(log_raw)
    if m == np.inf:
        raise NumericalFailure(
            f"infinite log weight at replication {int(np.argmax(log_raw))}")
    if m == -np.inf:
        return None
    w = np.exp(log_raw - m)
    truncated = False
    if truncate is not None:
        cap = np.quantile(w, truncate)
        truncated = bool(np.any(w > cap))
        w = np.minimum(w, cap)
    total = w.sum()
    if not total > 0.0:
        raise NumericalFailure("importance weights sum to zero")
    return w / total, truncated


def _check_run(run: BootstrapRun, weights: WeightVector) -> None:
    if weights.run_id != run.run_id:
        raise ValueError(
            f"weights built for run {weights.run_id}, got run {run.run_id}")
    if weights.w.size != run.B:
        raise ValueError("weight vector length does not match the run")


def log_conversion(run: BootstrapRun) -> np.ndarray:
    """Per-replication log conversion factor log(xi) + delta, plus the
    proposal correction when the run has one.

    Both the weight builder and the implied-prior constructions use this one
    helper, so dividing by R and multiplying back cancels to the last bit.
    """
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
    normalized = _normalized(log_raw, truncate)
    if normalized is None:
        raise NumericalFailure("all importance weights underflowed to zero")
    w, truncated = normalized
    return WeightVector(w, log_raw, prior_id, run.run_id, truncated)


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


def posterior_expectation(run: BootstrapRun, weights: WeightVector,
                          statistic_id: str) -> float:
    _check_run(run, weights)
    return float(weights.w @ run.statistic_values(statistic_id))


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
    weight vectors can share one sort of the same values."""
    ws = w[order] / w.sum()
    c = np.cumsum(ws) - 0.5 * ws
    return np.interp(np.asarray(probs, dtype=float), c, v)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    level: float
    degenerate: bool = False

    def __iter__(self):
        return iter((self.lo, self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


def credible_interval(run: BootstrapRun, weights: WeightVector,
                      statistic_id: str, level: float = 0.95) -> Interval:
    """Central credible interval from the weighted replication quantiles."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    _check_run(run, weights)
    t = run.statistic_values(statistic_id)
    if np.all(t == t[0]):
        return Interval(float(t[0]), float(t[0]), level, degenerate=True)
    tail = (1.0 - level) / 2.0
    lo, hi = weighted_quantile(t, weights.w, [tail, 1.0 - tail])
    return Interval(float(lo), float(hi), level)


def posterior_probability(run: BootstrapRun, weights: WeightVector,
                          statistic_id: str, predicate) -> float:
    """Posterior mass of {t : predicate(t)} for a vectorized predicate."""
    _check_run(run, weights)
    mask = np.asarray(predicate(run.statistic_values(statistic_id)), dtype=bool)
    if mask.shape != weights.w.shape:
        raise ValueError("predicate must map the statistic vector to a boolean mask")
    return float(weights.w[mask].sum())


@dataclass(frozen=True)
class RbdResult:
    rbd: float
    correlation: float
    cv: float


def rbd(run: BootstrapRun, weights: WeightVector, statistic_id: str) -> RbdResult:
    """Relative Bayesian difference: posterior-vs-bootstrap mean shift in
    bootstrap standard deviation units, with its correlation * cv identity
    companions."""
    _check_run(run, weights)
    t = run.statistic_values(statistic_id)
    r = weights.w
    t_bar = t.mean()
    sd_t = t.std()
    if sd_t == 0.0:
        raise NumericalFailure("statistic is constant across replications")
    value = (float(r @ t) - t_bar) / sd_t
    r_bar = r.mean()
    sd_r = r.std()
    corr = 0.0 if sd_r == 0.0 else float(
        ((t - t_bar) @ (r - r_bar)) / (t.size * sd_t * sd_r))
    return RbdResult(float(value), corr, float(sd_r / r_bar))


def internal_cv(run: BootstrapRun, weights: WeightVector,
                statistic_id: str) -> float:
    """Delta-method coefficient of variation of the weighted mean estimate.

    Treats the estimate as a ratio of bootstrap averages of s = t*w and w;
    shrinks like B^-1/2 at fixed weight dispersion.
    """
    _check_run(run, weights)
    t = run.statistic_values(statistic_id)
    r = weights.w
    s = t * r
    s_bar, r_bar = s.mean(), r.mean()
    if s_bar == 0.0:
        raise NumericalFailure("weighted mean is zero, cv undefined")
    css = np.mean((s - s_bar) ** 2)
    crr = np.mean((r - r_bar) ** 2)
    csr = np.mean((s - s_bar) * (r - r_bar))
    var = (css / s_bar**2 - 2.0 * csr / (s_bar * r_bar) + crr / r_bar**2) / t.size
    return float(np.sqrt(max(var, 0.0)))


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
    """Gaussian kernel smoothing of x with zeros beyond its ends: the
    arithmetic of scipy.ndimage.gaussian_filter1d(x, sigma, mode="constant"),
    whose symmetric-kernel loop adds the centre term first and then
    (x[i-j] + x[i+j]) * w_j from the outermost j inwards."""
    radius = int(4.0 * sigma + 0.5)
    k = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    w = w / w.sum()
    n = x.size
    padded = np.concatenate([np.zeros(radius), x, np.zeros(radius)])
    out = x * w[radius]
    for j in range(radius, 0, -1):
        out += (padded[radius - j:radius - j + n]
                + padded[radius + j:radius + j + n]) * w[radius + j]
    return out


def weighted_density(run: BootstrapRun, weights: WeightVector,
                     statistic_id: str, grid: GridSpec,
                     smooth: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Weighted histogram density of a statistic, optionally kernel-smoothed.

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
    if smooth:
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


def posterior_predictive(run: BootstrapRun, weights: WeightVector,
                         draws: int, master_seed: int) -> list[tuple[np.ndarray, float]]:
    """Weighted future-data sample: at each of the first ``draws``
    replication parameters, one raw row as ``sample_replication`` draws it,
    a one-row table from that row's own generator (for the multivariate
    normal the n observations, flattened), paired with that replication's
    weight.

    Draws come from the predictive substream block, so even at the run's own
    master seed the future data share no random bits with the replications.
    """
    _check_run(run, weights)
    if not 1 <= draws <= run.B:
        raise ValueError("draws must be between 1 and B")
    points = run.family.unflatten(run.params[:draws])
    return [(run.family.sample_replication(
                points[i], [substream(master_seed, PREDICTIVE_STREAM_OFFSET + i)])[0],
             float(weights.w[i])) for i in range(draws)]
