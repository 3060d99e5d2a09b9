"""Frequentist accuracy of reweighted posterior estimates.

A posterior estimate is a function of the observed MLE, so its sampling error
can itself be bootstrapped: draw outer replications gamma_k of the MLE, shift
every stored replication by the density ratio toward gamma_k, recompute the
estimate, and take the spread.  No resampling of the B inner replications is
ever needed; one multiplier vector per outer draw does all the work.  The
leave-one-out variant replaces the outer draws with jackknife MLEs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expfam import NumericalFailure
from .posterior import Prior, WeightVector, importance_weights, weighted_quantile
from .sampler import OUTER_STREAM_OFFSET, BootstrapRun, substream

__all__ = [
    "AccuracyReport",
    "bab_weights",
    "bab_standard_error",
    "jackknife_standard_error",
]


@dataclass(frozen=True)
class AccuracyReport:
    """Outer-loop estimates q_k and their dispersion."""

    quantity: str
    method: str
    q_values: np.ndarray
    standard_error: float
    n_outer: int
    n_dropped: int = 0
    min_ess: float = float("nan")
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "method": self.method,
            "q_values": [float(v) for v in self.q_values],
            "standard_error": float(self.standard_error),
            "n_outer": int(self.n_outer),
            "n_dropped": int(self.n_dropped),
            "min_ess": float(self.min_ess),
            "warnings": list(self.warnings),
        }


def bab_weights(run: BootstrapRun, gamma_point, multiplier=None) -> np.ndarray:
    """Multipliers W_i shifting the run from its own MLE to an outer MLE.

    W_i is the density ratio f at gamma over f at the original estimate, both
    under replication i's parameter, normalized by the same ratio under the
    estimate itself.
    """
    log_w = (multiplier(gamma_point) if multiplier is not None
             else run.family.log_bab_multipliers(run, gamma_point))
    return np.exp(np.asarray(log_w, dtype=float))


def _resolve_weights(run: BootstrapRun, prior) -> WeightVector:
    if isinstance(prior, WeightVector):
        if prior.run_id != run.run_id:
            raise ValueError("weight vector belongs to a different run")
        return prior
    if isinstance(prior, Prior):
        return importance_weights(run, prior)
    raise TypeError("prior must be a Prior or a precomputed WeightVector")


def _quantity_fn(quantity):
    if quantity == "mean":
        return "mean", lambda t, w: float(t @ w)
    if isinstance(quantity, tuple) and len(quantity) == 2 and quantity[0] == "quantile":
        p = float(quantity[1])
        if not 0.0 < p < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return f"quantile[{p:g}]", lambda t, w: float(weighted_quantile(t, w, p))
    raise ValueError(f"unknown quantity {quantity!r}")


def _reweighted_values(run, base_log, t, outer_points, multiplier,
                       quantity_fn, ess_floor, max_drop_frac, method):
    q_values = []
    warnings = []
    dropped = 0
    min_ess = np.inf
    flagged = 0
    for k, gamma in enumerate(outer_points):
        log_w = (multiplier(gamma) if multiplier is not None
                 else run.family.log_bab_multipliers(run, gamma))
        lw = base_log + np.asarray(log_w, dtype=float)
        m = np.max(lw)
        w = np.exp(lw - m) if np.isfinite(m) else np.zeros(lw.size)
        total = w.sum()
        if not total > 0.0:
            dropped += 1
            warnings.append(f"outer draw {k}: weights underflowed, dropped")
            continue
        w /= total
        ess = 1.0 / np.sum(w**2)
        min_ess = min(min_ess, ess)
        if ess < ess_floor:
            # strained but usable; kept, with an audit trail
            flagged += 1
            warnings.append(
                f"outer draw {k}: effective sample size {ess:.1f} below "
                f"floor {ess_floor:.1f}")
        q_values.append(quantity_fn(t, w))
    kept = len(q_values)
    if dropped >= max_drop_frac * (kept + dropped) and dropped > 0:
        raise NumericalFailure(
            f"{method}: {dropped} of {kept + dropped} outer draws underflowed; "
            "the inner run does not cover the outer replications")
    if kept < 2:
        raise NumericalFailure(f"{method}: fewer than two usable outer draws")
    return np.array(q_values), dropped, float(min_ess), warnings


def bab_standard_error(run: BootstrapRun, prior, statistic_id: str, K: int,
                       master_seed: int, quantity="mean", multiplier=None,
                       ess_floor_frac: float = 0.02,
                       max_drop_frac: float = 0.05) -> AccuracyReport:
    """Bootstrap-after-bootstrap standard error of a posterior quantity.

    Outer MLE draws come from the dedicated substream block, so they never
    collide with inner replications at the same master seed.
    """
    if K < 2:
        raise ValueError("need at least two outer replications")
    weights = _resolve_weights(run, prior)
    t = run.statistic_values(statistic_id)
    label, qfn = _quantity_fn(quantity)
    base_log = weights.log_raw
    draw = run.family.sample_replication
    outer = run.family.points(np.array([
        draw(run.mle, substream(master_seed, OUTER_STREAM_OFFSET + k)) for k in range(K)]))
    q_values, dropped, min_ess, warn = _reweighted_values(
        run, base_log, t, (outer[k] for k in range(K)), multiplier, qfn,
        ess_floor_frac * run.B, max_drop_frac, "bootstrap-after-bootstrap")
    se = float(np.std(q_values, ddof=1))
    return AccuracyReport(f"{label}[{statistic_id}|{weights.prior_id}]",
                          "bootstrap-after-bootstrap", q_values, se,
                          n_outer=K, n_dropped=dropped, min_ess=min_ess,
                          warnings=tuple(warn))


def jackknife_standard_error(run: BootstrapRun, prior, statistic_id: str,
                             rows, quantity="mean", multiplier=None,
                             ess_floor_frac: float = 0.02,
                             max_drop_frac: float = 0.05) -> AccuracyReport:
    """Leave-one-out standard error via the same reweighting multipliers.

    Requires the family to refit an MLE from data rows (mle_from_data).
    """
    rows = np.asarray(rows)
    n = rows.shape[0]
    if n < 3:
        raise ValueError("jackknife needs at least three rows")
    fit = getattr(run.family, "mle_from_data", None)
    if fit is None and multiplier is None:
        raise NumericalFailure(
            f"{run.family.family_id} cannot refit from data rows")
    weights = _resolve_weights(run, prior)
    t = run.statistic_values(statistic_id)
    label, qfn = _quantity_fn(quantity)
    outer = (fit(np.delete(rows, k, axis=0)) for k in range(n)) if fit else \
            (np.delete(rows, k, axis=0) for k in range(n))
    q_values, dropped, min_ess, warn = _reweighted_values(
        run, weights.log_raw, t, outer, multiplier, qfn,
        ess_floor_frac * run.B, max_drop_frac, "jackknife")
    kept = q_values.size
    q_bar = q_values.mean()
    se = float(np.sqrt((kept - 1) / kept * np.sum((q_values - q_bar) ** 2)))
    return AccuracyReport(f"{label}[{statistic_id}|{weights.prior_id}]",
                          "jackknife", q_values, se, n_outer=n,
                          n_dropped=dropped, min_ess=min_ess,
                          warnings=tuple(warn))
