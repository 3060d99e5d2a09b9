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

from .expfam import CapabilityMissing, NumericalFailure
from .posterior import (WeightVector, _check_run, _ess, _normalized,
                        ordered_quantile)
from .sampler import OUTER_STREAM_OFFSET, BootstrapRun, Substreams

__all__ = [
    "AccuracyReport",
    "bab_standard_error",
    "bab_standard_errors",
    "jackknife_standard_error",
    "ESS_FLOOR_FRAC",
    "MAX_DROP_FRAC",
]

# An outer draw whose effective sample size falls below ESS_FLOOR_FRAC * B is
# kept but flagged; a pass fails once MAX_DROP_FRAC of its outer draws
# underflow, because the inner run then does not cover the outer replications.
ESS_FLOOR_FRAC = 0.02
MAX_DROP_FRAC = 0.05


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


def _quantity_fn(quantity):
    """(label, estimate): estimate(t) prepares one statistic column once and
    returns the function of the normalized weights that gives its q."""
    if quantity == "mean":
        return "mean", lambda t: lambda w: float(t @ w)
    if isinstance(quantity, tuple) and len(quantity) == 2 and quantity[0] == "quantile":
        p = float(quantity[1])
        if not 0.0 < p < 1.0:
            raise ValueError("quantile level must be in (0, 1)")

        def estimate(t):
            # one sort per column; each outer draw only accumulates its weights
            order = np.argsort(t, kind="stable")
            v = t[order]
            return lambda w: float(ordered_quantile(v, order, w, p))

        return f"quantile[{p:g}]", estimate
    raise ValueError(f"unknown quantity {quantity!r}")


def _reweighted_values(run, base_log, estimates, outer_points, method):
    """q_k of every estimate under each outer draw, one draw at a time: one
    vector of the family's BaB multipliers, one normalization and one ESS per
    draw serve them all."""
    q_values = [[] for _ in estimates]
    warnings = []
    kept = dropped = 0
    min_ess = np.inf
    ess_floor = ESS_FLOOR_FRAC * run.B
    for k, gamma in enumerate(outer_points):
        log_w = run.family.log_bab_multipliers(run, gamma)
        try:
            normalized = _normalized(base_log + np.asarray(log_w, dtype=float))
        except NumericalFailure as exc:
            raise NumericalFailure(f"{method}: outer draw {k}: {exc}") from None
        if normalized is None:
            dropped += 1
            warnings.append(f"outer draw {k}: weights underflowed, dropped")
            continue
        w, _ = normalized
        ess = _ess(w)
        min_ess = min(min_ess, ess)
        if ess < ess_floor:
            # strained but usable; kept, with an audit trail
            warnings.append(
                f"outer draw {k}: effective sample size {ess:.1f} below "
                f"floor {ess_floor:.1f}")
        kept += 1
        for q, estimate in zip(q_values, estimates):
            q.append(estimate(w))
    if dropped >= MAX_DROP_FRAC * (kept + dropped) and dropped > 0:
        raise NumericalFailure(
            f"{method}: {dropped} of {kept + dropped} outer draws underflowed; "
            "the inner run does not cover the outer replications")
    if kept < 2:
        raise NumericalFailure(f"{method}: fewer than two usable outer draws")
    return [np.array(q) for q in q_values], dropped, float(min_ess), tuple(warnings)


def bab_standard_errors(run: BootstrapRun, weights: WeightVector, statistic_ids,
                        K: int, master_seed: int,
                        quantity="mean") -> dict[str, AccuracyReport]:
    """Bootstrap-after-bootstrap standard errors of one posterior quantity of
    several statistics under the run's posterior ``weights``, keyed by
    statistic id.

    The K outer MLEs are drawn and fitted once, from the dedicated substream
    block so they never collide with inner replications at the same master
    seed; each outer draw's multipliers then serve every statistic.
    """
    if K < 2:
        raise ValueError("need at least two outer replications")
    if isinstance(statistic_ids, str):
        raise ValueError(f"statistic_ids takes a list of ids, got the string "
                         f"{statistic_ids!r}; pass [{statistic_ids!r}]")
    ids = list(statistic_ids)
    if not ids:
        raise ValueError("need at least one statistic id")
    _check_run(run, weights)
    columns = [run.statistic_values(sid) for sid in ids]
    label, estimate = _quantity_fn(quantity)
    outer = run.family.points(run.family.sample_replication(
        run.mle, Substreams(master_seed, K, OUTER_STREAM_OFFSET)))
    q_values, dropped, min_ess, warn = _reweighted_values(
        run, weights.log_raw, [estimate(t) for t in columns],
        (outer[k] for k in range(K)), "bootstrap-after-bootstrap")
    return {sid: AccuracyReport(f"{label}[{sid}|{weights.prior_id}]",
                                "bootstrap-after-bootstrap", q,
                                float(np.std(q, ddof=1)), n_outer=K,
                                n_dropped=dropped, min_ess=min_ess, warnings=warn)
            for sid, q in zip(ids, q_values)}


def bab_standard_error(run: BootstrapRun, weights: WeightVector, statistic_id: str,
                       K: int, master_seed: int, quantity="mean") -> AccuracyReport:
    """bab_standard_errors for one statistic."""
    return bab_standard_errors(run, weights, [statistic_id], K, master_seed,
                               quantity)[statistic_id]


def jackknife_standard_error(run: BootstrapRun, weights: WeightVector,
                             statistic_id: str, rows) -> AccuracyReport:
    """Leave-one-out standard error of the posterior mean of a statistic: each
    outer draw is the family's refit (``mle_from_data``) to the data rows less
    one, reweighted by the same BaB multipliers.  A family without a refit
    raises CapabilityMissing.
    """
    rows = np.asarray(rows)
    n = rows.shape[0]
    if n < 3:
        raise ValueError("jackknife needs at least three rows")
    _check_run(run, weights)
    fit = getattr(run.family, "mle_from_data", None)
    if fit is None:
        raise CapabilityMissing(
            f"{run.family.family_id} cannot refit from data rows")
    t = run.statistic_values(statistic_id)
    label, estimate = _quantity_fn("mean")
    (q_values,), dropped, min_ess, warn = _reweighted_values(
        run, weights.log_raw, [estimate(t)],
        (fit(np.delete(rows, k, axis=0)) for k in range(n)), "jackknife")
    kept = q_values.size
    q_bar = q_values.mean()
    se = float(np.sqrt((kept - 1) / kept * np.sum((q_values - q_bar) ** 2)))
    return AccuracyReport(f"{label}[{statistic_id}|{weights.prior_id}]",
                          "jackknife", q_values, se, n_outer=n,
                          n_dropped=dropped, min_ess=min_ess, warnings=warn)
