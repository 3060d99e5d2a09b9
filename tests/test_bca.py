"""Bias-corrected accelerated reweighting and its constants."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm, rankdata, spearmanr

from bootbayes import (BcaConstants, GammaScaleFamily, NumericalFailure, Prior,
                       Statistic, bca_interval, bca_prior, bca_weights,
                       family_skew_acceleration, importance_weights,
                       jackknife_acceleration, run_bootstrap, weighted_quantile,
                       z0_estimate)

from conftest import identity_statistic


@pytest.fixture(scope="module")
def gamma_run():
    family = GammaScaleFamily(n=20)
    return run_bootstrap(family, family.mle(1.0), B=2000, master_seed=11,
                         statistics=[identity_statistic()])


def crafted_run(gamma_run, values):
    values = np.asarray(values, dtype=float)
    base = dataclasses.replace(
        gamma_run,
        params=gamma_run.params[: values.size],
        alphas=gamma_run.alphas[: values.size],
        delta=gamma_run.delta[: values.size],
        log_xi=gamma_run.log_xi[: values.size],
        B=values.size)
    return dataclasses.replace(base, t={"identity": values})


# weights ----------------------------------------------------------------------


def test_weights_match_the_normal_density_ratio_formula(gamma_run):
    z0, a = -0.12, 0.06
    w = bca_weights(gamma_run, "identity", BcaConstants(z0, a))
    t = gamma_run.statistic_values("identity")
    z = norm.ppf(rankdata(t) / (t.size + 1.0)) - z0
    raw = norm.pdf(z / (1.0 + a * z) - z0) / ((1.0 + a * z) ** 2 * norm.pdf(z + z0))
    assert np.allclose(w.w, raw / raw.sum(), rtol=1e-12, atol=1e-15)


def test_zero_constants_give_exactly_uniform_weights(gamma_run):
    w = bca_weights(gamma_run, "identity", BcaConstants(0.0, 0.0))
    assert np.array_equal(w.w, np.full(gamma_run.B, 1.0 / gamma_run.B))


def test_weights_equal_importance_weights_under_the_implied_prior(gamma_run):
    constants = BcaConstants(-0.1, 0.03)
    direct = bca_weights(gamma_run, "identity", constants)
    via_prior = importance_weights(
        gamma_run, bca_prior(gamma_run, "identity", constants))
    assert np.array_equal(direct.w, via_prior.w)
    assert direct.prior_id == "bca[identity]"


def test_negative_bias_constant_downweights_large_values(eigenratio_run):
    w = bca_weights(eigenratio_run, "eigenratio", BcaConstants(-0.222, 0.0))
    t = eigenratio_run.statistic_values("eigenratio")
    assert spearmanr(t, w.w).statistic == -1.0


def test_bca_and_jeffreys_weight_profiles_disagree(correlation_run):
    wj = importance_weights(correlation_run, Prior.jeffreys())
    wb = bca_weights(correlation_run, "correlation",
                     BcaConstants(-0.074, 0.026))
    corr = np.corrcoef(np.log(wj.w), np.log(wb.w))[0, 1]
    assert abs(corr) < 0.5


def test_acceleration_fold_is_reported_per_replication(gamma_run):
    with pytest.raises(NumericalFailure, match="replication"):
        bca_weights(gamma_run, "identity", BcaConstants(0.0, -0.5))


def test_extreme_bias_constant_warns():
    with pytest.warns(UserWarning, match="z0"):
        BcaConstants(3.5, 0.0)


# bias-correction constant -----------------------------------------------------


def test_z0_zero_when_half_the_replications_fall_below(gamma_run):
    run = crafted_run(gamma_run, np.arange(1.0, 201.0))
    assert z0_estimate(run, "identity", theta_hat=100.5) == 0.0


def test_z0_counts_ties_at_half_weight(gamma_run):
    run = crafted_run(gamma_run, np.tile([1.0, 2.0, 2.0, 3.0], 50))
    assert z0_estimate(run, "identity", theta_hat=2.0) == 0.0


def test_z0_known_quarter_split(gamma_run):
    run = crafted_run(gamma_run, np.arange(1.0, 201.0))
    got = z0_estimate(run, "identity", theta_hat=50.5)
    assert got == pytest.approx(norm.ppf(0.25), abs=1e-12)


def test_z0_small_runs_warn_and_degenerate_splits_fail(gamma_run):
    run = crafted_run(gamma_run, np.arange(1.0, 51.0))
    with pytest.warns(UserWarning, match="noisy"):
        z0_estimate(run, "identity", theta_hat=25.5)
    big = crafted_run(gamma_run, np.arange(1.0, 201.0))
    with pytest.raises(NumericalFailure, match="one side"):
        z0_estimate(big, "identity", theta_hat=0.0)


# acceleration constant ----------------------------------------------------------


def test_jackknife_acceleration_hand_value():
    rows = np.array([[0.0], [0.0], [1.0]])
    a = jackknife_acceleration(rows, lambda loo: float(loo.mean()))
    assert a == pytest.approx(math.sqrt(6.0) / 36.0, rel=1e-12)


def test_jackknife_acceleration_vanishes_for_symmetric_samples():
    rows = np.arange(9.0)[:, None]
    a = jackknife_acceleration(rows, lambda loo: float(loo.mean()))
    assert abs(a) < 1e-12


def test_jackknife_acceleration_input_validation():
    with pytest.raises(ValueError):
        jackknife_acceleration(np.array([[1.0], [2.0]]),
                               lambda loo: float(loo.mean()))
    with pytest.raises(NumericalFailure):
        jackknife_acceleration(np.ones((5, 1)), lambda loo: float(loo.mean()))


def test_family_skew_acceleration_matches_gamma_closed_form():
    family = GammaScaleFamily(n=25)
    a = family_skew_acceleration(family, family.mle(1.0),
                                 lambda beta: float(beta[0]))
    assert a == pytest.approx(1.0 / 15.0, rel=1e-4)


@pytest.mark.parametrize("statistic_name,expected", [
    ("correlation", 0.0),
    ("eigenratio", 0.0),
])
def test_score_data_acceleration_is_negligible(scores, statistic_name, expected):
    # target window: a = 0 +/- 0.02 for both score-data statistics
    from bootbayes import statistic_correlation, statistic_eigenratio

    if statistic_name == "correlation":
        stat = lambda loo: statistic_correlation(np.cov(loo.T, ddof=0) * 1.0)
    else:
        stat = lambda loo: statistic_eigenratio(np.cov(loo.T, ddof=0))
    a = jackknife_acceleration(scores.matrix, stat)
    assert a == pytest.approx(expected, abs=0.02)


# intervals ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_gamma_run():
    family = GammaScaleFamily(n=20)
    return run_bootstrap(family, family.mle(1.0), B=8000, master_seed=2,
                         statistics=[identity_statistic()])


def test_zero_acceleration_interval_is_percentile_mapped(wide_gamma_run):
    z0 = -0.1
    iv = bca_interval(wide_gamma_run, "identity", BcaConstants(z0, 0.0))
    t = wide_gamma_run.statistic_values("identity")
    ones = np.ones(t.size)
    lo = weighted_quantile(t, ones, norm.cdf(2 * z0 + norm.ppf(0.025)))
    hi = weighted_quantile(t, ones, norm.cdf(2 * z0 + norm.ppf(0.975)))
    assert iv.lo == pytest.approx(lo, abs=1e-3)
    assert iv.hi == pytest.approx(hi, abs=1e-3)


def test_interval_equivariance_under_linear_maps(wide_gamma_run):
    constants = BcaConstants(-0.08, 0.04)
    run = wide_gamma_run.with_statistic(
        Statistic("affine", lambda b: 3.0 * b[..., 0] + 2.0))
    base = bca_interval(run, "identity", constants)
    mapped = bca_interval(run, "affine", constants)
    assert mapped.lo == pytest.approx(3.0 * base.lo + 2.0, rel=1e-12)
    assert mapped.hi == pytest.approx(3.0 * base.hi + 2.0, rel=1e-12)


def test_interval_equivariance_under_monotone_maps(wide_gamma_run):
    constants = BcaConstants(-0.08, 0.04)
    run = wide_gamma_run.with_statistic(
        Statistic("expmap", lambda b: np.exp(b[..., 0])))
    base = bca_interval(run, "identity", constants)
    mapped = bca_interval(run, "expmap", constants)
    assert mapped.lo == pytest.approx(math.exp(base.lo), rel=1e-3)
    assert mapped.hi == pytest.approx(math.exp(base.hi), rel=1e-3)


def test_special_function_replacements_match_scipy_stats_bitwise():
    # bca and glm use their own normal quantile and tail and a numpy average
    # rank in place of norm.ppf, norm.sf and rankdata, so they import no
    # scipy; the quantile is AS241, within a few ulp of norm.ppf (Cephes)
    from bootbayes.bca import _average_rank, _normal_quantile
    from bootbayes.glm import _normal_tail

    rng = np.random.default_rng(8)
    p = rng.uniform(size=100_000)
    assert np.max(ulps_apart([_normal_quantile(v) for v in p], norm.ppf(p))) <= 8
    z = rng.normal(scale=3.0, size=100_000)
    assert np.array_equal([_normal_tail(v) for v in z], norm.sf(z))
    for values in (rng.integers(0, 50, size=100_000).astype(float),  # heavy ties
                   rng.normal(size=100_000),
                   np.array([2.0, 2.0, 2.0]), np.array([1.0])):
        assert np.array_equal(_average_rank(values),
                              rankdata(values, method="average"))


def ulps_apart(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.abs(x - y) / np.spacing(np.maximum(np.abs(x), np.abs(y)))


def test_normal_quantile_is_within_eight_ulp_of_ndtri():
    # z0 and the BCa weights call the quantile; AS241 and Cephes ndtri agree
    # to a few ulp from the far tails to the centre (worst seen: 6)
    from scipy.special import ndtri

    from bootbayes.bca import _normal_quantile

    rng = np.random.default_rng(9)
    p = np.concatenate([rng.uniform(size=100_000),
                        10.0 ** rng.uniform(-300, 0, 20_000),
                        1.0 - 10.0 ** rng.uniform(-16, 0, 20_000),
                        [0.5, 1e-300, 0.025, 0.975]])
    p = p[(p > 0.0) & (p < 1.0)]
    got = np.array([_normal_quantile(v) for v in p])
    assert np.max(ulps_apart(got, ndtri(p))) <= 8
    assert _normal_quantile(0.5) == 0.0
