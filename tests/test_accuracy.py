"""Frequentist standard errors for reweighted estimates: bab and jackknife."""

import re

import numpy as np
import pytest
from scipy import stats

from bootbayes import (CapabilityMissing, GammaScaleFamily, MvNormalFamily,
                       NormalTranslationFamily, NumericalFailure,
                       Prior, OUTER_STREAM_OFFSET, bab_standard_error,
                       correlation_statistic,
                       fisher_log_density, jackknife_standard_error,
                       log_correlation_weights, run_bootstrap,
                       statistic_correlation, substream, summarize,
                       weights_from_log)
from bootbayes.posterior import importance_weights

from conftest import identity_statistic, with_bab_multipliers


@pytest.fixture(scope="module")
def gamma_run():
    family = GammaScaleFamily(n=20)
    return run_bootstrap(family, family.mle(1.0), B=2000, master_seed=11,
                         statistics=[identity_statistic()])


@pytest.fixture(scope="module")
def jeffreys(gamma_run):
    return importance_weights(gamma_run, Prior.jeffreys())


# multiplier weights -----------------------------------------------------------


def test_bab_weights_at_the_original_estimate_are_unit(gamma_run):
    w = np.exp(gamma_run.family.log_bab_multipliers(gamma_run, gamma_run.mle))
    assert np.array_equal(w, np.ones(gamma_run.B))


def test_bab_weights_match_gamma_density_ratios(gamma_run):
    family = gamma_run.family
    n = family.n
    gamma_point = np.array([1.3])
    logw = family.log_bab_multipliers(gamma_run, gamma_point)
    betas = gamma_run.params[:, 0]

    def logpdf(at, beta):
        return stats.gamma.logpdf(at, a=n, scale=beta / n)

    oracle = (logpdf(1.3, betas) - logpdf(1.3, 1.0)
              - logpdf(1.0, betas) + logpdf(1.0, 1.0))
    assert np.allclose(logw, oracle, rtol=1e-10, atol=1e-10)


def test_bab_weights_mvn_identity_and_finiteness(scores):
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    run = run_bootstrap(family, mle, B=200, master_seed=5,
                        statistics=[correlation_statistic()])
    assert np.array_equal(np.exp(family.log_bab_multipliers(run, mle)), np.ones(200))
    other = family.mle_from_data(scores.matrix[:-1])
    w = np.exp(family.log_bab_multipliers(run, other))
    assert np.all(np.isfinite(w)) and np.all(w > 0)
    assert np.ptp(w) > 0


# bootstrap-after-bootstrap ------------------------------------------------------


def test_bab_exact_when_the_multiplier_pins_the_original(gamma_run, jeffreys):
    family = gamma_run.family
    pinned = with_bab_multipliers(
        gamma_run, lambda g: family.log_bab_multipliers(gamma_run, gamma_run.mle))
    rep = bab_standard_error(pinned, jeffreys, "identity", K=64, master_seed=11)
    pe = summarize(gamma_run, jeffreys, "identity").mean
    assert np.all(rep.q_values == pe)
    assert rep.standard_error < 1e-14  # pure summation rounding
    assert rep.n_outer == 64 and rep.n_dropped == 0
    assert rep.method == "bootstrap-after-bootstrap"


def test_constant_statistic_has_zero_dispersion(gamma_run):
    from bootbayes import Statistic

    run = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    rep = bab_standard_error(run, importance_weights(run, Prior.jeffreys()),
                             "const", K=16, master_seed=3)
    assert rep.standard_error < 1e-12


@pytest.fixture(scope="module")
def correlation_accuracy(scores):
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    run = run_bootstrap(family, mle, B=2000, master_seed=7,
                        statistics=[correlation_statistic()])
    theta_hat = statistic_correlation(mle.sigma)
    thetas = run.statistic_values("correlation")
    wv = weights_from_log(
        run, log_correlation_weights(thetas, theta_hat, scores.n),
        "fisher-jeffreys")

    def mult(g):
        # log [f(th_k | t_i) / f(th_k | th_hat)] / [f(th_hat | t_i) / f(th_hat | th_hat)]
        # with the exact correlation density, th_k the outer draw's estimate
        th_k = statistic_correlation(g.sigma)
        return (fisher_log_density(th_k, thetas, scores.n)
                - fisher_log_density(th_k, theta_hat, scores.n)
                - fisher_log_density(theta_hat, thetas, scores.n)
                + fisher_log_density(theta_hat, theta_hat, scores.n))

    return family, mle, run, wv, mult


def test_bab_and_jackknife_agree_within_factor_two(scores, correlation_accuracy):
    family, mle, run, wv, mult = correlation_accuracy
    run = with_bab_multipliers(run, mult)
    rep_b = bab_standard_error(run, wv, "correlation", K=200, master_seed=7)
    rep_j = jackknife_standard_error(run, wv, "correlation", scores.matrix)
    assert rep_b.standard_error > 0 and rep_j.standard_error > 0
    ratio = rep_j.standard_error / rep_b.standard_error
    assert 0.5 < ratio < 2.0
    assert rep_j.method == "jackknife"
    assert rep_j.n_outer == scores.n


def test_jackknife_draws_stay_closer_to_the_original(scores, correlation_accuracy):
    # leave-one-out refits move the estimate far less than full redraws do
    family, mle, run, wv, mult = correlation_accuracy
    boot_extreme = max(
        np.max(np.abs(mult(family.points(family.sample_replication(
            mle, [substream(7, OUTER_STREAM_OFFSET + k)])[0]))))
        for k in range(50))
    jack_extreme = max(
        np.max(np.abs(mult(family.mle_from_data(np.delete(scores.matrix, k, axis=0)))))
        for k in range(scores.n))
    assert jack_extreme < boot_extreme


def test_bab_standard_error_of_a_flat_posterior_mean_is_sigma():
    # known variance: the flat-prior posterior mean under an outer estimate
    # gamma_k is about gamma_k itself, so its spread over the outer draws is
    # about the sampling sd sigma of the estimate
    sigma2 = 2.0
    family = NormalTranslationFamily(sigma=[[sigma2]])
    run = run_bootstrap(family, family.mle([0.0]), B=4000, master_seed=5,
                        statistics=[identity_statistic()])
    rep = bab_standard_error(run, importance_weights(run, Prior.jeffreys()),
                             "identity", K=200, master_seed=9)
    assert rep.n_dropped == 0
    assert rep.standard_error == pytest.approx(np.sqrt(sigma2), rel=0.15)


def test_low_effective_sample_size_flags_but_keeps_draws(gamma_run, jeffreys):
    spike = np.full(gamma_run.B, -np.inf)
    spike[0] = 0.0
    rep = bab_standard_error(with_bab_multipliers(gamma_run, lambda g: spike),
                             jeffreys, "identity", K=8, master_seed=2)
    assert rep.n_dropped == 0
    assert rep.min_ess == pytest.approx(1.0, rel=1e-9)
    assert any("floor" in w for w in rep.warnings)


def test_underflowing_outer_draws_are_dropped_with_a_warning(gamma_run, jeffreys):
    calls = {"k": 0}

    def flaky(g):
        calls["k"] += 1
        if calls["k"] == 3:
            return np.full(gamma_run.B, -np.inf)
        return np.zeros(gamma_run.B)

    rep = bab_standard_error(with_bab_multipliers(gamma_run, flaky), jeffreys,
                             "identity", K=40, master_seed=2)
    assert rep.n_dropped == 1 and rep.n_outer == 40
    assert len(rep.q_values) == 39
    assert any("underflow" in w for w in rep.warnings)
    assert np.flatnonzero(np.isnan(rep.outer_ess)).tolist() == [2]
    # the dropped draw is not also flagged
    assert rep.n_flagged == len(rep.warnings) - 1


def test_two_of_forty_underflowing_draws_reach_the_drop_limit(gamma_run, jeffreys):
    # 2 of 40 is MAX_DROP_FRAC of the pass, where 1 of 40 above is kept
    from bootbayes.accuracy import MAX_DROP_FRAC

    assert 2 >= MAX_DROP_FRAC * 40 > 1
    calls = {"k": 0}

    def flaky(g):
        calls["k"] += 1
        if calls["k"] in (3, 17):
            return np.full(gamma_run.B, -np.inf)
        return np.zeros(gamma_run.B)

    with pytest.raises(NumericalFailure, match="2 of 40 outer draws underflowed"):
        bab_standard_error(with_bab_multipliers(gamma_run, flaky), jeffreys,
                           "identity", K=40, master_seed=2)


def test_an_infinite_multiplier_is_named_not_dropped(gamma_run, jeffreys):
    def spike(g):
        log_w = np.zeros(gamma_run.B)
        log_w[11] = np.inf
        return log_w

    with pytest.raises(NumericalFailure,
                       match="outer draw 0: infinite log weight at replication 11"):
        bab_standard_error(with_bab_multipliers(gamma_run, spike), jeffreys,
                           "identity", K=4, master_seed=2)


def test_pervasive_underflow_is_an_error(gamma_run, jeffreys):
    with pytest.raises(NumericalFailure, match="underflow"):
        bab_standard_error(
            with_bab_multipliers(gamma_run, lambda g: np.full(gamma_run.B, -np.inf)),
            jeffreys, "identity", K=4, master_seed=2)


def test_quantile_quantity_and_validation(gamma_run, jeffreys):
    rep = bab_standard_error(gamma_run, jeffreys, "identity", K=12,
                             master_seed=6, quantity=("quantile", 0.5))
    assert rep.quantity.startswith("quantile[0.5]")
    assert np.isfinite(rep.standard_error)
    with pytest.raises(ValueError):
        bab_standard_error(gamma_run, jeffreys, "identity", K=12,
                           master_seed=6, quantity=("quantile", 1.5))
    with pytest.raises(ValueError):
        bab_standard_error(gamma_run, jeffreys, "identity", K=12,
                           master_seed=6, quantity="median")
    with pytest.raises(ValueError):
        bab_standard_error(gamma_run, jeffreys, "identity", K=1,
                           master_seed=6)


def test_a_numpy_integer_outer_count_counts_like_an_int(gamma_run, jeffreys):
    rep = bab_standard_error(gamma_run, jeffreys, "identity", K=np.int64(5),
                             master_seed=6)
    assert rep.n_outer == 5 and type(rep.n_outer) is int
    assert rep.to_dict() == bab_standard_error(gamma_run, jeffreys, "identity",
                                               K=5, master_seed=6).to_dict()


@pytest.mark.parametrize("K", [10.0, True], ids=["float", "bool"])
def test_an_outer_count_that_is_no_integer_is_refused(gamma_run, jeffreys, K):
    with pytest.raises(ValueError, match=re.escape(
            f"K must be an integer of at least 2, got {K!r}")):
        bab_standard_error(gamma_run, jeffreys, "identity", K=K, master_seed=6)


def test_weight_vectors_must_match_the_run(gamma_run):
    other = run_bootstrap(gamma_run.family, gamma_run.mle, B=50, master_seed=99,
                          statistics=[identity_statistic()])
    w = importance_weights(other, Prior.jeffreys())
    with pytest.raises(ValueError, match="run"):
        bab_standard_error(gamma_run, w, "identity", K=4, master_seed=1)
    # a prior is not weights: importance_weights turns it into them; the
    # weights are checked before the family's refit is looked for
    for not_weights in ("jeffreys", Prior.jeffreys()):
        with pytest.raises(TypeError):
            bab_standard_error(gamma_run, not_weights, "identity", K=4, master_seed=1)
        with pytest.raises(TypeError):
            jackknife_standard_error(gamma_run, not_weights, "identity",
                                     np.ones((4, 1)))


# jackknife ----------------------------------------------------------------------


def test_jackknife_without_refit_is_a_missing_capability(gamma_run, jeffreys):
    rows = np.arange(1.0, 9.0)[:, None]
    with pytest.raises(CapabilityMissing, match="refit"):
        jackknife_standard_error(gamma_run, jeffreys, "identity", rows)


def test_jackknife_needs_enough_rows(gamma_run, jeffreys):
    with pytest.raises(ValueError):
        jackknife_standard_error(gamma_run, jeffreys, "identity",
                                 np.ones((2, 1)))


def test_report_serializes_to_plain_types(gamma_run, jeffreys):
    import json

    rep = bab_standard_error(gamma_run, jeffreys, "identity", K=8,
                             master_seed=6)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["method"] == "bootstrap-after-bootstrap"
    assert back["n_outer"] == 8
    assert len(back["q_values"]) == 8
