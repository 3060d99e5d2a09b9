"""Importance reweighting: weights, intervals, diagnostics, density, predictive."""

import numpy as np
import pytest
from scipy import stats

from bootbayes import (GammaScaleFamily, NormalTranslationFamily,
                       NumericalFailure, Prior, Statistic, run_bootstrap)
from bootbayes.posterior import (GridSpec, credible_interval, ess,
                                 importance_weights, internal_cv,
                                 log_conversion, posterior_expectation,
                                 posterior_predictive, posterior_probability,
                                 rbd, weighted_density, weighted_quantile,
                                 weights_from_log)

from conftest import identity_statistic


@pytest.fixture(scope="module")
def gamma_run():
    family = GammaScaleFamily(n=20)
    return run_bootstrap(family, family.mle(1.0), B=2000, master_seed=11,
                         statistics=[identity_statistic()])


@pytest.fixture(scope="module")
def translation_run():
    family = NormalTranslationFamily(sigma=2.0)
    return run_bootstrap(family, family.mle(3.0), B=1500, master_seed=23,
                         statistics=[identity_statistic()])


# quantiles and intervals ------------------------------------------------------


def test_weighted_quantile_uniform_hand_values():
    values = np.arange(1.0, 1001.0)
    w = np.ones(1000)
    got = weighted_quantile(values, w, [0.05, 0.95])
    assert got[0] == pytest.approx(50.5, abs=1e-9)
    assert got[1] == pytest.approx(950.5, abs=1e-9)
    # beyond the extreme midpoints the quantile clamps to the end values
    assert weighted_quantile(values, w, 0.0) == 1.0
    assert weighted_quantile(values, w, 1.0) == 1000.0


def test_weighted_quantile_respects_unequal_mass():
    got = weighted_quantile(np.array([0.0, 1.0]), np.array([3.0, 1.0]), 0.5)
    assert got == pytest.approx(0.25, abs=1e-12)


def test_credible_intervals_nest_and_validate(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    inner = credible_interval(gamma_run, w, "identity", level=0.5)
    outer = credible_interval(gamma_run, w, "identity", level=0.95)
    assert outer.lo < inner.lo < inner.hi < outer.hi
    assert outer.width > inner.width
    lo, hi = outer
    assert (lo, hi) == (outer.lo, outer.hi)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            credible_interval(gamma_run, w, "identity", level=bad)


def test_credible_interval_degenerate_statistic(gamma_run):
    run = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    w = importance_weights(run, Prior.jeffreys())
    iv = credible_interval(run, w, "const")
    assert iv.degenerate and iv.lo == iv.hi == 4.0


# weight construction ----------------------------------------------------------


def test_flat_prior_on_translation_family_gives_exactly_uniform_weights(
        translation_run):
    w = importance_weights(translation_run, Prior.flat())
    assert np.array_equal(w.w, np.full(translation_run.B, 1.0 / translation_run.B))
    assert w.ess == pytest.approx(translation_run.B, rel=1e-12)


def test_jeffreys_weights_reconstruct_from_delta_column(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    raw = np.exp(gamma_run.delta - np.max(gamma_run.delta))
    assert np.array_equal(w.w, raw / raw.sum())
    assert w.prior_id == "jeffreys"


def test_density_prior_invariant_under_constant_shift(gamma_run):
    base = Prior.from_log_density("p", lambda pt: -pt[..., 0])
    shifted = Prior.from_log_density("q", lambda pt: 7.3 - pt[..., 0])
    w1 = importance_weights(gamma_run, base)
    w2 = importance_weights(gamma_run, shifted)
    assert np.allclose(w1.w, w2.w, rtol=1e-12, atol=1e-15)


def test_scaled_prior_is_bitwise_identical(gamma_run):
    base = Prior.from_log_density("p", lambda pt: -pt[..., 0])
    w1 = importance_weights(gamma_run, base)
    w2 = importance_weights(gamma_run, base.scaled(123.0))
    assert np.array_equal(w1.w, w2.w)
    with pytest.raises(ValueError):
        base.scaled(-1.0)


def test_values_prior_validation(gamma_run):
    with pytest.raises(ValueError, match="match the run"):
        importance_weights(gamma_run, Prior.from_values("v", np.zeros(3)))
    nan_vals = np.zeros(gamma_run.B)
    nan_vals[7] = np.nan
    with pytest.raises(NumericalFailure, match="NaN"):
        importance_weights(gamma_run, Prior.from_values("v", nan_vals))
    with pytest.raises(NumericalFailure, match="underflow"):
        importance_weights(gamma_run,
                           Prior.from_values("v", np.full(gamma_run.B, -np.inf)))


def test_truncation_caps_heavy_weights(gamma_run):
    plain = importance_weights(gamma_run, Prior.jeffreys())
    capped = importance_weights(gamma_run, Prior.jeffreys(), truncate=0.9)
    assert capped.truncated
    assert capped.w.max() < plain.w.max()
    assert capped.w.sum() == pytest.approx(1.0, rel=1e-12)
    noop = importance_weights(gamma_run, Prior.jeffreys(), truncate=1.0)
    assert not noop.truncated
    assert np.array_equal(noop.w, plain.w)
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            importance_weights(gamma_run, Prior.jeffreys(), truncate=bad)


def test_ess_extremes(gamma_run, translation_run):
    one_hot = np.full(gamma_run.B, -np.inf)
    one_hot[3] = 0.0
    w = importance_weights(gamma_run, Prior.from_values("spike", one_hot))
    assert ess(w) == 1.0
    # uniform prior values give uniform weights only when conversion is trivial
    uniform = importance_weights(translation_run, Prior.from_values(
        "flat-values", np.zeros(translation_run.B)))
    assert ess(uniform) == pytest.approx(translation_run.B, rel=1e-12)


# summaries --------------------------------------------------------------------


def test_posterior_expectation_uniform_is_plain_mean(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    t = translation_run.statistic_values("identity")
    assert posterior_expectation(translation_run, w, "identity") == pytest.approx(
        t.mean(), rel=1e-12)
    with pytest.raises(ValueError):
        posterior_expectation(translation_run, w, "nope")


def test_weights_are_tied_to_their_run(gamma_run, translation_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    with pytest.raises(ValueError, match="built for run"):
        posterior_expectation(translation_run, w, "identity")


def test_posterior_probability_splits_unit_mass(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    above = posterior_probability(gamma_run, w, "identity", lambda t: t > 1.0)
    below = posterior_probability(gamma_run, w, "identity", lambda t: t <= 1.0)
    assert above + below == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < above < 1.0
    with pytest.raises(ValueError, match="mask"):
        posterior_probability(gamma_run, w, "identity", lambda t: True)


def test_rbd_factorizes_into_correlation_times_cv(correlation_run):
    w = importance_weights(correlation_run, Prior.jeffreys())
    out = rbd(correlation_run, w, "correlation")
    assert abs(out.rbd - out.correlation * out.cv) <= 1e-12
    assert out.rbd < 0.0  # reweighting pulls the correlation posterior down


def test_rbd_uniform_weights_vanish(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    out = rbd(translation_run, w, "identity")
    assert abs(out.rbd) < 1e-10
    assert out.cv < 1e-12 and abs(out.correlation) < 1e-10


def test_rbd_rejects_constant_statistic(gamma_run):
    run = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    w = importance_weights(run, Prior.jeffreys())
    with pytest.raises(NumericalFailure, match="constant"):
        rbd(run, w, "const")


def test_internal_cv_uniform_weights_reduce_to_standard_error(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    t = translation_run.statistic_values("identity")
    expect = (t.std() / np.sqrt(t.size)) / abs(t.mean())
    assert internal_cv(translation_run, w, "identity") == pytest.approx(
        expect, rel=1e-10)


def test_internal_cv_matches_independent_moment_computation(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    t = gamma_run.statistic_values("identity")
    s, r = t * w.w, w.w
    cov = np.cov(np.vstack([s, r]), ddof=0)
    var = (cov[0, 0] / s.mean() ** 2 - 2.0 * cov[0, 1] / (s.mean() * r.mean())
           + cov[1, 1] / r.mean() ** 2) / t.size
    assert internal_cv(gamma_run, w, "identity") == pytest.approx(
        np.sqrt(var), rel=1e-10)


def test_internal_cv_edge_statistics(gamma_run):
    zero = gamma_run.with_statistic(Statistic("zero", lambda b: np.zeros(len(b))))
    w = importance_weights(zero, Prior.jeffreys())
    with pytest.raises(NumericalFailure, match="zero"):
        internal_cv(zero, w, "zero")
    const = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    wc = importance_weights(const, Prior.jeffreys())
    assert internal_cv(const, wc, "const") < 1e-7


# density and predictive -------------------------------------------------------


def test_weighted_density_integrates_to_one(correlation_run):
    w = importance_weights(correlation_run, Prior.jeffreys())
    grid = GridSpec(-0.2, 1.0, cells=240)
    for smooth in (False, True):
        centers, density = weighted_density(correlation_run, w, "correlation",
                                            grid, smooth=smooth)
        assert centers.shape == density.shape == (240,)
        assert density.sum() * grid.width == pytest.approx(1.0, abs=1e-9)


def test_weighted_density_unsmoothed_is_the_weighted_histogram(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    t = gamma_run.statistic_values("identity")
    grid = GridSpec(0.0, 3.5, cells=70)
    _, density = weighted_density(gamma_run, w, "identity", grid, smooth=False)
    oracle, _ = np.histogram(t, bins=grid.edges(), weights=w.w, density=True)
    assert np.allclose(density, oracle, rtol=1e-10, atol=1e-12)


def test_weighted_density_tail_mass_matches_interval(correlation_run):
    w = importance_weights(correlation_run, Prior.jeffreys())
    grid = GridSpec(-0.2, 1.0, cells=240)
    centers, density = weighted_density(correlation_run, w, "correlation",
                                        grid, smooth=False)
    iv = credible_interval(correlation_run, w, "correlation")
    below = density[centers < iv.lo].sum() * grid.width
    assert below == pytest.approx(0.025, abs=0.004)


def test_weighted_density_empty_grid_fails(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    with pytest.raises(NumericalFailure, match="mass"):
        weighted_density(gamma_run, w, "identity", GridSpec(50.0, 60.0))


def test_posterior_predictive_centers_on_the_estimate(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    pairs = posterior_predictive(translation_run, w, draws=1500, master_seed=99)
    ys = np.array([float(np.atleast_1d(y)[0]) for y, _ in pairs])
    # draw variance = parameter spread + observation noise = 2 + 2
    assert ys.mean() == pytest.approx(3.0, abs=3.0 * 2.0 / np.sqrt(1500))
    assert np.array_equal(np.array([wi for _, wi in pairs]), w.w)


def test_posterior_predictive_deterministic_and_bounded(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    a = posterior_predictive(translation_run, w, draws=5, master_seed=4)
    b = posterior_predictive(translation_run, w, draws=5, master_seed=4)
    assert all(np.array_equal(ya, yb) for (ya, _), (yb, _) in zip(a, b))
    for bad in (0, translation_run.B + 1):
        with pytest.raises(ValueError):
            posterior_predictive(translation_run, w, draws=bad, master_seed=4)


def test_posterior_predictive_noise_is_independent_of_the_replication():
    # at the run's own master seed the predictive draw must not reuse the
    # replication's substream, or y_i - point_i repeats point_i - mle
    family = NormalTranslationFamily(dim=1)
    mle = family.mle(0.0)
    run = run_bootstrap(family, mle, B=4000, master_seed=5)
    w = importance_weights(run, Prior.flat())
    pairs = posterior_predictive(run, w, draws=run.B, master_seed=run.master_seed)
    ys = np.array([float(np.atleast_1d(y)[0]) for y, _ in pairs])
    points = run.params[:, 0]
    noise, spread = ys - points, points - mle[0]
    assert not np.allclose(noise, spread)
    assert abs(np.corrcoef(noise, spread)[0, 1]) < 4.0 / np.sqrt(run.B)
    # draw variance = parameter spread + observation noise = 1 + 1
    assert ys.var() == pytest.approx(2.0, rel=0.1)


def test_log_conversion_sums_the_stored_columns(gamma_run):
    assert np.array_equal(log_conversion(gamma_run),
                          gamma_run.log_xi + gamma_run.delta)


def test_log_weight_shape_validation(gamma_run):
    with pytest.raises(ValueError, match="one entry"):
        weights_from_log(gamma_run, np.zeros(7), "x")


def test_eigenratio_weights_are_nearly_flat(eigenratio_run):
    # target: effective sample size above 0.8 B for the eigenratio reweighting
    w = importance_weights(eigenratio_run, Prior.jeffreys())
    assert ess(w) > 0.8 * eigenratio_run.B
