"""Importance reweighting: weights, intervals, summaries, diagnostics, density."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import stats

from bootbayes import (GammaScaleFamily, MvNormalFamily, NormalTranslationFamily,
                       NumericalFailure, PoissonGlmFamily, Prior, Statistic,
                       eigenratio_statistic, fdr_statistic,
                       log_prior_inverse_wishart, run_bootstrap)
from bootbayes.posterior import (GridSpec, PosteriorSummary, WeightVector,
                                 credible_interval, importance_weights,
                                 log_conversion, summarize, weighted_density,
                                 weighted_quantile, weights_from_log)

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


def test_an_interval_near_the_float_maximum_does_not_cross():
    # np.interp's slopes between replications this large overflowed, and the
    # lower end came out inf above a finite upper end
    family = GammaScaleFamily(n=20)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log_xi overflows at this scale; Jeffreys weights do not read it
        run = run_bootstrap(family, family.mle([1e308]), B=50, master_seed=0,
                            statistics=[identity_statistic()])
    weights = importance_weights(run, Prior.jeffreys())
    lo, hi = credible_interval(run, weights, "identity")
    assert lo == pytest.approx(6.896161373435497e307, rel=1e-12)
    assert hi == pytest.approx(1.7025220207442231e308, rel=1e-12)
    # the same ends as the values scaled down by a power of two, then back
    t, probs = run.statistic_values("identity"), [0.025, 0.975]
    assert np.array_equal(weighted_quantile(t, weights.w, probs),
                          np.ldexp(weighted_quantile(np.ldexp(t, -64), weights.w,
                                                     probs), 64))


FLOAT_MAX = np.finfo(float).max
# any finite value, or one within a factor of two of the float maximum
finite_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(FLOAT_MAX / 2, FLOAT_MAX).flatmap(lambda x: st.sampled_from([x, -x])))


@seed(0)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(finite_values, st.floats(1e-300, 1e300)),
                min_size=1, max_size=30),
       st.floats(0.001, 0.5, exclude_max=True))
def test_weighted_quantile_ends_are_finite_and_never_cross(pairs, tail):
    values, w = map(np.array, zip(*pairs))
    lo, hi = weighted_quantile(values, w, [tail, 1.0 - tail])
    assert np.isfinite(lo) and np.isfinite(hi)
    assert lo <= hi


def test_credible_intervals_nest_and_validate(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    inner = credible_interval(gamma_run, w, "identity", level=0.5)
    outer = credible_interval(gamma_run, w, "identity", level=0.95)
    assert outer.lo < inner.lo < inner.hi < outer.hi
    assert outer.hi - outer.lo > inner.hi - inner.lo
    lo, hi = outer
    assert (lo, hi) == (outer.lo, outer.hi)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            credible_interval(gamma_run, w, "identity", level=bad)


def test_credible_interval_degenerate_statistic(gamma_run):
    run = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    w = importance_weights(run, Prior.jeffreys())
    iv = credible_interval(run, w, "const")
    assert iv.lo == iv.hi == 4.0


@pytest.mark.parametrize("c", [4.0, 0.1, -2.5e-7, 1e300, 0.0])
def test_constant_statistic_gets_its_value_as_both_ends_even_with_zero_weights(
        gamma_run, c):
    # rows of weight exactly 0, first, last and inside, leave zero-width steps
    # in the cumulative weights, where the quantile takes the step's value, c
    run = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), c)))
    log_prior = np.zeros(run.B)
    log_prior[::3] = log_prior[:5] = log_prior[-4:] = -np.inf
    gaps = importance_weights(run, Prior.from_values("gaps", log_prior))
    assert np.count_nonzero(gaps.w == 0.0) > run.B // 3
    for w in (importance_weights(run, Prior.jeffreys()), gaps):
        for level in (0.5, 0.95, 0.999):
            iv = credible_interval(run, w, "const", level)
            assert (iv.lo, iv.hi) == (c, c)


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
    assert base.scaled(123.0) is base
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


def test_an_infinite_log_weight_names_its_replication(gamma_run):
    inf_vals = np.zeros(gamma_run.B)
    inf_vals[5] = inf_vals[9] = np.inf
    with pytest.raises(NumericalFailure,
                       match="infinite log weight at replication 5$"):
        importance_weights(gamma_run, Prior.from_values("v", inf_vals))


def test_truncation_caps_heavy_weights(gamma_run):
    plain = importance_weights(gamma_run, Prior.jeffreys())
    capped = importance_weights(gamma_run, Prior.jeffreys(), truncate=0.9)
    # the top tenth of the weights share the cap
    assert np.count_nonzero(capped.w == capped.w.max()) >= gamma_run.B // 10
    assert capped.w.max() < plain.w.max()
    assert capped.w.sum() == pytest.approx(1.0, rel=1e-12)
    noop = importance_weights(gamma_run, Prior.jeffreys(), truncate=1.0)
    assert np.array_equal(noop.w, plain.w)
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            importance_weights(gamma_run, Prior.jeffreys(), truncate=bad)


def test_ess_extremes(gamma_run, translation_run):
    one_hot = np.full(gamma_run.B, -np.inf)
    one_hot[3] = 0.0
    w = importance_weights(gamma_run, Prior.from_values("spike", one_hot))
    assert w.ess == 1.0
    # uniform prior values give uniform weights only when conversion is trivial
    uniform = importance_weights(translation_run, Prior.from_values(
        "flat-values", np.zeros(translation_run.B)))
    assert uniform.ess == pytest.approx(translation_run.B, rel=1e-12)


def test_max_share_is_the_largest_weight_and_bounds_the_ess(gamma_run,
                                                           eigenratio_run,
                                                           scores):
    B = 2000
    uniform = WeightVector(np.full(B, 1.0 / B), np.zeros(B), "test", "test")
    assert uniform.max_share == 1.0 / B
    poisson_run, poisson_w, _ = _summary_case("poisson", scores)
    for run, w in [(gamma_run, importance_weights(gamma_run, Prior.jeffreys())),
                   (eigenratio_run, importance_weights(eigenratio_run, Prior.jeffreys())),
                   (poisson_run, poisson_w)]:
        assert w.max_share == w.w.max()
        assert w.ess >= 1.0 / w.max_share


# k-hat takes the largest m = ceil(min(B/5, 3 sqrt(B))) weights over the next
# one: with B=100, m=20, and the tail's first quartile is its 5th value
@pytest.mark.parametrize("raw, defined", [
    ([1.0], False),
    ([1.0, 2.0], True),
    ([1.0, 1.0], False),
    (np.ones(1500), False),
    (np.r_[np.linspace(1, 2, 70), np.full(30, 3.0)], False),
    (np.r_[np.linspace(1, 2, 75), np.full(10, 2.5), np.linspace(3, 4, 15)], False),
], ids=["B=1", "B=2", "B=2-tied", "uniform", "tied-top", "tie-at-quartile"])
def test_khat_is_nan_where_the_tail_fit_is_undefined(raw, defined):
    raw = np.asarray(raw)
    khat = WeightVector(raw / raw.sum(), np.log(raw), "test", "test").khat
    assert np.isfinite(khat) if defined else np.isnan(khat), khat


# summaries --------------------------------------------------------------------


def test_posterior_expectation_uniform_is_plain_mean(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    t = translation_run.statistic_values("identity")
    assert summarize(translation_run, w, "identity").mean == pytest.approx(
        t.mean(), rel=1e-12)
    with pytest.raises(ValueError):
        summarize(translation_run, w, "nope")


def test_weights_are_tied_to_their_run(gamma_run, translation_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    with pytest.raises(ValueError, match="built for run"):
        summarize(translation_run, w, "identity")


def _summary_case(kind, scores):
    """(run, weights, statistic id) of one family at a small B."""
    if kind == "gamma":
        family = GammaScaleFamily(n=20)
        run = run_bootstrap(family, family.mle(1.0), B=600, master_seed=4,
                            statistics=[identity_statistic()])
        return run, importance_weights(run, Prior.jeffreys()), "identity"
    if kind == "translation":
        family = NormalTranslationFamily(sigma=2.0)
        run = run_bootstrap(family, family.mle(3.0), B=600, master_seed=5,
                            statistics=[identity_statistic()])
        return run, importance_weights(run, Prior.flat()), "identity"
    if kind == "mvnormal":
        family = MvNormalFamily(d=2, n=scores.n)
        run = run_bootstrap(family, family.mle_from_data(scores.matrix), B=600,
                            master_seed=6, statistics=[eigenratio_statistic()])
        prior = Prior.from_log_density("inverse_wishart", log_prior_inverse_wishart)
        return run, importance_weights(run, prior), "eigenratio"
    from bootbayes.studies import BinSpec
    centers = BinSpec().centers
    family = PoissonGlmFamily.from_basis(centers, 2)
    fd = fdr_statistic(1.0, centers)
    run = run_bootstrap(family, family.points(np.round(200.0 * np.exp(-0.5 * centers**2))),
                        B=300, master_seed=7, statistics=[fd])
    return run, importance_weights(run, Prior.jeffreys()), fd.id


@pytest.mark.parametrize("kind", ["gamma", "translation", "mvnormal", "poisson"])
def test_summary_is_the_weighted_mean_and_the_credible_interval(kind, scores):
    run, w, stat_id = _summary_case(kind, scores)
    t = run.statistic_values(stat_id)
    for level in (0.95, 0.8):
        post = summarize(run, w, stat_id, level)
        assert isinstance(post, PosteriorSummary)
        assert post.statistic_id == stat_id
        assert post.mean == float(w.w @ t)
        assert post.interval == credible_interval(run, w, stat_id, level)
        assert post.interval.level == level
        assert post.ess == w.ess
    with pytest.raises(ValueError, match="unknown statistic"):
        summarize(run, w, "nope")
    with pytest.raises(ValueError, match="level"):
        summarize(run, w, stat_id, level=1.0)
    with pytest.raises(TypeError, match="WeightVector"):
        summarize(run, Prior.jeffreys(), stat_id)


def test_summary_of_an_indicator_without_mass_has_no_cv(gamma_run,
                                                       translation_run):
    # an indicator that no replication selects: the mean and the degenerate
    # interval are 0, and only reading the cv, undefined at mean 0, raises
    run = gamma_run.with_statistic(Statistic("never", lambda b: np.zeros(len(b))))
    w = importance_weights(run, Prior.jeffreys())
    post = summarize(run, w, "never")
    assert post.mean == 0.0
    assert tuple(post.interval) == (0.0, 0.0)
    assert post.ess == w.ess
    assert post.mc_se == 0.0
    with pytest.raises(NumericalFailure, match="cv undefined"):
        post.cv_internal
    other = importance_weights(translation_run, Prior.flat())
    with pytest.raises(ValueError, match="built for run"):
        summarize(run, other, "never")


def test_rbd_factorizes_into_correlation_times_cv(correlation_run):
    w = importance_weights(correlation_run, Prior.jeffreys())
    out = summarize(correlation_run, w, "correlation").rbd
    assert abs(out.rbd - out.correlation * out.cv) <= 1e-12
    assert out.rbd < 0.0  # reweighting pulls the correlation posterior down


def test_rbd_uniform_weights_vanish(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    out = summarize(translation_run, w, "identity").rbd
    assert abs(out.rbd) < 1e-10
    assert out.cv < 1e-12 and abs(out.correlation) < 1e-10


def test_rbd_rejects_constant_statistic(gamma_run):
    run = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    w = importance_weights(run, Prior.jeffreys())
    with pytest.raises(NumericalFailure, match="constant"):
        summarize(run, w, "const").rbd


def test_internal_cv_uniform_weights_reduce_to_standard_error(translation_run):
    w = importance_weights(translation_run, Prior.flat())
    t = translation_run.statistic_values("identity")
    se = t.std() / np.sqrt(t.size)
    post = summarize(translation_run, w, "identity")
    assert post.mc_se == pytest.approx(se, rel=1e-10)
    assert post.cv_internal == pytest.approx(se / abs(t.mean()), rel=1e-10)


def test_internal_cv_matches_independent_moment_computation(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    t = gamma_run.statistic_values("identity")
    s, r = t * w.w, w.w
    cov = np.cov(np.vstack([s, r]), ddof=0)
    var = (cov[0, 0] / s.mean() ** 2 - 2.0 * cov[0, 1] / (s.mean() * r.mean())
           + cov[1, 1] / r.mean() ** 2) / t.size
    assert summarize(gamma_run, w, "identity").cv_internal == pytest.approx(
        np.sqrt(var), rel=1e-10)


def test_internal_cv_edge_statistics(gamma_run):
    zero = gamma_run.with_statistic(Statistic("zero", lambda b: np.zeros(len(b))))
    w = importance_weights(zero, Prior.jeffreys())
    with pytest.raises(NumericalFailure, match="zero"):
        summarize(zero, w, "zero").cv_internal
    const = gamma_run.with_statistic(Statistic("const", lambda b: np.full(len(b), 4.0)))
    wc = importance_weights(const, Prior.jeffreys())
    assert summarize(const, wc, "const").cv_internal < 1e-7


# density and predictive -------------------------------------------------------


def test_weighted_density_integrates_to_one(correlation_run):
    w = importance_weights(correlation_run, Prior.jeffreys())
    grid = GridSpec(-0.2, 1.0, cells=240)
    centers, density = weighted_density(correlation_run, w, "correlation", grid)
    assert centers.shape == density.shape == (240,)
    assert density.sum() * grid.width == pytest.approx(1.0, abs=1e-9)


def test_weighted_density_tail_mass_matches_interval(correlation_run):
    w = importance_weights(correlation_run, Prior.jeffreys())
    grid = GridSpec(-0.2, 1.0, cells=240)
    centers, density = weighted_density(correlation_run, w, "correlation", grid)
    iv = credible_interval(correlation_run, w, "correlation")
    below = density[centers < iv.lo].sum() * grid.width
    assert below == pytest.approx(0.025, abs=0.004)


def test_gaussian_smooth_matches_ndimage():
    # the numpy smoother agrees with gaussian_filter1d(mode="constant") to
    # round-off, including kernels whose radius exceeds the grid
    from scipy import ndimage

    from bootbayes.posterior import _gaussian_smooth

    rng = np.random.default_rng(12)
    cases = [(int(rng.integers(1, 250)), float(10 ** rng.uniform(-1.5, 1.7)))
             for _ in range(300)]
    cases += [(5, 3.0), (1, 0.7), (7, 40.0), (120, 0.05), (200, 0.01)]
    longer = 0
    for cells, sigma in cases:
        x = rng.exponential(size=cells) * (rng.uniform(size=cells) < 0.8)
        ref = ndimage.gaussian_filter1d(x, sigma, mode="constant")
        assert np.allclose(_gaussian_smooth(x, sigma), ref, rtol=1e-13, atol=0.0), (
            cells, sigma)
        longer += int(4.0 * sigma + 0.5) >= cells
    assert longer >= 20


def test_weighted_density_empty_grid_fails(gamma_run):
    w = importance_weights(gamma_run, Prior.jeffreys())
    with pytest.raises(NumericalFailure, match="mass"):
        weighted_density(gamma_run, w, "identity", GridSpec(50.0, 60.0))


def test_log_conversion_sums_the_stored_columns(gamma_run):
    assert np.array_equal(log_conversion(gamma_run),
                          gamma_run.log_xi + gamma_run.delta)


def test_log_weight_shape_validation(gamma_run):
    with pytest.raises(ValueError, match="one entry"):
        weights_from_log(gamma_run, np.zeros(7), "x")


def test_eigenratio_weights_are_nearly_flat(eigenratio_run):
    # target: effective sample size above 0.8 B for the eigenratio reweighting
    w = importance_weights(eigenratio_run, Prior.jeffreys())
    assert w.ess > 0.8 * eigenratio_run.B
