"""Poisson regression on binned counts: IRLS, AIC profiles, fdr statistic."""

import math
import re

import numpy as np
import pytest
from scipy import stats

from bootbayes import (NumericalFailure, PoissonGlmFamily,
                       nonparametric_resample, run_bootstrap,
                       run_expanded_bootstrap)
from bootbayes import glm
from bootbayes.glm import (aic, aic_profiles, fdr_statistic, glm_fit,
                           polynomial_basis, residual_deviance, select_degrees,
                           statistic_fdr)
from bootbayes.studies import BinSpec, bin_zvalues


@pytest.fixture(scope="module")
def binned_counts():
    x = BinSpec().centers
    mu = 1000 * 0.2 * np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
    y = np.round(mu + 3 * np.abs(np.sin(3 * x)))
    return x, y


def test_fit_matches_statsmodels(binned_counts):
    sm = pytest.importorskip("statsmodels.api")
    x, y = binned_counts
    X = polynomial_basis(x, 4)
    fit = glm_fit(X, y)
    ref = sm.GLM(y, X, family=sm.families.Poisson()).fit()
    assert residual_deviance(y, fit.mu) == pytest.approx(ref.deviance, rel=1e-9)
    assert np.allclose(fit.mu, ref.mu, rtol=1e-7)


@pytest.mark.parametrize("degree", [4, 8])
def test_fit_matches_trust_exact_likelihood_minimum(binned_counts, degree):
    # an oracle that needs no statsmodels: minimise the Poisson negative
    # log-likelihood sum(exp(X a) - y X a) with its exact gradient and Hessian
    from scipy.optimize import minimize

    x, y = binned_counts
    X = polynomial_basis(x, degree)

    def nll(a):
        eta = X @ a
        return np.sum(np.exp(eta) - y * eta)

    def grad(a):
        return X.T @ (np.exp(X @ a) - y)

    def hess(a):
        return X.T @ (np.exp(X @ a)[:, None] * X)

    ref = minimize(nll, np.zeros(degree + 1), jac=grad, hess=hess,
                   method="trust-exact", options={"gtol": 1e-9})
    assert ref.success, ref.message
    fit = glm_fit(X, y)
    assert residual_deviance(y, fit.mu) == pytest.approx(
        residual_deviance(y, np.exp(X @ ref.x)), rel=1e-9)
    assert np.allclose(fit.alpha, ref.x, rtol=1e-9, atol=1e-9)


def test_intercept_only_fit_is_the_plain_mean(binned_counts):
    x, y = binned_counts
    fit = glm_fit(polynomial_basis(x, 0), y)
    assert np.allclose(fit.mu, y.mean(), rtol=1e-10)


def test_single_cell_delta_hand_value():
    # one bin, fits at counts 1 and 2: (log 2)(2 + 1) - 2 (2 - 1)
    fam = PoissonGlmFamily(np.array([[1.0]]))
    base = fam.points(np.array([1.0]))
    other = fam.points(np.array([2.0]))
    assert fam.delta(other, base) == pytest.approx(
        3 * math.log(2) - 2, abs=1e-10)


def test_delta_agrees_with_canonical_inner_product_form():
    # (eta - eta_hat)'(mu + mu_hat) - 2 1'(mu - mu_hat) must equal the generic
    # (alpha - alpha_hat)'(beta + beta_hat) - 2(psi - psi_hat) with beta = X'mu
    rng = np.random.default_rng(8)
    x = np.linspace(-2, 2, 12)
    X = polynomial_basis(x, 3)
    fam = PoissonGlmFamily(X)
    y1 = rng.poisson(8.0, size=12).astype(float)
    y2 = rng.poisson(8.0, size=12).astype(float)
    mle = fam.points(y1)
    pt = fam.points(y2)
    direct = fam.delta(pt, mle)
    via_psi = ((pt.alpha - mle.alpha) @ (X.T @ pt.mu + X.T @ mle.mu)
               - 2.0 * (fam.psi(pt.alpha) - fam.psi(mle.alpha)))
    assert direct == pytest.approx(via_psi, rel=1e-10, abs=1e-10)


def test_fit_invariant_under_reparametrized_design(binned_counts):
    x, y = binned_counts
    X = polynomial_basis(x, 3)
    rng = np.random.default_rng(9)
    Q = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    f1, f2 = glm_fit(X, y), glm_fit(X @ Q, y)
    assert np.allclose(f1.mu, f2.mu, rtol=1e-7)
    assert residual_deviance(y, f1.mu) == pytest.approx(
        residual_deviance(y, f2.mu), rel=1e-8)


def test_polynomial_basis_orthonormal_nested_and_bounded():
    x = BinSpec().centers
    full = polynomial_basis(x, 8)
    assert np.max(np.abs(full.T @ full - np.eye(9))) < 1e-12
    for k in range(9):
        assert np.max(np.abs(polynomial_basis(x, k) - full[:, : k + 1])) < 1e-10
    # leading column is the positive constant, fixed sign
    assert np.all(full[:, 0] > 0)
    with pytest.raises(ValueError):
        polynomial_basis(x, len(x))
    with pytest.raises(ValueError):
        polynomial_basis(x, -1)


def test_aic_penalty_and_tie_break():
    assert aic(0.0, 0) == 2.0
    assert aic(10.0, 4) == 20.0
    assert select_degrees([[5.0, 5.0], [5.0, 4.0]], [2, 3]).tolist() == [2, 3]


def test_aic_profile_argmin_matches_residual_deviance_aic(binned_counts):
    x, y = binned_counts
    full = polynomial_basis(x, 8)
    degrees = list(range(2, 9))
    profile = aic_profiles(full, full.T @ y, degrees)
    real = np.array([aic(residual_deviance(y, glm_fit(polynomial_basis(x, m), y).mu), m)
                     for m in degrees])
    assert profile.shape == (1, len(degrees))
    # argmin takes the first minimum, so a tie goes to the smaller degree
    assert select_degrees(profile, degrees)[0] == degrees[int(np.argmin(real))]
    # profile differences equal real-AIC differences (saturated terms cancel)
    assert profile[0, 1:] - profile[0, 0] == pytest.approx(
        real[1:] - real[0], rel=1e-7, abs=1e-6)


def test_table_selection_matches_count_fits_on_nonparametric_rows(synthetic_zvalues):
    # independent route: residual deviances of fits from the counts themselves
    spec = BinSpec()
    full = polynomial_basis(spec.centers, 8)
    counts = nonparametric_resample(synthetic_zvalues, 200, 11,
                                    lambda v: bin_zvalues(v, spec)[0])
    degrees = range(2, 9)
    chosen = select_degrees(aic_profiles(full, counts @ full, degrees), degrees)
    for y, m_table in zip(counts, chosen):
        real = {m: aic(glm_fit(full[:, : m + 1], y).deviance, m) for m in degrees}
        assert m_table == min(degrees, key=real.get)
    assert len(set(chosen.tolist())) > 1


def test_table_profiles_match_single_fits_on_a_parametric_run(synthetic_zvalues):
    spec = BinSpec()
    full = polynomial_basis(spec.centers, 8)
    fam = PoissonGlmFamily(full)
    y = bin_zvalues(synthetic_zvalues, spec)[0]
    run = run_bootstrap(fam, fam.points(y), B=300, master_seed=11)
    degrees = range(2, 9)
    profiles = aic_profiles(full, run.params, degrees)
    assert profiles.shape == (300, 7)
    for beta, row in zip(run.params, profiles):
        for m, value in zip(degrees, row):
            f = PoissonGlmFamily(full[:, : m + 1]).unflatten(beta[: m + 1])
            single = -2.0 * (f.beta @ f.alpha - f.mu.sum()) + 2.0 * (m + 1)
            assert value == pytest.approx(single, rel=1e-12)


def test_warm_started_ladder_matches_cold_single_degree_profiles(synthetic_zvalues):
    spec = BinSpec()
    full = polynomial_basis(spec.centers, 8)
    fam = PoissonGlmFamily(full)
    y = bin_zvalues(synthetic_zvalues, spec)[0]
    # 300 rows, so the table spans two IRLS blocks
    run = run_bootstrap(fam, fam.points(y), B=300, master_seed=11)
    degrees = list(range(2, 9))
    ladder = aic_profiles(full, run.params, degrees)
    # a one-degree call starts from the constant rate
    cold = np.column_stack([aic_profiles(full, run.params, [m])[:, 0]
                            for m in degrees])
    assert ladder == pytest.approx(cold, rel=1e-12)
    assert np.array_equal(select_degrees(ladder, degrees),
                          select_degrees(cold, degrees))
    # the ladder climbs in ascending order whatever order the caller gives
    shuffled = [5, 8, 2, 7, 3, 6, 4]
    assert np.array_equal(aic_profiles(full, run.params, shuffled),
                          ladder[:, [degrees.index(m) for m in shuffled]])


def test_aic_profiles_reject_degrees_outside_the_basis(binned_counts):
    x, y = binned_counts
    full = polynomial_basis(x, 4)
    for degrees in ([3, 4, 5, 6], [-1, 2]):
        with pytest.raises(ValueError, match=r"\[0, 4\]"):
            aic_profiles(full, full.T @ y, degrees)
    assert aic_profiles(full, full.T @ y, [0, 4]).shape == (1, 2)


def test_select_degrees_rejects_a_column_count_mismatch():
    for degrees in ([2, 3], [2, 3, 4, 5]):
        with pytest.raises(ValueError, match="3 profile columns"):
            select_degrees([[1.0, 0.0, 5.0]], degrees)


def test_select_degrees_breaks_ties_toward_the_smaller_degree():
    profiles = np.array([[5.0, 5.0, 6.0],
                         [5.0, 5.0 - 5e-13, 4.0],
                         [3.0, 2.0, 2.0 + 1e-13],
                         [3.0, 3.0 - 2e-12, 9.0],
                         [5.0, 5.0 - 5e-13, 7.0]])
    expect = [2, 4, 3, 3, 2]
    assert select_degrees(profiles, [2, 3, 4]).tolist() == expect
    # columns need not be in degree order
    assert select_degrees(profiles[:, [2, 0, 1]], [4, 2, 3]).tolist() == expect
    # row by row, the same choices
    assert [select_degrees(row, [2, 3, 4])[0] for row in profiles] == expect


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad, what", [
    # no Poisson mean reproduces negative counts
    (lambda beta: -beta, "diverging linear predictor"),
    # a total that underflows the start to exp(-inf) = 0
    (lambda beta: np.r_[1e-323, np.zeros(beta.size - 1)],
     "singular weighted design at iteration 1"),
])
def test_table_failure_names_its_row(binned_counts, bad, what):
    x, y = binned_counts
    full = polynomial_basis(x, 8)
    rng = np.random.default_rng(3)
    # more rows than one IRLS block, so the bad row sits in the second block
    betas = rng.poisson(y + 1.0, size=(300, y.size)).astype(float) @ full
    betas[270] = bad(betas[270])
    with pytest.raises(NumericalFailure, match=what):
        PoissonGlmFamily(full[:, :3]).unflatten(betas[270, :3])
    with pytest.raises(NumericalFailure, match=f"^row 270, degree 2: {what}"):
        aic_profiles(full, betas, range(2, 9))
    with pytest.raises(NumericalFailure, match=f"^row 270, degree 2: {what}"):
        PoissonGlmFamily(full[:, :3]).unflatten(betas[:, :3])
    aic_profiles(full, np.delete(betas, 270, axis=0), range(2, 9))


def _spoil_row(row, bad):
    """A map of tables that replaces row ``row`` of a run by bad(row), with
    the rows counted over the successive tables it is given."""
    seen = 0

    def spoil(table):
        nonlocal seen
        table = np.array(table, dtype=float)
        if seen <= row < seen + len(table):
            table[row - seen] = bad(table[row - seen])
        seen += len(table)
        return table

    return spoil


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["standard", "expanded"])
def test_run_failure_names_its_row_in_the_whole_run(binned_counts, kind):
    # 2,000 rows are tabulated in more than one block, and row 1,500 is not
    # in the first
    x, y = binned_counts
    family = PoissonGlmFamily.from_basis(x, 4)
    mle = family.points(y)
    if kind == "standard":
        # counts no Poisson mean of the model reaches without overflow
        spoil, draw = _spoil_row(1500, lambda c: c * 1e250), family.sample_replication
        family.sample_replication = lambda at, rngs: spoil(draw(at, rngs))
        start = lambda: run_bootstrap(family, mle, 2000, 3)
    else:
        pilot = run_bootstrap(family, mle, 200, 1)
        # the negated sufficient vector of a draw, as no Poisson mean gives
        spoil, unflatten = _spoil_row(1500, lambda b: -b), family.unflatten
        family.unflatten = lambda vec: unflatten(spoil(vec))
        start = lambda: run_expanded_bootstrap(family, mle, 2000, 3, pilot, h=2.0)
    with pytest.raises(NumericalFailure,
                       match="^row 1500, degree 4: diverging linear predictor"):
        start()


def test_third_cumulant_matches_numerical_psi_derivative():
    x = np.linspace(-1, 1, 9)
    X = polynomial_basis(x, 2)
    fam = PoissonGlmFamily(X)
    mle = fam.points(np.arange(1.0, 10.0))
    rng = np.random.default_rng(10)
    v = rng.normal(size=3)
    h = 0.05
    vals = [fam.psi(mle.alpha + e * h * v) for e in (-2, -1, 0, 1, 2)]
    numeric = (-vals[0] + 2 * vals[1] - 2 * vals[3] + vals[4]) / (2 * h**3)
    assert fam.third_cumulant(mle.alpha, v) == pytest.approx(numeric, rel=1e-3)


def test_log_density_ratio_matches_poisson_pmf(binned_counts):
    x, y = binned_counts
    X = polynomial_basis(x, 3)
    fam = PoissonGlmFamily(X)
    rng = np.random.default_rng(12)
    p1 = fam.points(rng.poisson(y + 1.0).astype(float))
    p2 = fam.points(rng.poisson(y + 1.0).astype(float))
    at = rng.poisson(y + 1.0).astype(float)
    oracle = (stats.poisson.logpmf(at, p1.mu).sum()
              - stats.poisson.logpmf(at, p2.mu).sum())
    # the ratio is evaluated at the sufficient vector of the counts
    assert fam.log_density_ratio(p1, p2, X.T @ at) == pytest.approx(oracle, rel=1e-8)


def test_bab_multipliers_equal_poisson_likelihood_differences(binned_counts):
    x, y = binned_counts
    X = polynomial_basis(x, 3)
    fam = PoissonGlmFamily(X)
    mle = fam.points(y)
    run = run_bootstrap(fam, mle, B=25, master_seed=1)
    rng = np.random.default_rng(14)
    y_outer = rng.poisson(y + 1.0).astype(float)
    gamma = fam.points(y_outer)
    logw = fam.log_bab_multipliers(run, gamma)
    points = run.points()
    for i in range(0, 25, 6):
        mu_i = points[i].mu
        oracle = (stats.poisson.logpmf(y_outer, mu_i).sum()
                  - stats.poisson.logpmf(y_outer, mle.mu).sum()
                  - stats.poisson.logpmf(y, mu_i).sum()
                  + stats.poisson.logpmf(y, mle.mu).sum())
        assert logw[i] == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def test_replication_sampling_is_deterministic_and_count_preserving(binned_counts):
    x, y = binned_counts
    fam = PoissonGlmFamily.from_basis(BinSpec().centers, 4) \
        if hasattr(PoissonGlmFamily, "from_basis") else PoissonGlmFamily(polynomial_basis(x, 4))
    mle = fam.points(y)
    a = fam.points(fam.sample_replication(mle, [np.random.default_rng(5)])[0])
    b = fam.points(fam.sample_replication(mle, [np.random.default_rng(5)])[0])
    assert np.array_equal(a.beta, b.beta)
    draws = fam.points(fam.sample_replication(
        mle, [np.random.default_rng(seed) for seed in range(300)])).mu.sum(axis=1)
    # total fitted counts fluctuate around the observed total
    assert draws.mean() == pytest.approx(y.sum(), rel=0.02)


def test_fit_requires_nonnegative_counts_and_converges_or_raises(monkeypatch):
    X = polynomial_basis(np.linspace(-1, 1, 5), 1)
    with pytest.raises(ValueError):
        glm_fit(X, np.array([1.0, -2.0, 3.0, 1.0, 2.0]))
    monkeypatch.setattr(glm, "_MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match="converge"):
        glm_fit(X, np.array([4.0, 2.0, 1.0, 2.0, 5.0]))
    with pytest.raises(NumericalFailure):
        PoissonGlmFamily(np.array([[1.0]])).unflatten(np.array([-1.0]))


def test_nonconvergence_reports_the_last_log_likelihood_change(binned_counts,
                                                              monkeypatch):
    x, y = binned_counts
    X = polynomial_basis(x, 4)
    monkeypatch.setattr(glm, "_MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match=r"change inf\)"):
        glm_fit(X, y)
    for max_iter in (2, 3):
        monkeypatch.setattr(glm, "_MAX_ITER", max_iter)
        with pytest.raises(NumericalFailure, match="converge") as err:
            glm_fit(X, y)
        change = float(re.search(r"change (\S+)\)", str(err.value)).group(1))
        assert 0.0 < change < math.inf


def test_design_shape_validation():
    with pytest.raises(ValueError):
        PoissonGlmFamily(np.ones((2, 3)))
    PoissonGlmFamily(np.ones((1, 1)))  # single cell is allowed


def test_fdr_hand_case_and_invariances():
    centers = np.array([0.0, 1.0, 2.0])
    mu = np.array([1.0, 1.0, 2.0])
    # mass below z=1: one full bin plus half the coincident bin = 1.5 of 4
    expect = stats.norm.sf(1.0) / (1.0 - 1.5 / 4.0)
    assert statistic_fdr(mu, 1.0, centers) == pytest.approx(expect, rel=1e-12)
    assert statistic_fdr(10.0 * mu, 1.0, centers) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(NumericalFailure):
        statistic_fdr(np.array([1.0, 0.0, 0.0]), 1.0, centers)
    with pytest.raises(NumericalFailure):
        statistic_fdr(np.zeros(3), 1.0, centers)


def test_fdr_near_one_for_a_pure_null_histogram():
    # fitted counts proportional to the standard normal density make the
    # count CDF track Phi, so fdr(z) should sit near 1
    centers = np.arange(-6.0, 6.0, 0.01)
    mu = np.exp(-0.5 * centers**2)
    assert statistic_fdr(mu, 1.5, centers) == pytest.approx(1.0, abs=0.01)


def test_fdr_statistic_wrapper_id():
    stat = fdr_statistic(3.0, np.array([0.0, 3.0, 4.0]))
    assert stat.id == "fdr_3"


def test_family_meta_round_trip(binned_counts):
    x, y = binned_counts
    fam = PoissonGlmFamily.from_meta({"family": "poisson_glm",
                                      "centers": x.tolist(), "degree": 4})
    mle = fam.points(y)
    again = fam.mle_from_meta(fam.mle_meta(mle))
    assert np.allclose(again.mu, mle.mu, rtol=1e-10)
    assert fam.meta()["degree"] == 4


def test_normal_tail_is_ndtr_bit_for_bit():
    # the fdr statistic's normal tail is a port of Cephes ndtr: zero ulp
    # apart over both erf/erfc branches, the far tails and the underflow
    from scipy.special import ndtr

    from bootbayes.glm import _normal_tail

    rng = np.random.default_rng(31)
    z = np.concatenate([rng.normal(scale=3.0, size=100_000),
                        rng.uniform(-40.0, 40.0, size=50_000),
                        [0.0, 1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0),
                         8.0 * math.sqrt(2.0), 3.0, 37.7, -37.7, 39.0]])
    assert np.array_equal([_normal_tail(v) for v in z], ndtr(-z))
