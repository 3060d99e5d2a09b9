"""Poisson regression on binned counts: IRLS, AIC profiles, fdr statistic."""

import math
import re

import numpy as np
import pytest
from scipy import stats

from bootbayes import (NumericalFailure, PoissonGlmFamily,
                       nonparametric_resample, run_bootstrap)
from bootbayes.glm import (aic, aic_profile, aic_profiles, fdr_statistic,
                           glm_fit, glm_fit_sufficient, polynomial_basis,
                           residual_deviance, select_degree, select_degrees,
                           selected_degree_statistic, statistic_fdr)
from bootbayes.studies import BinSpec, bin_zvalues

from conftest import one_row


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


def test_intercept_only_fit_is_the_plain_mean(binned_counts):
    x, y = binned_counts
    fit = glm_fit(polynomial_basis(x, 0), y)
    assert np.allclose(fit.mu, y.mean(), rtol=1e-10)


def test_single_cell_delta_hand_value():
    # one bin, fits at counts 1 and 2: (log 2)(2 + 1) - 2 (2 - 1)
    fam = PoissonGlmFamily(np.array([[1.0]]))
    base = fam.fit(np.array([1.0]))
    other = fam.fit(np.array([2.0]))
    assert fam.delta(*one_row(fam, other, base))[0] == pytest.approx(
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
    mle = fam.fit(y1)
    pt = fam.fit(y2)
    direct = fam.delta(*one_row(fam, pt, mle))[0]
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
    assert select_degree({2: 5.0, 3: 5.0}) == 2
    assert select_degree({2: 5.0, 3: 4.0}) == 3


def test_aic_profile_argmin_matches_residual_deviance_aic(binned_counts):
    x, y = binned_counts
    full = polynomial_basis(x, 8)
    profile = aic_profile(full, full.T @ y, degrees=range(2, 9))
    real = {m: aic(residual_deviance(y, glm_fit(polynomial_basis(x, m), y).mu), m)
            for m in range(2, 9)}
    assert select_degree(profile) == min(sorted(real), key=real.get)
    # profile differences equal real-AIC differences (saturated terms cancel)
    for m in range(3, 9):
        assert profile[m] - profile[2] == pytest.approx(
            real[m] - real[2], rel=1e-7, abs=1e-6)


@pytest.fixture(scope="module")
def zvalues():
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 5500), rng.normal(3.2, 1.0, 250)])
    return z[(z > -4.4) & (z < 5.2)]


def test_table_selection_matches_count_fits_on_nonparametric_rows(zvalues):
    # independent route: residual deviances of fits from the counts themselves
    spec = BinSpec()
    full = polynomial_basis(spec.centers, 8)
    counts = nonparametric_resample(zvalues, 200, 11,
                                    lambda v: bin_zvalues(v, spec)[0])
    degrees = range(2, 9)
    chosen = select_degrees(aic_profiles(full, counts @ full, degrees), degrees)
    for y, m_table in zip(counts, chosen):
        real = {m: aic(glm_fit(full[:, : m + 1], y).deviance, m) for m in degrees}
        assert m_table == min(degrees, key=real.get)
    assert len(set(chosen.tolist())) > 1


def test_table_profiles_match_single_fits_on_a_parametric_run(zvalues):
    spec = BinSpec()
    full = polynomial_basis(spec.centers, 8)
    fam = PoissonGlmFamily(full)
    run = run_bootstrap(fam, fam.fit(bin_zvalues(zvalues, spec)[0]), B=300,
                        master_seed=11)
    degrees = range(2, 9)
    profiles = aic_profiles(full, run.params, degrees)
    assert profiles.shape == (300, 7)
    for beta, row in zip(run.params, profiles):
        for m, value in zip(degrees, row):
            f = glm_fit_sufficient(full[:, : m + 1], beta[: m + 1])
            single = -2.0 * (f.beta @ f.alpha - f.mu.sum()) + 2.0 * (m + 1)
            assert value == pytest.approx(single, rel=1e-12)


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
    assert [select_degree(dict(zip([2, 3, 4], row))) for row in profiles] == expect


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
        glm_fit_sufficient(full[:, :3], betas[270, :3])
    with pytest.raises(NumericalFailure, match=f"^row 270, degree 2: {what}"):
        aic_profiles(full, betas, range(2, 9))
    aic_profiles(full, np.delete(betas, 270, axis=0), range(2, 9))


def test_third_cumulant_matches_numerical_psi_derivative():
    x = np.linspace(-1, 1, 9)
    X = polynomial_basis(x, 2)
    fam = PoissonGlmFamily(X)
    mle = fam.fit(np.arange(1.0, 10.0))
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
    p1 = fam.fit(rng.poisson(y + 1.0).astype(float))
    p2 = fam.fit(rng.poisson(y + 1.0).astype(float))
    at = rng.poisson(y + 1.0).astype(float)
    oracle = (stats.poisson.logpmf(at, p1.mu).sum()
              - stats.poisson.logpmf(at, p2.mu).sum())
    assert fam.log_density_ratio(p1, p2, at) == pytest.approx(oracle, rel=1e-8)


def test_bab_multipliers_equal_poisson_likelihood_differences(binned_counts):
    x, y = binned_counts
    X = polynomial_basis(x, 3)
    fam = PoissonGlmFamily(X)
    mle = fam.fit(y)
    run = run_bootstrap(fam, mle, B=25, master_seed=1)
    rng = np.random.default_rng(14)
    y_outer = rng.poisson(y + 1.0).astype(float)
    gamma = fam.fit(y_outer)
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
    mle = fam.fit(y)
    a = fam.points(fam.sample_replication(mle, np.random.default_rng(5)))
    b = fam.points(fam.sample_replication(mle, np.random.default_rng(5)))
    assert np.array_equal(a.beta, b.beta)
    draws = fam.points(np.array([fam.sample_replication(mle, np.random.default_rng(seed))
                                 for seed in range(300)])).mu.sum(axis=1)
    # total fitted counts fluctuate around the observed total
    assert draws.mean() == pytest.approx(y.sum(), rel=0.02)


def test_fit_requires_nonnegative_counts_and_converges_or_raises():
    X = polynomial_basis(np.linspace(-1, 1, 5), 1)
    with pytest.raises(ValueError):
        glm_fit(X, np.array([1.0, -2.0, 3.0, 1.0, 2.0]))
    with pytest.raises(NumericalFailure, match="converge"):
        glm_fit(X, np.array([4.0, 2.0, 1.0, 2.0, 5.0]), max_iter=1)
    with pytest.raises(NumericalFailure):
        glm_fit_sufficient(np.array([[1.0]]), np.array([-1.0]))


def test_nonconvergence_reports_the_last_log_likelihood_change(binned_counts):
    x, y = binned_counts
    X = polynomial_basis(x, 4)
    with pytest.raises(NumericalFailure, match=r"change inf\)"):
        glm_fit_sufficient(X, X.T @ y, max_iter=1)
    for max_iter in (2, 3):
        with pytest.raises(NumericalFailure, match="converge") as err:
            glm_fit_sufficient(X, X.T @ y, max_iter=max_iter)
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


def test_selected_degree_statistic_matches_profile(binned_counts):
    x, y = binned_counts
    full = polynomial_basis(x, 8)
    fam = PoissonGlmFamily(full)
    mle = fam.fit(y)
    stat = selected_degree_statistic(full)
    assert stat.id == "aic_degree"
    assert stat.fn(mle) == float(select_degree(aic_profile(full, mle.beta, range(2, 9))))


def test_family_meta_round_trip(binned_counts):
    x, y = binned_counts
    fam = PoissonGlmFamily.from_meta({"family": "poisson_glm",
                                      "centers": x.tolist(), "degree": 4})
    mle = fam.fit(y)
    again = fam.mle_from_meta(fam.mle_meta(mle))
    assert np.allclose(again.mu, mle.mu, rtol=1e-10)
    assert fam.meta()["degree"] == 4
