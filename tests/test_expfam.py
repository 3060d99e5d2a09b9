"""Core exponential-family machinery: deviance, delta, xi."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from bootbayes import (GammaScaleFamily, GlmPoint, MvNormalFamily, MvnParam,
                       NormalTranslationFamily, NumericalFailure,
                       PoissonGlmFamily, run_bootstrap)
from bootbayes.expfam import _reading_meta, chol_logdet
from bootbayes.studies import BinSpec, bin_zvalues


def gamma_family(n=10):
    fam = GammaScaleFamily(n)
    return fam, fam.mle(np.array([1.0]))


def test_gamma_deviance_matches_quadrature_of_log_likelihood_ratio():
    # D(b1, b2) = 2 E_{b1}[log f_{b1}(x) - log f_{b2}(x)], x ~ Gamma(n, b1/n)
    n, b1, b2 = 10, 1.0, 2.0
    fam = GammaScaleFamily(n)

    def integrand(x):
        lr = (stats.gamma.logpdf(x, a=n, scale=b1 / n)
              - stats.gamma.logpdf(x, a=n, scale=b2 / n))
        return 2.0 * lr * stats.gamma.pdf(x, a=n, scale=b1 / n)

    oracle, err = integrate.quad(integrand, 0, np.inf)
    assert err < 1e-6
    assert fam.deviance(np.array([b1]), np.array([b2])) == pytest.approx(oracle, abs=1e-8)
    closed = 2 * n * (b1 / b2 - 1 + math.log(b2 / b1))
    assert fam.deviance(np.array([b1]), np.array([b2])) == pytest.approx(closed, rel=1e-12)


def test_gamma_conversion_factor_equals_density_ratio_of_the_mean():
    # xi * e^delta at beta must equal f_beta(beta_hat) / f_beta_hat(beta),
    # both densities of the sufficient statistic (the sample mean)
    fam, mle = gamma_family(n=10)
    for beta in (0.6, 1.0, 1.5, 2.4):
        point = np.array([beta])
        lhs = fam.log_xi(point, mle) + fam.delta(point, mle)
        rhs = (stats.gamma.logpdf(1.0, a=10, scale=beta / 10)
               - stats.gamma.logpdf(beta, a=10, scale=1.0 / 10))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_gamma_xi_is_scale_ratio():
    fam, mle = gamma_family(n=10)
    # V(alpha) = beta^2 / n, so xi = beta / beta_hat
    assert fam.log_xi(np.array([1.5]), mle) == pytest.approx(
        math.log(1.5), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 200),
       b1=st.floats(0.05, 20.0),
       b2=st.floats(0.05, 20.0))
def test_delta_is_half_the_deviance_difference(n, b1, b2):
    fam = GammaScaleFamily(n)
    mle = fam.mle(np.array([b2]))
    two_dev = (fam.deviance(np.array([b1]), np.array([b2]))
               - fam.deviance(np.array([b2]), np.array([b1]))) / 2.0
    assert fam.delta(np.array([b1]), mle) == pytest.approx(
        two_dev, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 200),
       b1=st.floats(0.05, 20.0),
       b2=st.floats(0.05, 20.0))
def test_deviance_nonnegative_and_zero_only_at_equal_parameters(n, b1, b2):
    fam = GammaScaleFamily(n)
    d = fam.deviance(np.array([b1]), np.array([b2]))
    assert d >= -1e-10
    if b1 == b2:
        assert d == 0.0


def test_delta_and_log_xi_vanish_exactly_at_the_estimate():
    fam, mle = gamma_family(n=25)
    assert fam.delta(np.array([1.0]), mle) == 0.0
    assert fam.log_xi(np.array([1.0]), mle) == 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 100), beta=st.floats(0.1, 10.0))
def test_canonical_and_mean_maps_are_inverse(n, beta):
    # the point of a canonical alpha is beta = -n / alpha
    fam = GammaScaleFamily(n)
    back = fam.mean_of(-n / fam.canonical_of(np.array([beta])))
    assert back[0] == pytest.approx(beta, rel=1e-12)


# a numerical failure while a spec or store is read keeps its own exit code
@pytest.mark.parametrize("error", [np.linalg.LinAlgError, NumericalFailure])
def test_metadata_reading_keeps_numerical_failures(error):
    with pytest.raises(error, match="^singular$"), _reading_meta("spec.json"):
        raise error("singular")


def test_mle_point_rejects_parameters_outside_expectation_space():
    fam = GammaScaleFamily(8)
    with pytest.raises(ValueError):
        fam.mle(np.array([-0.5]))
    with pytest.raises(ValueError):
        fam.mle(np.array([0.0]))


def test_gamma_expectation_space_checks_every_row():
    fam = GammaScaleFamily(8)
    assert fam.in_expectation_space(np.array([[1.0], [2.5]]))
    assert not fam.in_expectation_space(np.array([[1.0], [-1.0]]))
    assert not fam.in_expectation_space(np.array([[-1.0], [1.0]]))
    assert not fam.in_expectation_space(np.array([[1.0], [np.inf]]))


def test_chol_logdet_raises_on_indefinite_matrix():
    with pytest.raises(NumericalFailure):
        chol_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert chol_logdet(np.eye(3)) == pytest.approx(0.0, abs=1e-15)


def test_translation_family_delta_and_xi_are_structurally_zero():
    fam = NormalTranslationFamily(sigma=2.0)
    mle = fam.mle(np.array([3.0]))
    for beta in (-5.0, 0.0, 3.0, 11.5):
        assert fam.delta(np.array([beta]), mle) == 0.0
        assert fam.log_xi(np.array([beta]), mle) == 0.0


def test_translation_family_sampling_moments():
    fam = NormalTranslationFamily(sigma=2.0)
    mle = fam.mle(np.array([3.0]))
    rng = np.random.default_rng(0)
    draws = fam.sample_replication(mle, [rng] * 4000)[:, 0]
    sd = math.sqrt(2.0)
    assert draws.mean() == pytest.approx(3.0, abs=3 * sd / math.sqrt(4000))
    assert draws.std() == pytest.approx(sd, rel=0.1)


def mvn_param(rng):
    mu, a = rng.normal(size=2), rng.normal(size=(2, 2))
    return MvnParam(mu, a @ a.T + 0.5 * np.eye(2))


def contract_case(kind):
    """A family, its estimate, and four points p, q, at and gamma of it."""
    if kind == "gamma":
        fam = GammaScaleFamily(12)
        return fam, fam.mle(1.0), [np.array([b]) for b in (0.8, 1.7, 1.1, 1.3)]
    if kind == "normal_translation":
        fam = NormalTranslationFamily(sigma=[[2.0, 0.6], [0.6, 1.0]])
        points = [np.array(b) for b in ([1.0, 0.5], [-0.7, 2.0], [0.2, 0.1], [0.9, -1.0])]
        return fam, fam.mle([0.3, -1.2]), points
    if kind == "mvnormal":
        fam = MvNormalFamily(d=2, n=22)
        rng, outer = np.random.default_rng(5), np.random.default_rng(17)
        p, q, at = (mvn_param(rng) for _ in range(3))
        mle = mvn_param(outer)
        return fam, mle, [p, q, at, mvn_param(outer)]
    centers = np.linspace(-3.0, 3.0, 15)
    fam = PoissonGlmFamily.from_basis(centers, 3)
    rng = np.random.default_rng(8)
    mle = fam.points(rng.poisson(40.0 * np.exp(-centers**2 / 4.0)).astype(float))
    stack = fam.points(fam.sample_replication(mle, [rng] * 4))
    return fam, mle, [stack[k] for k in range(4)]


@pytest.mark.parametrize("kind", ["gamma", "normal_translation", "mvnormal", "poisson"])
def test_every_family_keeps_the_canonical_contract(kind):
    fam, mle, (p, q, at, gamma) = contract_case(kind)
    for a, b in ((p, q), (q, p), (p, mle)):
        assert fam.deviance(a, b) > 0.0
    for pt in (p, q, mle):
        assert fam.deviance(pt, pt) == 0.0
    # exact: a - b is -(b - a) in floating point
    assert fam.log_density_ratio(p, q, at) == -fam.log_density_ratio(q, p, at)

    run = run_bootstrap(fam, mle, B=40, master_seed=2)
    points = run.points()
    assert np.all(fam.deviance(points, mle) >= 0.0)
    batch = fam.log_bab_multipliers(run, gamma)
    for i in range(0, 40, 7):
        direct = (fam.log_density_ratio(points[i], mle, gamma)
                  - fam.log_density_ratio(points[i], mle, mle))
        assert batch[i] == pytest.approx(direct, rel=1e-10, abs=1e-10)
    assert np.array_equal(fam.log_bab_multipliers(run, mle), np.zeros(40))

    # a run without stored alphas gets them from its points, with their bits
    stored = (run if run.alphas is not None
              else dataclasses.replace(run, alphas=fam.canonical_of(points)))
    bare = dataclasses.replace(run, alphas=None)
    bare._points = points  # a Poisson run builds its points from its alphas
    for kept, rebuilt in zip(stored.bab_run_terms, bare.bab_run_terms):
        assert np.array_equal(kept, rebuilt)


def test_mle_meta_round_trip():
    fam, mle = gamma_family(n=9)
    again = fam.mle_from_meta(fam.mle_meta(mle))
    assert isinstance(again, np.ndarray)
    assert np.array_equal(again, mle)
    assert np.array_equal(fam.alpha_of(again), fam.alpha_of(mle))


def canonical_case(kind, zvalues):
    """A family, an estimate of it, the point of a canonical vector by a map
    written here, and psi of a canonical vector."""
    if kind == "gamma":
        fam = GammaScaleFamily(10)
        point_of = lambda a: -fam.n / a
        return fam, fam.mle(1.7), point_of, lambda a: fam.psi_of(point_of(a))
    if kind == "normal_translation":
        fam = NormalTranslationFamily(sigma=[[2.0, 0.6], [0.6, 1.0]])
        point_of = lambda a: fam.sigma @ a
        return fam, fam.mle([0.3, -1.2]), point_of, lambda a: fam.psi_of(point_of(a))
    fam = PoissonGlmFamily.from_basis(BinSpec().centers, int(kind[-1]))
    x = fam.x

    def point_of(a):
        mu = np.exp(x @ a)
        return GlmPoint(a, x @ a, mu, x.T @ mu)

    mle = fam.points(bin_zvalues(zvalues, BinSpec())[0])
    return fam, mle, point_of, lambda a: np.exp(x @ a).sum()


def central_jacobian(fn, alpha, h=1e-5):
    """Central differences of fn in each coordinate of alpha, one row each."""
    return np.array([(fn(alpha + h * e) - fn(alpha - h * e)) / (2 * h)
                     for e in np.eye(alpha.size)])


def assert_close_in_scale(numeric, exact, rel):
    assert np.abs(numeric - exact).max() <= rel * np.abs(exact).max()


FULL_CONTRACT = ["gamma", "normal_translation", "poisson_4", "poisson_8"]


@pytest.mark.parametrize("kind", FULL_CONTRACT)
def test_point_maps_are_the_derivatives_of_psi(kind, synthetic_zvalues):
    # beta = grad psi, V = grad beta, and U^(v) is the third derivative of
    # psi along v, each at the point of the estimate's alpha
    fam, mle, point_of, psi = canonical_case(kind, synthetic_zvalues)
    alpha = fam.canonical_of(mle)
    point = point_of(alpha)
    assert np.allclose(fam.canonical_of(point), alpha, rtol=1e-12, atol=0.0)
    assert fam.psi_of(point) == pytest.approx(psi(alpha), rel=1e-12)
    assert_close_in_scale(central_jacobian(psi, alpha), fam.mean_of(point), 1e-7)
    assert_close_in_scale(central_jacobian(lambda a: fam.mean_of(point_of(a)), alpha),
                          fam.covariance_of(point), 1e-7)
    v, h = np.random.default_rng(10).normal(size=alpha.size), 0.01
    f = [psi(alpha + k * h * v) for k in (-2, -1, 1, 2)]
    third = (-f[0] + 2 * f[1] - 2 * f[2] + f[3]) / (2 * h**3)
    assert fam.third_cumulant_of(point, v) == pytest.approx(third, rel=1e-4, abs=1e-6)


def exact_moment_tail(fam, mle, run):
    """The chi-square_p upper tail of T = B |h_bar|^2, h_bar the run's mean of
    L^-1 (beta_i - beta_hat) with L L' = V(beta_hat): beta_i has mean
    beta_hat and covariance V(beta_hat) under a correct draw and maps."""
    chol = np.linalg.cholesky(fam.covariance_of(mle))
    h = np.linalg.solve(chol, (fam.mean_of(run.points()) - fam.mean_of(mle)).T)
    t = run.B * np.sum(h.mean(axis=1) ** 2)
    return stats.chi2.sf(t, fam.param_dim)


@pytest.mark.parametrize("kind", FULL_CONTRACT)
def test_replications_have_the_exact_moments_of_the_maps(kind, synthetic_zvalues):
    fam, mle, _, _ = canonical_case(kind, synthetic_zvalues)
    for seed in range(11, 16):
        run = run_bootstrap(fam, mle, B=2000, master_seed=seed)
        assert exact_moment_tail(fam, mle, run) > 1e-4, seed


@pytest.mark.parametrize("kind", ["poisson_4", "poisson_8"])
def test_exact_moment_check_fails_a_draw_at_rates_two_percent_high(kind,
                                                                  synthetic_zvalues):
    fam, mle, _, _ = canonical_case(kind, synthetic_zvalues)
    draw = fam.sample_replication
    fam.sample_replication = lambda at, rngs: draw(
        dataclasses.replace(at, mu=1.02 * at.mu), rngs)
    for seed in range(11, 16):
        run = run_bootstrap(fam, mle, B=2000, master_seed=seed)
        assert exact_moment_tail(fam, mle, run) <= 1e-4, seed
