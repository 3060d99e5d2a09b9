"""Core exponential-family machinery: deviance, delta, xi, cubic skew term."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from bootbayes import (CapabilityMissing, GammaScaleFamily,
                       NormalTranslationFamily, NumericalFailure)
from bootbayes.expfam import chol_logdet, cubic_delta_approx

from conftest import one_row


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
        row = one_row(fam, np.array([beta]), mle)
        lhs = fam.log_xi(*row)[0] + fam.delta(*row)[0]
        rhs = (stats.gamma.logpdf(1.0, a=10, scale=beta / 10)
               - stats.gamma.logpdf(beta, a=10, scale=1.0 / 10))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_gamma_xi_is_scale_ratio():
    fam, mle = gamma_family(n=10)
    # V(alpha) = beta^2 / n, so xi = beta / beta_hat
    assert fam.log_xi(*one_row(fam, np.array([1.5]), mle))[0] == pytest.approx(
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
    assert fam.delta(*one_row(fam, np.array([b1]), mle))[0] == pytest.approx(
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
    row = one_row(fam, np.array([1.0]), mle)
    assert fam.delta(*row)[0] == 0.0
    assert fam.log_xi(*row)[0] == 0.0


def test_log_density_ratio_antisymmetric():
    fam, _ = gamma_family(n=12)
    a, b, at = np.array([0.8]), np.array([1.7]), np.array([1.1])
    assert fam.log_density_ratio(a, b, at) == pytest.approx(
        -fam.log_density_ratio(b, a, at), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 100), beta=st.floats(0.1, 10.0))
def test_canonical_and_mean_maps_are_inverse(n, beta):
    fam = GammaScaleFamily(n)
    back = fam.mean(fam.canonical(np.array([beta])))
    assert back[0] == pytest.approx(beta, rel=1e-12)


def test_gamma_skewness_hat():
    assert GammaScaleFamily(25).skewness_hat() == pytest.approx(2.0 / 5.0, rel=1e-14)


def test_cubic_delta_approx_reproduces_z_cubed_scaling():
    fam, mle = gamma_family(n=100)
    # Z = sqrt(n) (beta - 1), leading term Z^3 / (3 sqrt(n))
    z = 1.0
    beta = np.array([1.0 + z / 10.0])
    cub = cubic_delta_approx(fam, mle, fam.skewness_hat(), beta)
    assert cub == pytest.approx(z**3 / (3 * 10.0), rel=1e-10)
    # at n=100 the cubic term is within 5/n of the exact delta for |Z| <= 2
    exact = fam.delta(*one_row(fam, beta, mle))[0]
    assert abs(exact - cub) <= 5.0 / 100


def test_cubic_delta_approx_zero_at_estimate_and_needs_direction():
    fam, mle = gamma_family(n=16)
    assert cubic_delta_approx(fam, mle, fam.skewness_hat(), np.array([1.0])) == 0.0
    with pytest.raises(ValueError):
        cubic_delta_approx(fam, mle, 0.1, np.array([1.0, 2.0]))


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
        row = one_row(fam, np.array([beta]), mle)
        assert fam.delta(*row)[0] == 0.0
        assert fam.log_xi(*row)[0] == 0.0


def test_translation_family_sampling_moments():
    fam = NormalTranslationFamily(sigma=2.0)
    mle = fam.mle(np.array([3.0]))
    rng = np.random.default_rng(0)
    draws = fam.sample_replication(mle, [rng] * 4000)[:, 0]
    sd = math.sqrt(2.0)
    assert draws.mean() == pytest.approx(3.0, abs=3 * sd / math.sqrt(4000))
    assert draws.std() == pytest.approx(sd, rel=0.1)


def test_bab_multipliers_require_canonical_coordinates():
    from bootbayes.sampler import BootstrapRun

    fam, mle = gamma_family(n=5)
    run = BootstrapRun(fam, mle, B=3, master_seed=0, proposal_tag="standard",
                       params=np.ones((3, 1)), alphas=None,
                       delta=np.zeros(3), log_xi=np.zeros(3), t={})
    with pytest.raises(CapabilityMissing):
        fam.log_bab_multipliers(run, np.array([1.0]))


def test_mle_meta_round_trip():
    fam, mle = gamma_family(n=9)
    again = fam.mle_from_meta(fam.mle_meta(mle))
    assert isinstance(again, np.ndarray)
    assert np.array_equal(again, mle)
    assert np.array_equal(fam.alpha_of(again), fam.alpha_of(mle))
