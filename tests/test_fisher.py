"""Exact correlation density: quadrature oracles, interval, posterior weights."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from bootbayes import NumericalFailure
from bootbayes.fisher import (_bisect, _logsumexp, _mass, fisher_exact_ci,
                              fisher_log_density, log_correlation_weights)

N = 22
THETA_HAT = 0.49780749859167406


def fisher_density(r, theta, n):
    # the scalar density, as the oracles below integrate and compare it
    return float(np.exp(fisher_log_density(r, theta, n)))


def hypergeometric_density(r, theta, n):
    # closed form via Gauss's 2F1, entirely independent of the quadrature code
    logc = (math.log(n - 2) + special.gammaln(n - 1) - 0.5 * math.log(2 * math.pi)
            - special.gammaln(n - 0.5) + (n - 1) / 2 * math.log1p(-theta * theta)
            + (n - 4) / 2 * math.log1p(-r * r) - (n - 1.5) * math.log1p(-theta * r))
    return math.exp(logc) * special.hyp2f1(0.5, 0.5, n - 0.5, (1 + theta * r) / 2)


@pytest.mark.parametrize("theta", [-0.6, 0.0, 0.3, 0.7])
def test_density_matches_hypergeometric_closed_form(theta):
    for r in (-0.8, -0.3, 0.0, 0.2, 0.5, 0.9):
        assert fisher_density(r, theta, N) == pytest.approx(
            hypergeometric_density(r, theta, N), rel=1e-9)


def quad_density(r, theta, n):
    # the scalar adaptive-quadrature path: the integral over w by quad
    prod = theta * r
    wmax = math.acosh(prod + 10.0 ** (14.0 / (n - 1)) * (1.0 - prod))
    val, _ = quad(lambda w: (math.cosh(w) - prod) ** (-(n - 1)), 0.0, wmax)
    logc = (math.log(n - 2) - math.log(math.pi)
            + (n - 1) / 2.0 * math.log1p(-theta * theta)
            + (n - 4) / 2.0 * math.log1p(-r * r))
    return math.exp(logc) * val


def test_vectorized_log_density_matches_scalar_path():
    rs = np.array([-0.8, -0.3, 0.0, 0.2, 0.5, 0.9])
    for theta in (-0.6, 0.0, 0.3, 0.7):
        lv = fisher_log_density(rs, theta, N)
        for r, logf in zip(rs, lv):
            assert logf == pytest.approx(math.log(quad_density(r, theta, N)),
                                         abs=1e-10)


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
def test_density_integrates_to_one(theta):
    total, _ = quad(lambda r: fisher_density(r, theta, N), -1.0, 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_sign_flip_symmetry():
    for r, theta in [(0.3, 0.6), (-0.5, 0.2), (0.9, -0.4)]:
        assert fisher_density(r, theta, N) == pytest.approx(
            fisher_density(-r, -theta, N), rel=1e-12)


def test_exact_interval_frozen_values_and_defining_tails():
    lo, hi = fisher_exact_ci(THETA_HAT, N)
    assert lo == pytest.approx(0.09291, abs=3e-4)
    assert hi == pytest.approx(0.75080, abs=3e-4)
    # each endpoint is the parameter putting 2.5% beyond the observed value
    above, _ = quad(lambda r: fisher_density(r, lo, N), THETA_HAT, 1.0, limit=200)
    below, _ = quad(lambda r: fisher_density(r, hi, N), -1.0, THETA_HAT, limit=200)
    assert above == pytest.approx(0.025, abs=2e-4)
    assert below == pytest.approx(0.025, abs=2e-4)


# an oracle sharing nothing with the package but the endpoints it checks:
# sample correlations of simulated bivariate-normal samples of the scores'
# size, at the scores' observed correlation
R_OBS = 0.49780749859167395
DRAWS = 200_000
TAIL_SD = math.sqrt(0.025 * 0.975 / DRAWS)  # binomial sd of a 2.5% tail mass


def simulated_tail_mass(rho, below, seed, chunk=10_000):
    """P(r <= R_OBS) if below, else P(r >= R_OBS), for the sample correlation
    r of N bivariate-normal pairs with correlation rho, from DRAWS samples
    drawn ``chunk`` at a time."""
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(DRAWS // chunk):
        x, e = rng.standard_normal((2, chunk, N))
        y = rho * x + math.sqrt(1.0 - rho * rho) * e
        x -= x.mean(axis=1, keepdims=True)
        y -= y.mean(axis=1, keepdims=True)
        r = (x * y).sum(axis=1) / np.sqrt((x * x).sum(axis=1) * (y * y).sum(axis=1))
        hits += int(np.sum(r <= R_OBS if below else r >= R_OBS))
    return hits / DRAWS


def test_exact_interval_endpoints_hold_their_simulated_tail_masses():
    lo, hi = fisher_exact_ci(R_OBS, N)
    assert abs(simulated_tail_mass(hi, True, 1) - 0.025) < 4.0 * TAIL_SD
    assert abs(simulated_tail_mass(lo, False, 2) - 0.025) < 4.0 * TAIL_SD


def test_acceptance_1_upper_target_is_not_an_exact_endpoint():
    # acceptance 1 asks for an upper end of 0.741; the sample correlation
    # falls at or below R_OBS more than 2.5% of the time there
    assert simulated_tail_mass(0.741, True, 3) >= 0.025 + 4.0 * TAIL_SD


def test_exact_interval_symmetric_at_zero():
    lo, hi = fisher_exact_ci(0.0, N)
    assert lo == pytest.approx(-hi, abs=2e-4)
    assert hi > 0.3


def test_exact_interval_nesting_across_coverage():
    lo95, hi95 = fisher_exact_ci(THETA_HAT, N, coverage=0.95)
    lo90, hi90 = fisher_exact_ci(THETA_HAT, N, coverage=0.90)
    assert lo95 < lo90 < hi90 < hi95


def test_domain_validation():
    with pytest.raises(ValueError):
        fisher_density(1.0, 0.5, N)
    with pytest.raises(ValueError):
        fisher_density(0.5, 0.5, 4)
    with pytest.raises(ValueError):
        fisher_exact_ci(1.2, N)
    with pytest.raises(ValueError):
        fisher_exact_ci(0.5, N, coverage=1.0)
    with pytest.raises(ValueError):
        fisher_log_density(np.array([0.2, -1.0]), 0.5, N)


def test_posterior_weights_default_prior_is_explicit_scale_prior():
    thetas = np.linspace(-0.2, 0.85, 40)
    implicit = log_correlation_weights(thetas, THETA_HAT, N)
    explicit = log_correlation_weights(
        thetas, THETA_HAT, N,
        log_prior=lambda t: -(np.log1p(-t) + np.log1p(t)))
    assert np.array_equal(implicit, explicit)
    assert np.all(np.isfinite(implicit))


def test_posterior_weights_equal_prior_times_density_ratio():
    thetas = np.array([0.1, 0.4, 0.7])
    got = log_correlation_weights(thetas, THETA_HAT, N,
                                  log_prior=lambda t: np.zeros_like(t))
    for th, lw in zip(thetas, got):
        oracle = (math.log(fisher_density(THETA_HAT, th, N))
                  - math.log(fisher_density(th, THETA_HAT, N)))
        assert lw == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("n", [5, 22, 200])
def test_density_ratio_of_swapped_arguments_is_the_closed_form(n):
    # the integrals of f(theta_hat | theta) and f(theta | theta_hat) depend
    # on theta * theta_hat alone and cancel, leaving the closed form that
    # log_correlation_weights uses
    thetas = np.linspace(-0.98, 0.98, 99)
    for theta_hat in (-0.6, 0.0, THETA_HAT, 0.95):
        ratio = (fisher_log_density(theta_hat, thetas, n)
                 - fisher_log_density(thetas, theta_hat, n))
        closed = 1.5 * np.log((1.0 - thetas**2) / (1.0 - theta_hat**2))
        assert np.max(np.abs(ratio - closed)) <= 1e-12
        flat = log_correlation_weights(thetas, theta_hat, n,
                                       log_prior=lambda t: np.zeros_like(t))
        assert np.max(np.abs(flat - closed)) <= 1e-12
    with pytest.raises(ValueError, match="strictly inside"):
        log_correlation_weights([0.1, 0.2], 1.0, n)


def test_small_n_is_an_input_error_on_every_path():
    # n < 5 is outside the density formula: a ValueError, never a NaN weight
    # or a numerical failure about the interval's bracket
    for n in (2, 3, 4):
        with pytest.raises(ValueError, match="requires n >= 5"):
            fisher_log_density(0.3, 0.5, n)
        with pytest.raises(ValueError, match="requires n >= 5"):
            fisher_density(0.3, 0.5, n)
        with pytest.raises(ValueError, match="requires n >= 5"):
            fisher_exact_ci(0.5, n)
        with pytest.raises(ValueError, match="requires n >= 5"):
            log_correlation_weights([0.1, 0.2], 0.3, n)
    assert np.isfinite(fisher_exact_ci(0.5, 5)).all()


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(21)
    for i in range(200):
        shape = tuple(rng.integers(1, 5, size=rng.integers(0, 3)))
        a = rng.normal(scale=rng.uniform(0.1, 300.0),
                       size=shape + (int(rng.integers(1, 150)),))
        if i % 4 == 0:  # several terms tie at the maximum
            a = np.round(a)
            a[..., 0] = a[..., -1] = a.max(axis=-1)
        b = rng.uniform(0.01, 3.0, size=a.shape)
        assert np.allclose(_logsumexp(a, b), special.logsumexp(a, axis=-1, b=b),
                           rtol=1e-13, atol=0.0)


def test_bisect_matches_scipy_bitwise():
    from scipy.optimize import bisect

    rng = np.random.default_rng(22)
    shapes = (lambda x, c: x**3 - c**3, lambda x, c: np.tanh(4.0 * (x - c)),
              lambda x, c: math.exp(x) - math.exp(c))
    for i in range(300):
        f = shapes[i % 3]
        c = float(rng.uniform(-0.9, 0.9))
        lo, hi = c - float(rng.uniform(1e-3, 2.0)), c + float(rng.uniform(1e-3, 2.0))
        # tiny xtol leaves the stop to the relative tolerance
        xtol = 5e-324 if i % 10 == 0 else float(10 ** rng.uniform(-18, -2))
        assert _bisect(lambda x: f(x, c), lo, hi, xtol) == bisect(
            lambda x: f(x, c), lo, hi, xtol=xtol), (i, c, lo, hi, xtol)
    # an endpoint that is already a root is returned as is
    assert _bisect(lambda x: x - 0.25, 0.25, 1.0, 1e-4) == 0.25
    assert _bisect(lambda x: x - 1.0, 0.25, 1.0, 1e-4) == 1.0


def test_bisect_without_a_sign_change_is_a_numerical_failure():
    with pytest.raises(NumericalFailure, match="not bracketed"):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-4)


def nested_quad_mass(theta, lo, hi, n):
    # the adaptive-quadrature oracle: quad over r of quad over w
    return quad(lambda r: quad_density(r, theta, n), lo, hi, limit=200)[0]


@pytest.mark.parametrize("n", [5, 8, 22, 60, 150])
def test_tail_mass_matches_nested_quadrature(n):
    for theta in (-0.95, -0.6, 0.0, 0.5, 0.95, 0.99):
        for r0 in (-0.9, -0.3, 0.0, THETA_HAT, 0.9):
            for lo, hi in ((r0, 1.0), (-1.0, r0)):
                assert _mass(theta, lo, hi, n) == pytest.approx(
                    nested_quad_mass(theta, lo, hi, n), abs=1e-10)
