"""Reweighted posteriors against exact conjugate ones.

One stored run gives the posterior under any prior by reweighting; where the
posterior has a closed form, the reweighted mean must sit within Monte Carlo
error of it.  The seeds and the bound are fixed in advance: every seed must
give |z| < Z_BOUND, with z the error over its importance-sampling standard
error [sum w_i^2 (t_i - t_w)^2]^(1/2).
"""

import numpy as np
import pytest
from scipy import stats

from bootbayes import (GammaScaleFamily, MvNormalFamily, NormalTranslationFamily,
                       Prior, eigenratio_statistic, importance_weights,
                       log_prior_inverse_wishart, run_bootstrap,
                       statistic_eigenratio, summarize)

from conftest import identity_statistic

B = 4000
SEEDS = range(10)
Z_BOUND = 4.0
# the eigenratio study at its paper size, over seeds around its paper seed 15;
# a seed whose weights show a Pareto tail shape at or past KHAT_LINE, where
# importance sampling is unreliable (Vehtari et al., PSIS), is exempt
MVN_B = 10_000
MVN_SEEDS = range(15, 31)
KHAT_LINE = 0.7


def gamma_jeffreys():
    # the sample mean of n exponentials at scale beta has likelihood
    # beta^-n exp(-n beta_hat / beta); under the Jeffreys prior 1/beta the
    # posterior is inverse-gamma(n, n beta_hat), with mean n beta_hat / (n - 1)
    n, beta_hat = 20, 1.0
    return GammaScaleFamily(n), beta_hat, Prior.jeffreys(), n * beta_hat / (n - 1)


def normal_flat():
    # a normal mean with known variance under the flat prior: the posterior
    # is normal, centered at the estimate
    beta_hat = 3.0
    return NormalTranslationFamily(sigma=2.0), beta_hat, Prior.flat(), beta_hat


@pytest.mark.parametrize("case", [gamma_jeffreys, normal_flat])
def test_reweighted_posterior_mean_matches_the_exact_one(case):
    family, beta_hat, prior, exact = case()
    z = []
    for seed in SEEDS:
        run = run_bootstrap(family, family.mle(beta_hat), B, seed,
                            [identity_statistic()])
        weights = importance_weights(run, prior)
        mean = summarize(run, weights, "identity").mean
        t = run.statistic_values("identity")
        se = np.sqrt(np.sum(weights.w**2 * (t - mean) ** 2))
        z.append((mean - exact) / se)
    assert np.all(np.abs(z) < Z_BOUND), z


def zhang_stephens_shape(x):
    """Generalized-Pareto shape of exceedances x > 0 by Zhang and Stephens'
    posterior-mean estimator on the grid PSIS uses (without PSIS's later
    prior on the shape)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    m = 30 + int(np.sqrt(n))
    b = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1, m + 1) - 0.5))) / (
        3.0 * x[int(n / 4 + 0.5) - 1])
    k = np.log1p(-b[:, None] * x).mean(axis=1)
    loglik = n * (np.log(-b / k) - k - 1.0)
    post = np.exp(loglik - loglik.max())
    return float(np.mean(np.log1p(-(post @ b / post.sum()) * x)))


def pareto_khat(w):
    """Shape k-hat of the largest 3 sqrt(B) of B weights over the next one."""
    w = np.sort(w)
    m = int(np.ceil(min(0.2 * w.size, 3.0 * np.sqrt(w.size))))
    return zhang_stephens_shape(w[-m:] - w[-m - 1])


def test_zhang_stephens_shape_agrees_with_the_scipy_maximum_likelihood_fit():
    x = stats.genpareto.rvs(0.5, size=2000, random_state=np.random.default_rng(1))
    c, _, _ = stats.genpareto.fit(x, floc=0.0)
    assert abs(zhang_stephens_shape(x) - c) < 0.05
    assert abs(c - 0.5) < 0.1


def exact_eigenratio_mean(psi, df, draws=400_000):
    """Mean eigenratio of sigma ~ IW(psi, df), drawing sigma^-1 ~ W(psi^-1, df)
    by Bartlett's construction L A A' L', L the Cholesky factor of psi^-1."""
    rng = np.random.default_rng(0)
    d = psi.shape[0]
    a = np.zeros((draws, d, d))
    for i in range(d):
        a[:, i, i] = np.sqrt(rng.chisquare(df - i, draws))
        a[:, i, :i] = rng.standard_normal((draws, i))
    la = np.linalg.cholesky(np.linalg.inv(psi)) @ a
    return statistic_eigenratio(np.linalg.inv(la @ la.swapaxes(-1, -2))).mean()


@pytest.fixture(scope="module")
def eigenratio_runs(scores):
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    return [run_bootstrap(family, mle, MVN_B, seed, [eigenratio_statistic()])
            for seed in MVN_SEEDS]


# With mu integrated out under a flat prior, the likelihood of sigma is
# |sigma|^-(n-1)/2 exp(-tr(n S sigma^-1)/2).  The Jeffreys weights imply a
# prior |sigma|^-(d+2)/2, giving IW(n S, n); the inverse-Wishart kernel
# |sigma|^-(d+3)/2 exp(-tr(sigma^-1)/2) gives IW(n S + I, n + 1).
@pytest.mark.parametrize("prior", ["jeffreys", "inverse_wishart"])
def test_reweighted_eigenratio_mean_matches_the_exact_inverse_wishart_one(
        eigenratio_runs, prior):
    mle = eigenratio_runs[0].mle
    n, d = eigenratio_runs[0].family.n, eigenratio_runs[0].family.d
    if prior == "jeffreys":
        weight_prior, exact = Prior.jeffreys(), exact_eigenratio_mean(n * mle.sigma, n)
    else:
        weight_prior = Prior.from_log_density("inverse_wishart", log_prior_inverse_wishart)
        exact = exact_eigenratio_mean(n * mle.sigma + np.eye(d), n + 1)
    results = []
    for run in eigenratio_runs:
        weights = importance_weights(run, weight_prior)
        mean = summarize(run, weights, "eigenratio").mean
        t = run.statistic_values("eigenratio")
        z = (mean - exact) / np.sqrt(np.sum(weights.w**2 * (t - mean) ** 2))
        results.append((run.master_seed, pareto_khat(weights.w), z))
    assert all(khat >= KHAT_LINE or abs(z) < Z_BOUND for _, khat, z in results), results
