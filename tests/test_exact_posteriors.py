"""Reweighted posteriors against exact conjugate ones.

One stored run gives the posterior under any prior by reweighting; where the
posterior has a closed form, the reweighted mean must sit within Monte Carlo
error of it.  The seeds and the bound are fixed in advance: every seed must
give |z| < Z_BOUND, with z the error over its importance-sampling standard
error ``PosteriorSummary.mc_se``.
"""

from functools import partial

import numpy as np
import pytest
from scipy import stats

from bootbayes import (GammaScaleFamily, MvNormalFamily, NormalTranslationFamily,
                       Prior, eigenratio_statistic, importance_weights,
                       log_prior_inverse_wishart, run_bootstrap,
                       statistic_eigenratio, summarize)
from bootbayes.posterior import _zhang_stephens_shape

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
        post = summarize(run, importance_weights(run, prior), "identity")
        z.append((post.mean - exact) / post.mc_se)
    assert np.all(np.abs(z) < Z_BOUND), z


def test_zhang_stephens_shape_agrees_with_the_scipy_maximum_likelihood_fit():
    x = stats.genpareto.rvs(0.5, size=2000, random_state=np.random.default_rng(1))
    c, _, _ = stats.genpareto.fit(x, floc=0.0)
    assert abs(_zhang_stephens_shape(x) - c) < 0.05
    assert abs(c - 0.5) < 0.1


def exact_eigenratios(psi, df, draws=400_000):
    """Eigenratios of draws of sigma ~ IW(psi, df), drawing sigma^-1 ~
    W(psi^-1, df) by Bartlett's construction L A A' L', L the Cholesky factor
    of psi^-1."""
    rng = np.random.default_rng(0)
    d = psi.shape[0]
    a = np.zeros((draws, d, d))
    for i in range(d):
        a[:, i, i] = np.sqrt(rng.chisquare(df - i, draws))
        a[:, i, :i] = rng.standard_normal((draws, i))
    la = np.linalg.cholesky(np.linalg.inv(psi)) @ a
    return statistic_eigenratio(np.linalg.inv(la @ la.swapaxes(-1, -2)))


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
        weight_prior, exact = Prior.jeffreys(), exact_eigenratios(n * mle.sigma, n).mean()
    else:
        weight_prior = Prior.from_log_density("inverse_wishart", log_prior_inverse_wishart)
        exact = exact_eigenratios(n * mle.sigma + np.eye(d), n + 1).mean()
    results = []
    for run in eigenratio_runs:
        post = summarize(run, importance_weights(run, weight_prior), "eigenratio")
        z = (post.mean - exact) / post.mc_se
        results.append((run.master_seed, post.weights.khat, z))
    assert all(khat >= KHAT_LINE or abs(z) < Z_BOUND for _, khat, z in results), results


# The inverse-Wishart prior swept over its scale c I and degrees of freedom nu,
# on the runs of two seeds; grid and seeds were fixed before the first run.
# The kernel |sigma|^-((nu+d+1)/2) exp(-tr(c sigma^-1)/2) gives the posterior
# IW(n S + c I, n + nu - 1), and z also counts the exact draws' standard error.
SWEEP_SEEDS = (15, 16)


@pytest.mark.parametrize("nu", [2.0, 10.0])
@pytest.mark.parametrize("c", [1.0, 100.0, 1000.0, 3000.0, 1e4, 1e5])
def test_reweighted_eigenratio_mean_matches_the_exact_one_over_a_prior_sweep(
        eigenratio_runs, c, nu):
    mle, family = eigenratio_runs[0].mle, eigenratio_runs[0].family
    scale = c * np.eye(family.d)
    exact = exact_eigenratios(family.n * mle.sigma + scale, family.n + nu - 1)
    exact_se = exact.std() / np.sqrt(exact.size)
    prior = Prior.from_log_density(
        f"inverse_wishart(c={c:g},nu={nu:g})",
        partial(log_prior_inverse_wishart, scale=scale, df=nu))
    results = []
    for run in (r for r in eigenratio_runs if r.master_seed in SWEEP_SEEDS):
        post = summarize(run, importance_weights(run, prior), "eigenratio")
        z = (post.mean - exact.mean()) / np.hypot(post.mc_se, exact_se)
        results.append((run.master_seed, post.weights.khat, z))
    assert len(results) == len(SWEEP_SEEDS)
    assert all(khat >= KHAT_LINE or abs(z) < Z_BOUND for _, khat, z in results), results
