"""The reweighted prostate fdr posterior against Metropolis chains.

Under the Jeffreys prior the degree-4 Poisson model of the binned z-values
has log posterior, in its canonical parameter alpha,

    alpha' X'y - sum(mu) + 1/2 log |X' diag(mu) X|,   mu = exp(X alpha),

which random-walk Metropolis samples with no importance weights.  The chains
share no code with the package's conversion terms (delta, log_xi), its fits
or its basis: only the fdr statistic of their mean vectors is the package's.

Fixed in advance: the chain seed, the number of chains and steps, the
burn-in, split-R-hat below RHAT_BOUND, and |z| below Z_BOUND, with z the
difference of the two means over the root sum of squares of their standard
errors: the between-chain one, and the importance-sampling one
``PosteriorSummary.mc_se``.  The 95% interval endpoints must agree to
ENDPOINT_TOL.
"""

import math

import numpy as np
import pytest

from bootbayes import (PoissonGlmFamily, Prior, fdr_statistic, importance_weights,
                       run_bootstrap, statistic_fdr, summarize)
from bootbayes.studies import FDR_THRESHOLD, BinSpec, bin_zvalues

DEGREE = 4
B = 4000
SEEDS = (11, 12, 13, 14)
CHAINS, STEPS, BURN_IN = 200, 3000, 1000
CHAIN_SEED = 1301
RHAT_BOUND = 1.01
Z_BOUND = 4.0
ENDPOINT_TOL = 1e-3


@pytest.fixture(scope="module")
def counts(synthetic_zvalues):
    spec = BinSpec()
    return spec.centers, bin_zvalues(synthetic_zvalues, spec)[0]


def split_rhat(draws):
    """Split R-hat of a (steps, chains) array: each chain cut in two halves."""
    n = draws.shape[0] // 2
    halves = np.concatenate([draws[:n], draws[n:2 * n]], axis=1)
    within = halves.var(axis=0, ddof=1).mean()
    between = n * halves.mean(axis=0).var(ddof=1)
    return math.sqrt(((n - 1) / n * within + between / n) / within)


@pytest.fixture(scope="module")
def chains(counts):
    """fdr draws (steps after burn-in, chains) of the Jeffreys posterior."""
    centers, y = counts
    # an orthonormal polynomial design of its own; the posterior of mu does
    # not depend on the basis, because the Jeffreys prior is invariant
    x = np.linalg.qr(np.vander(centers / 5.0, DEGREE + 1, increasing=True))[0]
    p = x.shape[1]
    suff = x.T @ y

    def log_post(alpha):
        mu = np.exp(alpha @ x.T)
        info = np.einsum("cj,jk,jl->ckl", mu, x, x)
        return alpha @ suff - mu.sum(axis=-1) + 0.5 * np.linalg.slogdet(info)[1], mu

    # the estimate by Newton's method on the likelihood
    alpha_hat = np.linalg.lstsq(x, np.log(y + 0.5), rcond=None)[0]
    for _ in range(50):
        mu = np.exp(x @ alpha_hat)
        alpha_hat = alpha_hat + np.linalg.solve((x.T * mu) @ x, x.T @ (y - mu))
    scale = np.linalg.cholesky(np.linalg.inv((x.T * np.exp(x @ alpha_hat)) @ x))

    rng = np.random.default_rng(CHAIN_SEED)
    # overdispersed starts: twice the posterior spread about the estimate
    current = alpha_hat + 2.0 * rng.standard_normal((CHAINS, p)) @ scale.T
    lp, mu = log_post(current)
    draws = np.empty((STEPS - BURN_IN, CHAINS))
    for step in range(STEPS):
        proposal = current + (2.38 / math.sqrt(p)) * (
            rng.standard_normal((CHAINS, p)) @ scale.T)
        lp_new, mu_new = log_post(proposal)
        accept = np.log(rng.random(CHAINS)) < lp_new - lp
        current[accept], lp[accept], mu[accept] = (
            proposal[accept], lp_new[accept], mu_new[accept])
        if step >= BURN_IN:
            draws[step - BURN_IN] = statistic_fdr(mu, FDR_THRESHOLD, centers)
    return draws


def test_chains_have_converged(chains):
    assert split_rhat(chains) < RHAT_BOUND


@pytest.mark.parametrize("seed", SEEDS)
def test_reweighted_fdr_posterior_matches_the_chains(counts, chains, seed):
    centers, y = counts
    family = PoissonGlmFamily.from_basis(centers, DEGREE)
    fdr = fdr_statistic(FDR_THRESHOLD, centers)
    run = run_bootstrap(family, family.points(y), B, seed, [fdr])
    post = summarize(run, importance_weights(run, Prior.jeffreys()), fdr.id, 0.95)

    chain_means = chains.mean(axis=0)
    mcmc_mean = float(chain_means.mean())
    mcmc_se = float(chain_means.std(ddof=1)) / math.sqrt(CHAINS)
    z = (post.mean - mcmc_mean) / math.hypot(post.mc_se, mcmc_se)
    assert abs(z) < Z_BOUND, (seed, post.mean, mcmc_mean, z)

    lo, hi = np.quantile(chains, [0.025, 0.975])
    assert abs(post.interval.lo - lo) < ENDPOINT_TOL, (seed, post.interval, lo)
    assert abs(post.interval.hi - hi) < ENDPOINT_TOL, (seed, post.interval, hi)
