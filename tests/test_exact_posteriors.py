"""Reweighted posteriors against exact conjugate ones.

One stored run gives the posterior under any prior by reweighting; where the
posterior has a closed form, the reweighted mean must sit within Monte Carlo
error of it.  The seeds and the bound are fixed in advance: every seed must
give |z| < Z_BOUND, with z the error over its importance-sampling standard
error [sum w_i^2 (t_i - t_w)^2]^(1/2).
"""

import numpy as np
import pytest

from bootbayes import (GammaScaleFamily, NormalTranslationFamily, Prior,
                       importance_weights, run_bootstrap, summarize)

from conftest import identity_statistic

B = 4000
SEEDS = range(10)
Z_BOUND = 4.0


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
