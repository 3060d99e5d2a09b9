"""Multivariate-normal family, scalar statistics, and priors."""

import math

import numpy as np
import pytest
from scipy import stats

from bootbayes import (GammaScaleFamily, MvNormalFamily, MvnParam,
                       NormalTranslationFamily, NumericalFailure,
                       PoissonGlmFamily, correlation_statistic,
                       eigenratio_statistic, family_from_meta,
                       log_correlation_weights, log_prior_inverse_wishart,
                       run_bootstrap,
                       statistic_correlation, statistic_eigenratio, substream)
from bootbayes.sampler import OUTER_STREAM_OFFSET, Substreams
from bootbayes.studies import EIGENRATIO_SEED


def random_param(d, rng, spread=1.0):
    mu = spread * rng.normal(size=d)
    a = rng.normal(size=(d, d))
    return MvnParam(np.atleast_1d(mu), np.atleast_2d(a @ a.T + 0.5 * np.eye(d)))


def canonical_delta(fam, p, q):
    # delta rebuilt from canonical coordinates: alpha = (S^-1 mu, -S^-1/2),
    # beta = (n mu, n(S + mu mu')), psi = n/2 (mu' S^-1 mu + log|S|), with the
    # matrix blocks paired by the trace inner product
    def parts(r):
        si = np.linalg.inv(r.sigma)
        a1, a2 = si @ r.mu, -0.5 * si
        b1, b2 = fam.n * r.mu, fam.n * (r.sigma + np.outer(r.mu, r.mu))
        psi = fam.n / 2.0 * (r.mu @ si @ r.mu + np.linalg.slogdet(r.sigma)[1])
        return a1, a2, b1, b2, psi

    a1, a2, b1, b2, ps = parts(p)
    h1, h2, g1, g2, ph = parts(q)
    return ((a1 - h1) @ (b1 + g1) + np.sum((a2 - h2) * (b2 + g2))
            - 2.0 * (ps - ph))


def test_mvn_delta_matches_canonical_coordinate_construction():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3):
        fam = MvNormalFamily(d=d, n=22)
        for _ in range(25):
            p, q = random_param(d, rng), random_param(d, rng)
            assert fam.delta(p, q) == pytest.approx(
                canonical_delta(fam, p, q), rel=1e-8, abs=1e-8)


def test_mvn_conversion_factor_equals_joint_density_ratio():
    # xi e^delta must equal the ratio of the exact joint densities of
    # (mean, covariance): mean ~ N(mu, sigma/n), n*cov ~ Wishart(n-1, sigma);
    # the fixed jacobian cancels between numerator and denominator
    rng = np.random.default_rng(7)
    n = 22
    fam = MvNormalFamily(d=2, n=n)
    for _ in range(25):
        p, mh = random_param(2, rng), random_param(2, rng)
        lhs = fam.log_xi(p, mh) + fam.delta(p, mh)
        num = (stats.multivariate_normal.logpdf(mh.mu, p.mu, p.sigma / n)
               + stats.wishart.logpdf(n * mh.sigma, df=n - 1, scale=p.sigma))
        den = (stats.multivariate_normal.logpdf(p.mu, mh.mu, mh.sigma / n)
               + stats.wishart.logpdf(n * p.sigma, df=n - 1, scale=mh.sigma))
        assert lhs == pytest.approx(num - den, rel=1e-7, abs=1e-7)


def test_eigenratio_run_conversion_terms_match_normal_wishart_oracle(scores):
    # over the rows of the eigenratio run, delta_i + log_xi_i differs from
    # log g_i(theta_hat) - log g_hat(theta_i) by one constant, g the density
    # of (mean, covariance) from scipy alone; so the run's low effective
    # sample size is not an error in the conversion terms
    n = scores.n
    family = MvNormalFamily(d=2, n=n)
    mle = family.mle_from_data(scores.matrix)
    run = run_bootstrap(family, mle, B=60, master_seed=EIGENRATIO_SEED,
                        statistics=[eigenratio_statistic()])
    points = run.points()

    def log_g(at, theta):
        return (stats.multivariate_normal.logpdf(at.mu, theta.mu, theta.sigma / n)
                + stats.wishart.logpdf(n * at.sigma, df=n - 1, scale=theta.sigma))

    gap = [run.delta[i] + run.log_xi[i]
           - (log_g(mle, points[i]) - log_g(points[i], mle)) for i in range(run.B)]
    assert np.ptp(gap) < 1e-10


def test_mvn_xi_doubled_covariance_gives_sixteen():
    fam = MvNormalFamily(d=2, n=22)
    base = MvnParam(np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]]))
    doubled = MvnParam(base.mu, 2.0 * base.sigma)
    assert fam.log_xi(doubled, base) == pytest.approx(
        math.log(16.0), rel=1e-12)


def test_mvn_delta_one_dimensional_hand_case():
    # equal means, unit baseline variance: 22 [ (s^2 - s^-2)/2 - 2 log s ]
    fam = MvNormalFamily(d=1, n=22)
    mh = MvnParam(np.zeros(1), np.eye(1))
    for s in (0.7, 1.0, 1.6):
        p = MvnParam(np.zeros(1), np.array([[s * s]]))
        expect = 22 * ((s * s - s ** -2) / 2.0 - 2.0 * math.log(s))
        assert fam.delta(p, mh) == pytest.approx(
            expect, rel=1e-12, abs=1e-12)


def _random_estimate(kind, rng):
    """A family of the given kind and a random estimate of it."""
    if kind == "gamma":
        fam = GammaScaleFamily(n=int(rng.integers(2, 50)))
        return fam, fam.mle(rng.uniform(0.05, 20.0))
    if kind == "normal_translation":
        a = rng.normal(size=(2, 2))
        fam = NormalTranslationFamily(sigma=a @ a.T + 0.5 * np.eye(2))
        return fam, fam.mle(rng.normal(size=2))
    if kind == "mvnormal":
        d = int(rng.integers(1, 4))
        return MvNormalFamily(d=d, n=22), random_param(d, rng)
    fam = PoissonGlmFamily.from_basis(np.linspace(-2, 2, 12), int(rng.integers(1, 5)))
    return fam, fam.points(rng.poisson(rng.uniform(2.0, 40.0), size=12).astype(float))


@pytest.mark.parametrize("kind", ["gamma", "normal_translation", "mvnormal",
                                  "poisson_glm"])
def test_mvn_delta_and_xi_vanish_exactly_at_the_estimate(kind):
    # alone, and as the middle row of a table of replications
    rng = np.random.default_rng(3)
    for _ in range(20):
        fam, p = _random_estimate(kind, rng)
        assert fam.delta(p, p) == 0.0
        assert fam.log_xi(p, p) == 0.0
        points = [fam.points(fam.sample_replication(p, [rng])[0]) for _ in range(4)]
        rows = points[:2] + [p] + points[2:]
        alphas = [fam.alpha_of(q) for q in rows]
        stack = fam.stored_points(np.vstack([fam.flatten(q) for q in rows]),
                                  None if alphas[0] is None else np.vstack(alphas))
        assert fam.delta(stack, p)[2] == 0.0
        assert fam.log_xi(stack, p)[2] == 0.0


@pytest.mark.parametrize("kind", ["gamma", "normal_translation", "mvnormal",
                                  "poisson_glm"])
def test_mle_returns_a_point_a_run_is_drawn_at(kind):
    # mle returns the point of the estimate's beta vector, so a run at it is
    # the run at unflatten(flatten(point)) bit for bit
    fam, point = _random_estimate(kind, np.random.default_rng(8))
    run = run_bootstrap(fam, fam.mle(point), 50, 3)
    again = run_bootstrap(fam, fam.unflatten(fam.flatten(point)), 50, 3)
    for name in ("params", "alphas", "delta", "log_xi"):
        a, b = getattr(run, name), getattr(again, name)
        assert (a is None and b is None) or np.array_equal(a, b), name
    assert run.run_id == again.run_id


def test_mvn_deviance_closed_form_and_positivity():
    rng = np.random.default_rng(11)
    fam = MvNormalFamily(d=2, n=10)
    base = random_param(2, rng)
    scaled = MvnParam(base.mu, 2.0 * base.sigma)
    # equal means, sigma2 = 2 sigma1: D = n (d log 2 + d/2 - d)
    expect = 10 * (2 * math.log(2.0) + 2 / 2.0 - 2)
    assert fam.deviance(base, scaled) == pytest.approx(expect, rel=1e-12)
    for _ in range(10):
        p, q = random_param(2, rng), random_param(2, rng)
        assert fam.deviance(p, q) >= -1e-10
    assert fam.deviance(base, base) == pytest.approx(0.0, abs=1e-12)


def test_mvn_log_density_ratio_antisymmetric():
    rng = np.random.default_rng(5)
    fam = MvNormalFamily(d=2, n=22)
    p, q, at = (random_param(2, rng) for _ in range(3))
    assert fam.log_density_ratio(p, q, at) == pytest.approx(
        -fam.log_density_ratio(q, p, at), rel=1e-12)


def test_gamma_draws_scale_through_the_canonical_round_trip():
    fam, mle = GammaScaleFamily(n=7), 1.7
    # the point of the canonical alpha is beta = -n / alpha
    scale_mean = -fam.n / fam.canonical_of(mle)[0]
    # the round trip moves this estimate's last bit, so the check has teeth
    assert scale_mean != mle
    run = run_bootstrap(fam, fam.mle(mle), B=300, master_seed=5)
    expect = [substream(5, i).gamma(shape=7, scale=scale_mean / 7) for i in range(300)]
    assert np.array_equal(run.params[:, 0], expect)
    with pytest.raises(ValueError, match="positive"):
        fam.sample_replication(-1.0, [substream(5, 0)])


def test_mvn_sampling_deterministic_and_covariance_unbiased_up_to_n_factor():
    rng = np.random.default_rng(13)
    fam = MvNormalFamily(d=2, n=22)
    mle = random_param(2, rng)
    a = fam.points(fam.sample_replication(mle, [np.random.default_rng(99)])[0])
    b = fam.points(fam.sample_replication(mle, [np.random.default_rng(99)])[0])
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)

    draws = fam.points(fam.sample_replication(mle, Substreams(4, 2000))).sigma[:, 0, 0]
    # divisor-n covariance: E[S_00] = sigma_00 (n-1)/n
    target = mle.sigma[0, 0] * 21 / 22
    assert draws.mean() == pytest.approx(
        target, abs=4 * draws.std() / math.sqrt(2000))


def test_mvn_batch_multipliers_match_per_point_density_ratios():
    rng = np.random.default_rng(17)
    fam = MvNormalFamily(d=2, n=22)
    mle = random_param(2, rng)
    run = run_bootstrap(fam, mle, B=40, master_seed=2)
    gamma = random_param(2, rng)
    batch = fam.log_bab_multipliers(run, gamma)
    points = run.points()
    for i in range(0, 40, 7):
        pt = points[i]
        direct = (fam.log_density_ratio(pt, mle, gamma)
                  - fam.log_density_ratio(pt, mle, mle))
        assert batch[i] == pytest.approx(direct, rel=1e-10, abs=1e-10)
    assert np.array_equal(fam.log_bab_multipliers(run, mle), np.zeros(40))


def point_of_canonical(fam, alpha):
    """(mu, sigma) of a canonical vector, inverted by hand: the vech block is
    -1/2 of sigma^-1's diagonal and minus its off-diagonal entries."""
    d = fam.d
    rows, cols = np.tril_indices(d)
    prec = np.zeros((d, d))
    prec[rows, cols] = np.where(rows == cols, -2.0, -1.0) * alpha[d:]
    prec[cols, rows] = prec[rows, cols]
    sigma = np.linalg.inv(prec)
    return MvnParam(sigma @ alpha[:d], sigma)


def test_mvn_canonical_maps_invert_and_beta_is_the_gradient_of_psi():
    rng = np.random.default_rng(37)
    for d in (1, 2, 3):
        fam = MvNormalFamily(d=d, n=22)
        for _ in range(5):
            p = random_param(d, rng)
            alpha = fam.canonical_of(p)
            back = point_of_canonical(fam, alpha)
            assert np.allclose(back.mu, p.mu, rtol=1e-12, atol=1e-12)
            assert np.allclose(back.sigma, p.sigma, rtol=1e-12, atol=1e-12)
            beta, h = fam.mean_of(p), 1e-5
            grad = np.array([
                (fam.psi_of(point_of_canonical(fam, alpha + h * e))
                 - fam.psi_of(point_of_canonical(fam, alpha - h * e))) / (2 * h)
                for e in np.eye(alpha.size)])
            assert np.allclose(grad, beta, rtol=1e-6, atol=1e-6)
        # the stacked maps give, row by row, the maps of each point
        stack = MvnParam(np.stack([p.mu, 2.0 * p.mu]), np.stack([p.sigma, 3.0 * p.sigma]))
        for fn in (fam.canonical_of, fam.mean_of, fam.psi_of):
            assert np.allclose(fn(stack)[1], fn(stack[1]), rtol=1e-14, atol=0.0)


def test_mvn_multipliers_match_scipy_likelihoods_of_outer_data(scores):
    # m_i = l(Y_gamma; theta_i) - l(Y_gamma; theta_hat)
    #       - l(Y_0; theta_i) + l(Y_0; theta_hat), with l the normal log
    # density summed over the actual data rows
    fam = MvNormalFamily(d=2, n=scores.n)
    mle = fam.mle_from_data(scores.matrix)
    run = run_bootstrap(fam, mle, B=200, master_seed=9)
    y_outer = fam.sample_replication(mle, [substream(9, OUTER_STREAM_OFFSET)])[0].reshape(
        fam.n, fam.d)
    gamma = fam.mle_from_data(y_outer)
    m = fam.log_bab_multipliers(run, gamma)

    def loglik(rows, pt):
        return stats.multivariate_normal.logpdf(rows, pt.mu, pt.sigma).sum()

    points = run.points()
    oracle = np.array([
        loglik(y_outer, points[i]) - loglik(y_outer, mle)
        - loglik(scores.matrix, points[i]) + loglik(scores.matrix, mle)
        for i in range(run.B)])
    assert np.abs(m).max() > 1.0  # the outer draw moves the weights
    assert np.allclose(m, oracle, rtol=0.0, atol=1e-12)
    assert np.array_equal(fam.log_bab_multipliers(run, mle), np.zeros(run.B))


def test_mvn_delta_override_agrees_with_the_canonical_formula(eigenratio_run):
    # delta keeps its (mu, sigma) arithmetic because the canonical formula,
    # (alpha_i - alpha_hat)'(beta_i + beta_hat) - 2 (psi_i - psi_hat), moves
    # the eigenratio study's outputs past 1e-12; the two agree to round-off
    run = eigenratio_run
    fam, points, mle = run.family, run.points(), run.mle
    canonical = (((fam.canonical_of(points) - fam.canonical_of(mle))
                  * (fam.mean_of(points) + fam.mean_of(mle))).sum(axis=1)
                 - 2.0 * (fam.psi_of(points) - fam.psi_of(mle)))
    assert np.abs(run.delta).max() > 10.0
    assert np.abs(run.delta - canonical).max() < 2e-12


def test_correlation_statistic_matches_corrcoef():
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(30, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    sigma = np.cov(rows.T, ddof=0)
    assert statistic_correlation(sigma) == pytest.approx(
        np.corrcoef(rows[:, 0], rows[:, 1])[0, 1], rel=1e-12)
    assert statistic_correlation(np.eye(2)) == 0.0
    with pytest.raises(NumericalFailure):
        statistic_correlation(np.zeros((2, 2)))


def test_eigenratio_statistic_matches_eigvalsh_and_hand_cases():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2))
    sigma = a @ a.T + 0.1 * np.eye(2)
    vals = np.linalg.eigvalsh(sigma)
    assert statistic_eigenratio(sigma) == pytest.approx(
        vals[-1] / vals.sum(), rel=1e-12)
    assert statistic_eigenratio(np.eye(2)) == pytest.approx(0.5, rel=1e-14)
    assert statistic_eigenratio(np.diag([3.0, 1.0])) == pytest.approx(0.75, rel=1e-14)
    # scale invariance
    assert statistic_eigenratio(7.3 * sigma) == pytest.approx(
        statistic_eigenratio(sigma), rel=1e-12)
    # works beyond 2x2 through the general eigenvalue path
    b = rng.normal(size=(3, 3))
    s3 = b @ b.T + 0.1 * np.eye(3)
    v3 = np.linalg.eigvalsh(s3)
    assert statistic_eigenratio(s3) == pytest.approx(v3[-1] / v3.sum(), rel=1e-12)


def test_statistic_wrappers_expose_ids():
    assert correlation_statistic().id == "correlation"
    assert eigenratio_statistic().id == "eigenratio"


def test_jeffreys_correlation_prior_values_and_domain():
    # the prior of the correlation weights is 1/(1 - theta^2): the weights
    # minus the closed-form density ratio are its log
    thetas = np.array([0.0, 0.5, -0.5])
    lp = (log_correlation_weights(thetas, 0.3, 22)
          - 1.5 * np.log((1.0 - thetas**2) / (1.0 - 0.3**2)))
    assert lp[0] == pytest.approx(0.0, abs=1e-15)
    assert lp[1] == pytest.approx(math.log(4.0 / 3.0), rel=1e-12)
    assert lp[1] == pytest.approx(lp[2], rel=1e-12)
    with pytest.raises(ValueError):
        log_correlation_weights([1.0], 0.3, 22)


def test_inverse_wishart_prior_matches_scipy_up_to_constant():
    rng = np.random.default_rng(21)
    psi = np.array([[1.3, 0.2], [0.2, 0.9]])
    df = 3.0
    p1, p2 = random_param(2, rng), random_param(2, rng)
    lhs = (log_prior_inverse_wishart(p1, scale=psi, df=df)
           - log_prior_inverse_wishart(p2, scale=psi, df=df))
    rhs = (stats.invwishart.logpdf(p1.sigma, df=df, scale=psi)
           - stats.invwishart.logpdf(p2.sigma, df=df, scale=psi))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
    # flat in the mean component
    shifted = MvnParam(p1.mu + 5.0, p1.sigma)
    assert log_prior_inverse_wishart(shifted, scale=psi, df=df) == \
        log_prior_inverse_wishart(p1, scale=psi, df=df)


def test_flatten_unflatten_projection_is_idempotent():
    rng = np.random.default_rng(23)
    fam = MvNormalFamily(d=3, n=10)
    p = random_param(3, rng)
    flat = fam.flatten(p)
    assert flat.shape == (3 + 6,)
    again = fam.flatten(fam.unflatten(flat))
    assert np.array_equal(flat, again)
    q = fam.unflatten(flat)
    assert np.array_equal(q.sigma, q.sigma.T)


def test_mle_from_data_accepts_leave_one_out_row_counts():
    rng = np.random.default_rng(29)
    fam = MvNormalFamily(d=2, n=22)
    rows = rng.normal(size=(22, 2))
    full = fam.mle_from_data(rows)
    assert np.allclose(full.mu, rows.mean(axis=0))
    dev = rows - rows.mean(axis=0)
    assert np.allclose(full.sigma, dev.T @ dev / 22)
    loo = fam.mle_from_data(rows[1:])
    assert np.allclose(loo.mu, rows[1:].mean(axis=0))
    with pytest.raises(ValueError):
        fam.mle_from_data(rows[:, :1])
    with pytest.raises(ValueError):
        fam.mle_from_data(rows[:2])


def test_mvn_constructor_needs_more_observations_than_dimensions():
    with pytest.raises(ValueError):
        MvNormalFamily(d=3, n=3)


def test_family_from_meta_round_trips():
    for meta in ({"family": "gamma_scale", "n": 12},
                 {"family": "normal_translation", "sigma": [[2.0]]},
                 {"family": "mvnormal", "d": 2, "n": 22}):
        fam = family_from_meta(meta)
        assert fam.meta()["family"] == meta["family"]
    glm = family_from_meta({"family": "poisson_glm",
                            "centers": [-1.0, 0.0, 1.0, 2.0], "degree": 2})
    assert glm.meta()["degree"] == 2
    with pytest.raises(ValueError):
        family_from_meta({"family": "no_such_family"})


def test_mvn_meta_round_trip_preserves_mle():
    rng = np.random.default_rng(31)
    fam = MvNormalFamily(d=2, n=22)
    mle = random_param(2, rng)
    fam2 = family_from_meta(fam.meta())
    again = fam2.mle_from_meta(fam.mle_meta(mle))
    assert np.allclose(again.mu, mle.mu)
    assert np.allclose(again.sigma, mle.sigma)
    assert fam2.family_id == fam.family_id
