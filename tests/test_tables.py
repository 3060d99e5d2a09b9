"""Tables, not rows: one raw draw per replication, then everything over the
whole table, checked bitwise against a per-row reference loop."""

import math

import numpy as np
import pytest

from bootbayes import (GammaScaleFamily, GlmFit, MvNormalFamily, MvnParam,
                       NormalTranslationFamily, PoissonGlmFamily, Prior,
                       Statistic, aic_profiles, correlation_statistic,
                       eigenratio_statistic, family_skew_acceleration,
                       fdr_statistic, importance_weights,
                       log_prior_inverse_wishart, polynomial_basis,
                       Substreams, run_bootstrap, run_expanded_bootstrap,
                       select_degrees, statistic_fdr)
from bootbayes.studies import BinSpec, bin_zvalues, load_scores

from conftest import identity_statistic, numpy_substream


def reference_irls(x, beta, eta, tol=1e-10, max_iter=50):
    """Poisson IRLS for one sufficient vector, one matrix-vector product at a
    time, stopping when the log-likelihood changes by at most tol relative."""
    mu = np.exp(eta)
    loglik = None
    for it in range(1, max_iter + 1):
        xw = x * mu[:, None]
        alpha = np.linalg.solve(xw.T @ x, xw.T @ eta + (beta - x.T @ mu))
        eta = x @ alpha
        mu = np.exp(eta)
        new = float(beta @ alpha - mu.sum())
        if loglik is not None and abs(new - loglik) <= tol * (abs(loglik) + 1.0):
            return GlmFit(alpha, eta, mu, beta, None, it)
        loglik = new
    raise AssertionError("reference fit did not converge")


def reference_fit(x, y):
    """Started from the least-squares fit of log(max(y, 1/2))."""
    coef = np.linalg.lstsq(x, np.log(np.maximum(y, 0.5)), rcond=None)[0]
    return reference_irls(x, x.T @ y, x @ coef)


def reference_fit_sufficient(x, beta):
    """Started from the constant rate with the total count of beta."""
    total = beta @ np.linalg.lstsq(x, np.ones(x.shape[0]), rcond=None)[0]
    log_rate = np.log((total if total > 0.0 else 1.0) / x.shape[0])
    return reference_irls(x, beta, np.full(x.shape[0], log_rate))


def reference_point(family, at, rng):
    """One replication point drawn straight from the family's law, one
    point at a time, without the family's raw-row draw."""
    if isinstance(family, MvNormalFamily):
        chol = np.linalg.cholesky(at.sigma)
        y = at.mu + rng.standard_normal((family.n, family.d)) @ chol.T
        mu = y.mean(axis=0)
        dev = y - mu
        return MvnParam(mu, dev.T @ dev / family.n)
    if isinstance(family, PoissonGlmFamily):
        return reference_fit(family.x, rng.poisson(at.mu).astype(float))
    alpha = family.canonical(at)
    if isinstance(family, GammaScaleFamily):
        beta = -family.n / alpha[0]
        return np.array([rng.gamma(shape=family.n, scale=beta / family.n)])
    chol = np.linalg.cholesky(family.sigma)
    return family.sigma @ alpha + chol @ rng.standard_normal(family.param_dim)


def reference_alpha(family, point):
    if isinstance(family, MvNormalFamily):
        return None
    if isinstance(family, PoissonGlmFamily):
        return point.alpha
    if isinstance(family, GammaScaleFamily):
        return -family.n / point
    return np.linalg.solve(family.sigma, point)


def reference_tables(family, mle, B, seed, stats):
    """params, alphas, delta, log_xi and statistic columns filled one
    replication at a time, each drawn from numpy's own generator for its
    substream; the conversion terms then take the whole table."""
    params, alphas = [], []
    t = {s.id: [] for s in stats}
    for i in range(B):
        point = reference_point(family, mle, numpy_substream(seed, i))
        params.append(family.flatten(point))
        alphas.append(reference_alpha(family, point))
        for s in stats:
            t[s.id].append(float(s(point)))
    params = np.array(params)
    alphas = None if alphas[0] is None else np.array(alphas)
    return {"params": params, "alphas": alphas,
            "delta": family.delta(params, alphas, mle),
            "log_xi": family.log_xi(params, alphas, mle),
            **{sid: np.array(v) for sid, v in t.items()}}


def _prostate_counts():
    spec = BinSpec()
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 2000), rng.normal(3.2, 1.0, 100)])
    return spec.centers, bin_zvalues(z, spec)[0]


def aic_degree_statistic(centers):
    """The AIC-selected degree of each sufficient vector, as the prostate
    study selects it."""
    full, degrees = polynomial_basis(centers, 8), range(2, 9)
    return Statistic("aic_degree", lambda pts: select_degrees(
        aic_profiles(full, pts.beta, degrees), degrees).reshape(np.shape(pts.beta)[:-1]))


def _poisson_case(degree, stats):
    centers, y = _prostate_counts()
    family = PoissonGlmFamily.from_basis(centers, degree)
    return family, family.points(y), stats(centers)


def _case(kind):
    if kind == "gamma":
        family = GammaScaleFamily(n=7)
        return family, family.mle(1.37), [identity_statistic()]
    if kind == "normal_translation":
        family = NormalTranslationFamily(sigma=[[2.0, 0.6], [0.6, 1.0]])
        return family, family.mle([0.3, -1.2]), [identity_statistic()]
    if kind == "mvnormal":
        scores = load_scores()
        family = MvNormalFamily(d=2, n=scores.n)
        return (family, family.mle_from_data(scores.matrix),
                [correlation_statistic(), eigenratio_statistic()])
    if kind == "mvnormal_d3":
        family = MvNormalFamily(d=3, n=9)
        sigma = [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]]
        return family, MvnParam.of([0.5, -1.0, 2.0], sigma), [eigenratio_statistic()]
    if kind == "poisson_m4":
        return _poisson_case(4, lambda c: [fdr_statistic(3.0, c)])
    return _poisson_case(8, lambda c: [fdr_statistic(3.0, c), aic_degree_statistic(c)])


@pytest.mark.parametrize("kind,B,seed", [("gamma", 300, 5),
                                         ("normal_translation", 300, 6),
                                         ("mvnormal", 500, 15),
                                         ("poisson_m4", 200, 11),
                                         ("poisson_m8", 60, 11)])
def test_run_tables_match_the_per_row_reference_bitwise(kind, B, seed):
    family, mle, stats = _case(kind)
    run = run_bootstrap(family, mle, B, seed, stats)
    ref = reference_tables(family, mle, B, seed, stats)
    assert np.array_equal(run.params, ref["params"])
    if ref["alphas"] is None:
        assert run.alphas is None
    else:
        assert np.array_equal(run.alphas, ref["alphas"])
    assert np.array_equal(run.delta, ref["delta"])
    assert np.array_equal(run.log_xi, ref["log_xi"])
    for s in stats:
        assert np.array_equal(run.t[s.id], ref[s.id]), s.id


@pytest.mark.parametrize("kind", ["gamma", "normal_translation", "mvnormal",
                                  "mvnormal_d3", "poisson_m4"])
@pytest.mark.parametrize("B", [1, 7, 4097])
def test_table_draw_rows_match_one_row_draws_from_numpys_generators(kind, B):
    # 4097 rows cross a block of substream seeds
    family, at, _ = _case(kind)
    table = family.sample_replication(at, Substreams(19, B))
    assert table.shape[0] == B
    for i in range(B):
        row = family.sample_replication(at, [numpy_substream(19, i)])
        assert np.array_equal(table[i], row[0]), i


def test_gamma_conversion_terms_match_their_closed_forms():
    # an oracle free of the family's maps: with r = b / b_hat,
    # D(b1, b2) = 2n(b1/b2 - 1 - log(b1/b2)), delta = [D(b, b_hat) - D(b_hat, b)] / 2
    # and log xi = log r
    family, mle, stats = _case("gamma")
    run = run_bootstrap(family, mle, 300, 5, stats)
    n, b_hat = family.n, float(mle[0])

    def deviance(b1, b2):
        return 2.0 * n * (b1 / b2 - 1.0 - math.log(b1 / b2))

    for b, delta, log_xi in zip(run.params[:, 0], run.delta, run.log_xi):
        b = float(b)
        assert delta == pytest.approx(
            (deviance(b, b_hat) - deviance(b_hat, b)) / 2.0, rel=1e-12)
        assert log_xi == pytest.approx(math.log(b / b_hat), rel=1e-12)


@pytest.mark.parametrize("kind", ["gamma", "normal_translation", "mvnormal",
                                  "poisson_m4"])
def test_family_maps_on_a_stack_match_the_maps_of_each_point(kind):
    family, mle, _ = _case(kind)
    run = run_bootstrap(family, mle, 40, 3)
    points, p = run.points(), family.param_dim
    if run.alphas is not None:
        for fn, rows, shape in ((family.psi, run.alphas, ()),
                                (family.mean, run.alphas, (p,)),
                                (family.canonical, run.params, (p,)),
                                (family.covariance, run.alphas, (p, p))):
            stacked = fn(rows)
            assert stacked.shape == (run.B,) + shape, fn.__name__
            assert np.array_equal(stacked, [fn(row) for row in rows]), fn.__name__
    for fn in (lambda pt: family.deviance(pt, mle), lambda pt: family.deviance(mle, pt),
               lambda pt: family.log_density_ratio(pt, mle, mle)):
        stacked = fn(points)
        assert stacked.shape == (run.B,)
        assert np.array_equal(stacked, [fn(points[i]) for i in range(run.B)])


def _assert_points_equal(point, fits):
    for name in ("alpha", "eta", "mu", "beta"):
        assert np.array_equal(getattr(point, name),
                              np.array([getattr(f, name) for f in fits])), name


@pytest.mark.parametrize("degree", [4, 8])
def test_poisson_table_refits_match_the_single_fit_reference_bitwise(degree):
    family, mle, _ = _poisson_case(degree, lambda c: [])
    # two IRLS blocks, with rows that stop at different iterations
    counts = family.sample_replication(mle, Substreams(11, 300))
    fits = [reference_fit(family.x, y) for y in counts]
    assert len({f.iterations for f in fits}) > 1
    points = family.points(counts)
    _assert_points_equal(points, fits)
    _assert_points_equal(family.unflatten(points.beta),
                         [reference_fit_sufficient(family.x, b) for b in points.beta])


def test_family_skew_acceleration_matches_the_single_fit_reference_bitwise():
    centers, y = _prostate_counts()
    family = PoissonGlmFamily.from_basis(centers, 4)

    def acceleration(mle, fit_flat):
        return family_skew_acceleration(
            family, mle, lambda b: statistic_fdr(fit_flat(b).mu, 3.0, centers))

    a = acceleration(family.points(y), family.unflatten)
    assert a == acceleration(reference_fit(family.x, y),
                             lambda b: reference_fit_sufficient(family.x, b))


def test_stacked_points_index_back_to_single_points():
    family, mle, _ = _case("mvnormal")
    raw = family.sample_replication(mle, Substreams(2, 5))
    stack = family.points(raw)
    for i in range(5):
        one = family.points(raw[i])
        assert np.array_equal(stack[i].mu, one.mu)
        assert np.array_equal(stack[i].sigma, one.sigma)
    assert np.array_equal(family.flatten(stack), np.array([
        family.flatten(family.mle_from_data(row.reshape(family.n, family.d)))
        for row in raw]))


def test_inverse_wishart_prior_on_a_stack_matches_the_per_point_loop_bitwise():
    family, mle, _ = _case("mvnormal")
    run = run_bootstrap(family, mle, 2000, 15)
    points = run.points()
    for kwargs in ({}, {"scale": [[1.3, 0.2], [0.2, 0.9]], "df": 3.0}):
        stacked = log_prior_inverse_wishart(points, **kwargs)
        loop = np.array([log_prior_inverse_wishart(family.unflatten(row), **kwargs)
                         for row in run.params])
        assert stacked.shape == (run.B,)
        assert np.array_equal(stacked, loop)


def test_with_statistic_reproduces_the_drawn_column_bitwise():
    family, mle, stats = _case("mvnormal")
    run = run_bootstrap(family, mle, 800, 15, stats)
    bare = run_bootstrap(family, mle, 800, 15)
    for s in stats:
        assert np.array_equal(bare.with_statistic(s).t[s.id], run.t[s.id])


@pytest.fixture(scope="module")
def gamma_setup():
    family = GammaScaleFamily(n=20)
    return family, family.mle(1.0)


def test_expanded_proposal_rows_match_a_per_row_redraw_loop_bitwise(gamma_setup):
    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=400, master_seed=3)
    h, B, seed = 6.0, 500, 5
    wide = run_expanded_bootstrap(family, mle, B=B, master_seed=seed, pilot=pilot, h=h)
    center = pilot.params.mean(axis=0)
    chol = np.linalg.cholesky(h * np.atleast_2d(np.cov(pilot.params.T, ddof=1)))
    params, rejected = [], 0
    for i in range(B):
        rng = numpy_substream(seed, i)
        x = center + chol @ rng.standard_normal(1)
        while not family.in_expectation_space(x):
            rejected += 1
            x = center + chol @ rng.standard_normal(1)
        params.append(x)
    assert rejected > 0  # the redraw path ran
    assert wide.rejected == rejected
    assert np.array_equal(wide.params, np.array(params))


@pytest.mark.parametrize("fn", [lambda b: float(b[0]),  # a per-row statistic
                                lambda b: b,            # (B, 1), not (B,)
                                lambda b: b[:3, 0]])
def test_statistic_without_one_value_per_row_is_rejected(gamma_setup, fn):
    family, mle = gamma_setup
    bad = Statistic("per_row", fn)
    with pytest.raises(ValueError, match="'per_row'"):
        run_bootstrap(family, mle, B=20, master_seed=1, statistics=[bad])
    run = run_bootstrap(family, mle, B=20, master_seed=1)
    with pytest.raises(ValueError, match="'per_row'"):
        run.with_statistic(bad)


@pytest.mark.parametrize("fn", [lambda pt: -float(pt[0]),  # a per-row prior
                                lambda pt: -pt])           # (B, 1), not (B,)
def test_density_prior_without_one_value_per_row_is_rejected(gamma_setup, fn):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=20, master_seed=1)
    with pytest.raises(ValueError, match="'per_row_prior'"):
        importance_weights(run, Prior.from_log_density("per_row_prior", fn))
