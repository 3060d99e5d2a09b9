"""Tables, not rows: one raw draw per replication, then everything over the
whole table, checked bitwise against a per-row reference loop."""

import numpy as np
import pytest

from bootbayes import (GammaScaleFamily, MvNormalFamily, MvnParam,
                       NormalTranslationFamily, PoissonGlmFamily, Prior,
                       Statistic, correlation_statistic, eigenratio_statistic,
                       fdr_statistic, importance_weights,
                       log_prior_inverse_wishart, polynomial_basis,
                       run_bootstrap, selected_degree_statistic, substream)
from bootbayes.studies import BinSpec, bin_zvalues, load_scores

from conftest import identity_statistic


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
        return family.fit(rng.poisson(at.mu).astype(float))
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
    replication at a time; the conversion terms then take the whole table."""
    params, alphas = [], []
    t = {s.id: [] for s in stats}
    for i in range(B):
        point = reference_point(family, mle, substream(seed, i))
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


def _poisson_case(degree, stats):
    spec = BinSpec()
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 2000), rng.normal(3.2, 1.0, 100)])
    family = PoissonGlmFamily.from_basis(spec.centers, degree)
    return family, family.fit(bin_zvalues(z, spec)[0]), stats(spec.centers)


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
    if kind == "poisson_m4":
        return _poisson_case(4, lambda c: [fdr_statistic(3.0, c)])
    return _poisson_case(8, lambda c: [fdr_statistic(3.0, c), selected_degree_statistic(
        polynomial_basis(c, 8))])


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


def test_stacked_points_index_back_to_single_points():
    family, mle, _ = _case("mvnormal")
    raw = np.array([family.sample_replication(mle, substream(2, i)) for i in range(5)])
    stack = family.points(raw)
    for i in range(5):
        one = family.points(raw[i])
        assert np.array_equal(stack[i].mu, one.mu)
        assert np.array_equal(stack[i].sigma, one.sigma)
    assert np.array_equal(family.flatten(stack), raw)


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
