"""Tables, not rows: one raw draw per replication, then everything over a
block of rows at a time, checked bitwise against a per-row reference loop,
and the working memory of the table stages."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bootbayes import (CapabilityMissing, GammaScaleFamily, GlmFit, MvNormalFamily,
                       MvnParam, NormalTranslationFamily, PoissonGlmFamily, Prior,
                       Statistic, aic_profiles, correlation_statistic,
                       eigenratio_statistic, family_skew_acceleration,
                       fdr_statistic, importance_weights,
                       log_prior_inverse_wishart, polynomial_basis,
                       Substreams, run_bootstrap, run_expanded_bootstrap,
                       save_store, select_degrees)
from bootbayes import glm, sampler
from bootbayes.expfam import _ROW_BLOCK
from bootbayes.glm import _gemm_step, _irls, _rate_start
from bootbayes.sampler import load_store
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
    alpha = family.canonical_of(at)
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
    substream."""
    params, alphas, delta, log_xi = [], [], [], []
    t = {s.id: [] for s in stats}
    for i in range(B):
        point = reference_point(family, mle, numpy_substream(seed, i))
        params.append(family.flatten(point))
        alphas.append(reference_alpha(family, point))
        delta.append(family.delta(point, mle))
        log_xi.append(family.log_xi(point, mle))
        for s in stats:
            t[s.id].append(float(s(point)))
    return {"params": np.array(params),
            "alphas": None if alphas[0] is None else np.array(alphas),
            "delta": np.array(delta), "log_xi": np.array(log_xi),
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
                                         ("poisson_m8", 60, 11),
                                         # more rows than one table block
                                         ("gamma", 1025, 5),
                                         ("mvnormal", 2100, 15),
                                         ("poisson_m8", 1100, 11),
                                         # a one-row last block
                                         ("poisson_m4", 2049, 11)])
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
                                  "mvnormal_d3", "poisson_m4", "poisson_m8"])
def test_family_maps_on_a_stack_match_the_maps_of_each_point(kind):
    family, mle, _ = _case(kind)
    run = run_bootstrap(family, mle, 40, 3)
    points, p = run.points(), family.param_dim
    maps = [(family.canonical_of, (p,)), (family.mean_of, (p,)),
            (family.psi_of, ()), (family.covariance_of, (p, p))]
    if isinstance(family, MvNormalFamily):
        with pytest.raises(CapabilityMissing):
            family.covariance_of(points)
        maps.pop()
    for fn, shape in maps:
        stacked = fn(points)
        assert stacked.shape == (run.B,) + shape, fn.__name__
        assert np.array_equal(stacked, [fn(points[i]) for i in range(run.B)]), fn.__name__
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


def whole_table_ladder(basis_full, betas, degrees):
    """aic_profiles with the degree ladder outside the blocks: each degree
    over the whole table, _ROW_BLOCK rows per IRLS call, warm-started from
    the fits of the degree below."""
    degrees = np.asarray(degrees)
    out, eta = np.empty((betas.shape[0], degrees.size)), None
    for m in np.unique(degrees):
        x, beta = basis_full[:, : m + 1], betas[:, : m + 1]
        start = _rate_start(x, beta) if eta is None else eta
        fits = [_irls(x, beta[lo:lo + _ROW_BLOCK], start[lo:lo + _ROW_BLOCK], lo,
                      _gemm_step(x))[:3]
                for lo in range(0, beta.shape[0], _ROW_BLOCK)]
        alpha, eta, mu = (np.concatenate(parts) for parts in zip(*fits))
        loglik = np.einsum("ij,ij->i", beta, alpha) - mu.sum(axis=1)
        out[:, degrees == m] = (-2.0 * loglik + 2.0 * (m + 1))[:, None]
    return out


@pytest.mark.parametrize("B", [300, 1100])
def test_aic_profiles_match_the_whole_table_ladder_bitwise(B):
    family, mle, _ = _poisson_case(8, lambda c: [])
    betas = family.sample_replication(mle, Substreams(11, B)) @ family.x
    degrees = [4, 2, 3, 5, 6, 7, 8]
    assert np.array_equal(aic_profiles(family.x, betas, degrees),
                          whole_table_ladder(family.x, betas, degrees))


class ReferenceFitFamily(PoissonGlmFamily):
    """The Poisson family with unflatten replaced by the single-fit reference."""

    def unflatten(self, vec):
        return reference_fit_sufficient(self.x, vec)


def test_family_skew_acceleration_matches_the_single_fit_reference_bitwise():
    centers, y = _prostate_counts()
    family = PoissonGlmFamily.from_basis(centers, 4)
    reference = ReferenceFitFamily.from_basis(centers, 4)
    fdr = fdr_statistic(3.0, centers)
    a = family_skew_acceleration(family, family.points(y), fdr)
    assert a == family_skew_acceleration(reference, reference_fit(family.x, y), fdr)


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


@pytest.fixture
def fit_calls(monkeypatch):
    """The row count of every glm._fit_table call made while the test runs."""
    calls, fit_table = [], glm._fit_table

    def counted(x, beta, eta, table=True):
        calls.append(beta.shape[0])
        return fit_table(x, beta, eta, table)

    monkeypatch.setattr(glm, "_fit_table", counted)
    return calls


@pytest.mark.parametrize("degree", [4, 8])
def test_poisson_points_are_the_stored_fits(degree, fit_calls, tmp_path):
    # a statistic attached later is evaluated on the fits the run tabulated,
    # with their bits, and fits nothing again
    family, mle, stats = _poisson_case(degree, lambda c: [fdr_statistic(3.0, c)])
    run = run_bootstrap(family, mle, 4000, 11, stats)
    save_store(run, tmp_path / "store.csv")
    back = load_store(tmp_path / "store.csv")
    fit_calls.clear()
    for r in (run, back):
        bare = replace(r, t={})
        assert np.array_equal(bare.with_statistic(stats[0]).t["fdr_3"], run.t["fdr_3"])
    assert fit_calls == []


def test_expanded_poisson_run_fits_only_its_row_blocks(fit_calls):
    family, mle, _ = _poisson_case(4, lambda c: [])
    pilot = run_bootstrap(family, mle, 400, 1)
    fit_calls.clear()
    wide = run_expanded_bootstrap(family, mle, 4000, 3, pilot, h=2.0)
    full, rest = divmod(4000, _ROW_BLOCK)
    assert fit_calls == [_ROW_BLOCK] * full + [rest] * (rest > 0)
    # the stored points are the fits of the drawn sufficient vectors, bit for
    # bit, so the importance correction is that of a refit table
    refit, points = family.unflatten(wide.params), wide.points()
    for name in ("alpha", "eta", "mu", "beta"):
        assert np.array_equal(getattr(points, name), getattr(refit, name)), name


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


def _traced_peak(fn, *args):
    """fn(*args) and the peak memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def traced_mvn_run():
    family, mle, _ = _case("mvnormal")
    return _traced_peak(run_bootstrap, family, mle, 40_000, 15)


def test_mvn_run_peaks_below_one_raw_table(traced_mvn_run):
    run, peak = traced_mvn_run
    # the (B, n * d) table of drawn observations, 13.4 MiB here
    assert peak < run.B * run.family.n * run.family.d * 8


def test_store_write_peaks_below_half_its_file_size(traced_mvn_run, tmp_path):
    run, _ = traced_mvn_run
    path = tmp_path / "store.csv"
    _, peak = _traced_peak(save_store, run, path)
    assert peak < path.stat().st_size / 2


def test_aic_profiles_peak_below_one_count_table():
    family, mle, _ = _poisson_case(8, lambda c: [])
    betas = family.sample_replication(mle, Substreams(11, 16_000)) @ family.x
    _, peak = _traced_peak(aic_profiles, family.x, betas, range(2, 9))
    # the (B, J) table of counts, 6.0 MiB here
    assert peak < betas.shape[0] * family.x.shape[0] * 8


@pytest.mark.parametrize("kind", ["poisson_m8", "mvnormal"])
def test_the_row_block_sets_only_the_working_memory(kind, monkeypatch, tmp_path):
    # every pass over a table takes expfam's one row block, which sampler and
    # glm import by name; tables, stores and selected degrees keep their bits
    # at any block, including one that does not divide B.  AIC values are not
    # compared: the GEMM sums of aic_profiles depend on the block.
    if kind == "mvnormal":
        family, mle, stats = _case(kind)
    else:
        family, mle, stats = _poisson_case(8, lambda c: [fdr_statistic(3.0, c)])
    outputs = []
    for block in (1024, 256, 300):
        for module in (glm, sampler):
            monkeypatch.setattr(module, "_ROW_BLOCK", block)
        run = run_bootstrap(family, mle, 2500, 15, stats)
        path = tmp_path / f"store_{block}.csv"
        save_store(run, path)
        degrees = None if kind == "mvnormal" else select_degrees(
            aic_profiles(family.x, run.params, range(2, 9)), range(2, 9))
        outputs.append((run, path.read_bytes(), degrees))
    (first, store, degrees), *others = outputs
    for run, other_store, other_degrees in others:
        for name in ("params", "alphas", "delta", "log_xi"):
            assert np.array_equal(getattr(run, name), getattr(first, name)), name
        assert run.t.keys() == first.t.keys()
        for sid in first.t:
            assert np.array_equal(run.t[sid], first.t[sid]), sid
        assert other_store == store
        assert np.array_equal(other_degrees, degrees)
