"""Replication engine: determinism, stores, expanded proposals."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bootbayes import (CapabilityMissing, GammaScaleFamily, MvNormalFamily,
                       NumericalFailure, PoissonGlmFamily, Prior, Statistic,
                       bab_standard_error, correlation_statistic, fdr_statistic,
                       importance_weights, log_prior_inverse_wishart,
                       polynomial_basis, run_bootstrap, run_expanded_bootstrap,
                       summarize)
from bootbayes.expfam import _ROW_BLOCK
from bootbayes.sampler import (NONPARAM_STREAM_OFFSET, OUTER_STREAM_OFFSET,
                               load_store, nonparametric_resample, save_store,
                               store_digest, substream)
from bootbayes.studies import BinSpec, bin_zvalues

from conftest import (DROP, edit_store_entry, edit_store_line, identity_statistic,
                      numpy_substream)


@pytest.fixture(scope="module")
def gamma_setup():
    family = GammaScaleFamily(n=20)
    return family, family.mle(1.0)


@pytest.fixture(scope="module")
def mvn_setup():
    family = MvNormalFamily(d=2, n=22)
    rng = np.random.default_rng(0)
    rows = rng.multivariate_normal([1.0, -0.5], [[2.0, 0.6], [0.6, 1.0]], size=22)
    return family, family.mle_from_data(rows)


def test_substream_reproducible_and_distinct():
    a = substream(11, 3).normal(size=4)
    b = substream(11, 3).normal(size=4)
    c = substream(11, 4).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# substream against numpy's own SeedSequence ------------------------------------


def package_draws(rng):
    """A few values from every distribution the package draws."""
    return [rng.standard_normal((2, 3)), rng.poisson([0.5, 4.0, 300.0]),
            rng.gamma(7.0, 0.3, 3), rng.integers(0, 22, 5), rng.random(3)]


def assert_numpy_substream(seed, index):
    ours, ref = substream(seed, index), numpy_substream(seed, index)
    assert ours.bit_generator.state == ref.bit_generator.state, (seed, index)
    for a, b in zip(package_draws(ours), package_draws(ref)):
        assert a.dtype == b.dtype and np.array_equal(a, b), (seed, index)


# one to five 32-bit entropy words
SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 17]
# both sides of every power-of-two edge up to 2**34, which includes the edge
# of any hashing block and of the 32-bit word, and one to three index words
EDGE_INDICES = sorted({0, 1} | {e + d for e in (2**j for j in range(1, 35))
                                for d in (-1, 0)} | {2**64 - 1, 2**64, 2**64 + 1})
# 2**61 starts the unused substream block
STREAM_BLOCK_INDICES = [offset + d
                        for offset in (2**61, NONPARAM_STREAM_OFFSET,
                                       OUTER_STREAM_OFFSET)
                        for d in (-3, -2, -1, 0, 1, 2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_substream_is_numpys_seed_sequence_generator(seed):
    for index in EDGE_INDICES + STREAM_BLOCK_INDICES:
        assert_numpy_substream(seed, index)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**200), index=st.integers(0, 2**70))
def test_substream_matches_numpy_at_random_seeds_and_indices(seed, index):
    assert_numpy_substream(seed, index)


def test_substream_accepts_numpy_integers():
    assert_numpy_substream(np.int64(15), np.uint64(2**63 + 5))


# a bool would draw as 0 or 1, and a float cannot name a substream
@pytest.mark.parametrize("seed,index,message", [
    (-1, 0, "master_seed must be an integer of at least 0, got -1"),
    (0, -1, "index must be an integer of at least 0, got -1"),
    (-(2**40), 3, "master_seed must be an integer of at least 0, got -1099511627776"),
    (True, 0, "master_seed must be an integer of at least 0, got True"),
    (0, True, "index must be an integer of at least 0, got True"),
    (1.0, 0, "master_seed must be an integer of at least 0, got 1.0")],
    ids=["-1-0", "0--1", "-1099511627776-3", "True-0", "0-True", "1.0-0"])
def test_substream_rejects_negative_seeds_and_indices(seed, index, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        substream(seed, index)


def test_runs_bitwise_reproducible(gamma_setup):
    family, mle = gamma_setup
    r1 = run_bootstrap(family, mle, B=200, master_seed=42,
                       statistics=[identity_statistic()])
    r2 = run_bootstrap(family, mle, B=200, master_seed=42,
                       statistics=[identity_statistic()])
    assert np.array_equal(r1.params, r2.params)
    assert np.array_equal(r1.delta, r2.delta)
    assert np.array_equal(r1.statistic_values("identity"),
                          r2.statistic_values("identity"))


@pytest.fixture(scope="module")
def poisson_setup():
    centers = np.linspace(-2, 2, 12)
    family = PoissonGlmFamily.from_basis(centers, 3)
    y = np.round(200 * np.exp(-0.5 * centers**2)) + 3.0
    return family, family.points(y), fdr_statistic(1.0, centers)


@pytest.fixture(scope="module")
def poisson_m4_setup(synthetic_zvalues):
    # the 49 bins of the prostate study
    spec = BinSpec()
    family = PoissonGlmFamily.from_basis(spec.centers, 4)
    return (family, family.points(bin_zvalues(synthetic_zvalues, spec)[0]),
            fdr_statistic(3.0, spec.centers))


@pytest.mark.parametrize("setup, seed", [("gamma", 7), ("mvnormal", 7),
                                         ("poisson_glm", 7), ("poisson_m4", 11)])
def test_smaller_run_is_a_prefix_of_a_larger_one(setup, seed, gamma_setup, mvn_setup,
                                                 poisson_setup, poisson_m4_setup):
    # every stored column of row i depends on (seed, i) alone, whatever the
    # block the row falls in, and so does a row redrawn from its substream
    family, mle, stat = {
        "gamma": gamma_setup + (identity_statistic(),),
        "mvnormal": mvn_setup + (correlation_statistic(),),
        "poisson_glm": poisson_setup,
        "poisson_m4": poisson_m4_setup,
    }[setup]
    large = run_bootstrap(family, mle, B=2500, master_seed=seed, statistics=[stat])

    def columns(run):
        return run.params, run.alphas, run.delta, run.log_xi, run.t[stat.id]

    def assert_rows(got, rows):
        for name, a, b in zip(["params", "alphas", "delta", "log_xi", stat.id],
                              got, columns(large)):
            assert (a is None and b is None) or np.array_equal(a, b[rows]), name

    # runs and rows on either side of the block edges the sampler uses
    block = _ROW_BLOCK
    for B in (block // 3, block + 1, 3 * block - 1, 2 * block + 1):
        assert_rows(columns(run_bootstrap(family, mle, B=B, master_seed=seed,
                                          statistics=[stat])), slice(B))
    for i in (0, block - 1, block, 2499):
        point = family.points(family.sample_replication(mle, [substream(seed, i)]))
        assert_rows((family.flatten(point), family.alpha_of(point),
                     family.delta(point, mle), family.log_xi(point, mle),
                     stat.column(point, 1)), slice(i, i + 1))


def test_run_id_stable_and_sensitive(gamma_setup):
    family, mle = gamma_setup
    a = run_bootstrap(family, mle, B=50, master_seed=1)
    b = run_bootstrap(family, mle, B=50, master_seed=1)
    c = run_bootstrap(family, mle, B=50, master_seed=2)
    d = run_bootstrap(family, mle, B=60, master_seed=1)
    assert a.run_id == b.run_id
    assert len({a.run_id, c.run_id, d.run_id}) == 3


def test_weights_of_a_run_at_another_estimate_are_refused():
    family = GammaScaleFamily(n=20)
    run_a, run_b = (run_bootstrap(family, family.mle(beta), B=200, master_seed=3,
                                  statistics=[identity_statistic()])
                    for beta in (1.0, 2.0))
    assert run_a.run_id != run_b.run_id
    with pytest.raises(ValueError, match="weights built for run"):
        summarize(run_b, importance_weights(run_a, Prior.jeffreys()), "identity")


def test_unknown_statistic_lookup_names_the_known_ids(gamma_setup):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=20, master_seed=3,
                        statistics=[identity_statistic()])
    with pytest.raises(ValueError, match="identity"):
        run.statistic_values("nope")
    bare = run_bootstrap(family, mle, B=20, master_seed=3)
    with pytest.raises(ValueError, match=r"\(none\)"):
        bare.statistic_values("identity")


def test_with_statistic_appends_a_recomputed_column(gamma_setup):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=30, master_seed=4)
    doubled = run.with_statistic(Statistic("twice", lambda b: 2.0 * b[..., 0]))
    assert np.array_equal(doubled.statistic_values("twice"), 2.0 * run.params[:, 0])
    assert "twice" not in run.t  # original untouched


def test_duplicate_statistic_ids_rejected(gamma_setup):
    family, mle = gamma_setup
    with pytest.raises(ValueError, match="duplicate"):
        run_bootstrap(family, mle, B=10, master_seed=5,
                      statistics=[identity_statistic(), identity_statistic()])
    # an overwritten column would keep the run's id, so weights built
    # before it would still pass as this run's
    run = run_bootstrap(family, mle, B=10, master_seed=5,
                        statistics=[identity_statistic()])
    column = run.t["identity"].copy()
    with pytest.raises(ValueError, match=re.escape(
            "duplicate statistic ids: ['identity', 'identity']")):
        run.with_statistic(Statistic("identity", lambda b: 2.0 * b[..., 0]))
    assert np.array_equal(run.t["identity"], column)


# numpy integers are taken as B and seed, and the run holds them as ints
@pytest.mark.parametrize("B, seed", [(80, 21), (np.int64(80), np.uint64(21))],
                         ids=["int", "numpy"])
def test_store_round_trip_is_lossless_gamma(gamma_setup, tmp_path, B, seed):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=B, master_seed=seed,
                        statistics=[identity_statistic()])
    assert type(run.B) is int and type(run.master_seed) is int
    path = tmp_path / "store.csv"
    save_store(run, path)
    back = load_store(path)
    assert back.family.family_id == run.family.family_id
    assert (back.B, back.master_seed) == (run.B, run.master_seed) == (80, 21)
    assert back.proposal_tag == run.proposal_tag
    assert np.array_equal(back.params, run.params)
    assert np.array_equal(back.alphas, run.alphas)
    assert np.array_equal(back.delta, run.delta)
    assert np.array_equal(back.log_xi, run.log_xi)
    assert np.array_equal(back.statistic_values("identity"),
                          run.statistic_values("identity"))
    assert back.run_id == run.run_id


@pytest.mark.parametrize("sid", ["a,b", "x\ny", "x\r", "x "])
def test_store_refuses_an_id_it_cannot_hold(gamma_setup, tmp_path, sid):
    # each id would split or change its header column on reading, so the
    # store is refused before any file is written
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=10, master_seed=4,
                        statistics=[replace(identity_statistic(), id=sid)])
    path = tmp_path / "store.csv"
    with pytest.raises(ValueError, match=re.escape(f"statistic id {sid!r}")):
        save_store(run, path)
    assert not path.exists()


def test_store_round_trips_a_plain_id(gamma_setup, tmp_path):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=10, master_seed=4,
                        statistics=[replace(identity_statistic(), id="x y#1")])
    path = tmp_path / "store.csv"
    save_store(run, path)
    assert np.array_equal(load_store(path).statistic_values("x y#1"),
                          run.statistic_values("x y#1"))


def test_store_round_trip_is_lossless_mvn(mvn_setup, tmp_path):
    family, mle = mvn_setup
    run = run_bootstrap(family, mle, B=60, master_seed=8,
                        statistics=[correlation_statistic()])
    path = tmp_path / "mvn.csv"
    save_store(run, path)
    back = load_store(path)
    assert np.array_equal(back.params, run.params)
    assert back.alphas is None
    assert np.array_equal(back.statistic_values("correlation"),
                          run.statistic_values("correlation"))
    # the reloaded estimate reproduces the stored conversion columns
    redone = np.array([family.delta(pt, back.mle) for pt in back.points()[:10]])
    assert np.array_equal(redone, back.delta[:10])


@pytest.mark.parametrize("columns, with_centers", [
    (range(9), False), (range(9), True), ([0, 1, 2, 3, 4, 5, 6, 8, 7], True)],
    ids=["design", "centers", "other-design-with-centers"])
def test_store_round_trip_keeps_a_poisson_family_and_its_fits(columns,
                                                              with_centers,
                                                              tmp_path):
    # a family on the polynomial basis of its centers is stored as the
    # centers and the basis degree, any other one as its design matrix
    centers = np.linspace(-2, 2, 12)
    x = polynomial_basis(centers, 8)[:, list(columns)]
    family = PoissonGlmFamily(x, centers=centers if with_centers else None)
    meta = family.meta()
    if with_centers and list(columns) == list(range(9)):
        assert "x" not in meta and meta["degree"] == 8
    else:
        assert "degree" not in meta and np.array_equal(meta["x"], x)
    y = np.round(200 * np.exp(-0.5 * centers**2)) + 3.0
    run = run_bootstrap(family, family.points(y), B=40, master_seed=9)
    path = tmp_path / "poisson.csv"
    save_store(run, path)
    back = load_store(path)
    assert back.family.family_id == family.family_id == "poisson_glm(p=9,J=12)"
    assert np.array_equal(back.family.x, x)
    assert back.family.meta() == meta
    for column in ("params", "alphas", "delta", "log_xi"):
        assert np.array_equal(getattr(back, column), getattr(run, column)), column
    assert np.array_equal(back.mle.beta, run.mle.beta)
    assert np.array_equal(back.points().mu, run.points().mu)


def test_a_reloaded_run_reports_the_numbers_of_the_stored_run_bitwise(
        eigenratio_run, tmp_path):
    path = tmp_path / "eigenratio.csv"
    save_store(eigenratio_run, path)
    back = load_store(path)
    for prior in (Prior.jeffreys(),
                  Prior.from_log_density("inverse_wishart", log_prior_inverse_wishart)):
        here, there = (summarize(r, importance_weights(r, prior), "eigenratio")
                       for r in (eigenratio_run, back))
        assert here.mean == there.mean, prior.id
        assert tuple(here.interval) == tuple(there.interval), prior.id
        assert here.cv_internal == there.cv_internal, prior.id
        assert here.mc_se == there.mc_se, prior.id
        assert here.weights.khat == there.weights.khat, prior.id
        bab = [bab_standard_error(r, importance_weights(r, prior), "eigenratio",
                                  K=20, master_seed=15) for r in (eigenratio_run, back)]
        assert np.array_equal(bab[0].q_values, bab[1].q_values), prior.id


def test_store_rows_match_per_value_formatting(gamma_setup, tmp_path):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=6, master_seed=3,
                        statistics=[identity_statistic()])
    extreme = np.array([-0.0, 0.0, 5e-324, -1.7976931348623157e308,
                        1e-300, 0.1, -2.5e17, 123456789.0])
    params = extreme[:6, None]
    t = np.append(extreme[:5], np.inf)
    run = replace(run, params=params, alphas=-params[::-1], delta=extreme[2:],
                  log_xi=-extreme[:6], t={"identity": t})
    path = tmp_path / "extreme.csv"
    save_store(run, path)
    table = np.hstack([params, -params[::-1], extreme[2:, None],
                       -extreme[:6, None], t[:, None]])
    rows = [f"{i}," + ",".join("%.17g" % v for v in table[i]) for i in range(6)]
    lines = path.read_text().split("\n")
    assert lines[2:] == rows + [""]
    assert "-0" in lines[2].split(",") and "4.9406564584124654e-324" in lines[4]
    back = load_store(path)
    assert np.array_equal(back.params, params)
    assert np.signbit(back.params[0, 0]) and not np.signbit(back.params[1, 0])


def test_store_rejects_mismatched_family(gamma_setup, tmp_path):
    # the family id the store names must be that of its family metadata
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=10, master_seed=1)
    path = tmp_path / "g.csv"
    save_store(run, path)
    bad = edit_store_entry(path, "family_id", tmp_path / "bad.csv",
                           GammaScaleFamily(n=7).family_id)
    with pytest.raises(ValueError, match="does not match"):
        load_store(bad)


def test_store_rejects_damaged_files(gamma_setup, tmp_path):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=10, master_seed=1)
    good = tmp_path / "good.csv"
    save_store(run, good)

    headless = tmp_path / "headless.csv"
    headless.write_text("\n".join(good.read_text().splitlines()[1:]) + "\n")
    with pytest.raises(ValueError, match="metadata"):
        load_store(headless)

    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(good.read_text().splitlines()[:-3]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        load_store(truncated)


@pytest.mark.parametrize("name, value", [
    *(pytest.param(name, DROP, id=name)
      for name in ["delta", "beta_1", "t_identity", "B", "mle"]),
    # entries of the wrong type
    ("family_meta", 5), ("mle", [1.0]), ("B", None), ("B", 10.0),
    ("master_seed", -1), ("statistics", None), ("statistics", [1]),
    ("rejected", None), ("proposal_tag", 5), ("proposal_tag", None),
    # entries that cannot build the family or the estimate
    ("mle", {"beta_hat": {}}), ("mle", {"beta_hat": "x"}),
    ("family_meta", {"family": "gamma_scale", "n": "20"}),
    # lines that do not parse, by line number and edit: a metadata line that
    # is not JSON, a cell that is not a number, a row short of a column
    pytest.param(0, lambda line: line.replace('"', "", 1), id="metadata-not-json"),
    pytest.param(4, lambda line: line.rsplit(",", 1)[0] + ",abc", id="text-cell"),
    pytest.param(4, lambda line: line.rsplit(",", 1)[0], id="short-row")])
def test_store_missing_a_column_or_key_is_an_input_error(gamma_setup, tmp_path, name,
                                                         value):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=10, master_seed=1,
                        statistics=[identity_statistic()])
    good = tmp_path / "good.csv"
    save_store(run, good)
    if isinstance(name, int):
        bad, fault = edit_store_line(good, name, tmp_path / "bad.csv", value), ": "
    else:
        bad = edit_store_entry(good, name, tmp_path / "bad.csv", value)
        fault = (f", no '{name}'" if value is DROP else
                 "" if isinstance(value, dict) else f", '{name}' must")
    with pytest.raises(ValueError, match=rf"bad\.csv: malformed store{fault}"):
        load_store(bad)


def test_store_with_a_foreign_metadata_line_or_header_is_an_input_error(
        gamma_setup, tmp_path):
    family, mle = gamma_setup
    good = tmp_path / "good.csv"
    save_store(run_bootstrap(family, mle, B=10, master_seed=1), good)
    first, header, *rows = good.read_text().splitlines()
    listed = tmp_path / "listed.csv"
    listed.write_text("\n".join(["# [1]", header, *rows]) + "\n")
    with pytest.raises(ValueError, match="unsupported store format None"):
        load_store(listed)
    wide = tmp_path / "wide.csv"
    wide.write_text("\n".join([first, header + ",t_extra", *rows]) + "\n")
    with pytest.raises(ValueError, match="6 column names, 5 columns"):
        load_store(wide)


def test_store_digest_tracks_content(gamma_setup, tmp_path):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=10, master_seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_store(run, p1)
    save_store(run, p2)
    assert store_digest(p1) == store_digest(p2)
    assert len(store_digest(p1)) == 16
    save_store(run_bootstrap(family, mle, B=10, master_seed=2), p2)
    assert store_digest(p1) != store_digest(p2)


def test_gamma_delta_column_recomputable_exactly(gamma_setup):
    family, mle = gamma_setup
    run = run_bootstrap(family, mle, B=40, master_seed=6)
    redone = np.array([family.delta(pt, mle) for pt in run.points()])
    assert np.array_equal(redone, run.delta)


# expanded proposal ------------------------------------------------------------


@pytest.fixture(scope="module")
def expanded_pair(gamma_setup):
    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=400, master_seed=3,
                          statistics=[identity_statistic()])
    wide = run_expanded_bootstrap(family, mle, B=500, master_seed=5, pilot=pilot,
                                  h=4.0, statistics=[identity_statistic()])
    return family, mle, pilot, wide


def test_expanded_run_carries_tag_and_correction(expanded_pair):
    _, _, _, wide = expanded_pair
    assert wide.proposal_tag == "expanded(4)"
    assert wide.log_prop_corr is not None
    assert wide.log_prop_corr.shape == (500,)
    assert np.all(np.isfinite(wide.log_prop_corr))


def test_expanded_store_round_trip_keeps_the_proposal_bitwise(expanded_pair,
                                                             tmp_path):
    _, _, _, wide = expanded_pair
    path = tmp_path / "wide.csv"
    save_store(wide, path)
    back = load_store(path)
    assert np.array_equal(back.log_prop_corr, wide.log_prop_corr)
    assert back.rejected == wide.rejected
    assert back.proposal_tag == wide.proposal_tag == "expanded(4)"
    density = Prior.from_log_density("inverse", lambda b: -np.log(b[..., 0]))
    for prior in (Prior.flat(), density):
        assert np.array_equal(importance_weights(back, prior).w,
                              importance_weights(wide, prior).w), prior.id


def test_expanded_correction_rows_match_their_definition(expanded_pair):
    family, mle, pilot, wide = expanded_pair
    center = pilot.params.mean(axis=0)
    cov = 4.0 * np.cov(pilot.params.T, ddof=1).reshape(1, 1)
    for i in (0, 123, 499):
        beta_i = wide.params[i]
        log_g = stats.multivariate_normal.logpdf(beta_i, mean=center, cov=cov)
        expect = (-0.5 * family.deviance(beta_i, mle)
                  - wide.log_xi[i] - log_g)
        assert wide.log_prop_corr[i] == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_expanded_total_weight_is_density_ratio_up_to_a_constant(expanded_pair):
    # delta - deviance/2 telescopes, so lw - [logpdf(mle; beta_i) - log g - log xi]
    # must be the same constant for every replication
    family, mle, pilot, wide = expanded_pair
    n = family.n
    center = pilot.params.mean(axis=0)
    cov = 4.0 * np.cov(pilot.params.T, ddof=1).reshape(1, 1)
    lw = wide.delta + wide.log_prop_corr
    betas = wide.params[:, 0]
    log_g = stats.multivariate_normal.logpdf(wide.params, mean=center, cov=cov)
    ref = (stats.gamma.logpdf(1.0, a=n, scale=betas / n)
           - log_g - wide.log_xi)
    shift = lw - ref
    assert np.ptp(shift) < 1e-10


def test_expanded_posterior_agrees_with_standard_run(gamma_setup):
    from bootbayes.posterior import Prior, importance_weights, summarize

    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=400, master_seed=3,
                          statistics=[identity_statistic()])
    wide = run_expanded_bootstrap(family, mle, B=4000, master_seed=5, pilot=pilot,
                                  h=4.0, statistics=[identity_statistic()])
    plain = run_bootstrap(family, mle, B=4000, master_seed=5,
                          statistics=[identity_statistic()])
    means, ses = [], []
    for run in (wide, plain):
        w = importance_weights(run, Prior.jeffreys())
        post = summarize(run, w, "identity")
        means.append(post.mean)
        ses.append(post.mc_se)
    band = 3.0 * float(np.hypot(*ses))
    assert abs(means[0] - means[1]) < band


# a bool or a float count or seed could not be stored and read back
@pytest.mark.parametrize("B, seed, message", [
    (True, 1, "B must be an integer of at least 1, got True"),
    (10.0, 1, "B must be an integer of at least 1, got 10.0"),
    (10, True, "master_seed must be an integer of at least 0, got True"),
    (10, 1.0, "master_seed must be an integer of at least 0, got 1.0")],
    ids=["B-bool", "B-float", "seed-bool", "seed-float"])
def test_a_run_takes_a_whole_count_and_seed(gamma_setup, B, seed, message):
    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=20, master_seed=3)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_bootstrap(family, mle, B=B, master_seed=seed)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_expanded_bootstrap(family, mle, B=B, master_seed=seed, pilot=pilot)


def test_expanded_rejects_tiny_pilot(gamma_setup):
    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=1, master_seed=3)
    with pytest.raises(ValueError, match="pilot"):
        run_expanded_bootstrap(family, mle, B=50, master_seed=5, pilot=pilot)


def test_expanded_refuses_a_family_that_stores_no_alphas(mvn_setup):
    family, mle = mvn_setup
    pilot = run_bootstrap(family, mle, B=20, master_seed=3)
    with pytest.raises(CapabilityMissing, match="canonical coordinates"):
        run_expanded_bootstrap(family, mle, B=20, master_seed=5, pilot=pilot)


def test_expanded_rejection_cap_trips_for_absurd_widths(gamma_setup):
    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=400, master_seed=3)
    with pytest.raises(NumericalFailure, match="rejection"):
        run_expanded_bootstrap(family, mle, B=200, master_seed=5, pilot=pilot,
                               h=4000.0)


def test_expanded_h_tag_override(gamma_setup):
    family, mle = gamma_setup
    pilot = run_bootstrap(family, mle, B=400, master_seed=3)
    narrow = run_expanded_bootstrap(family, mle, B=40, master_seed=5,
                                    pilot=pilot, h=2.5)
    assert narrow.proposal_tag == "expanded(2.5)"


# nonparametric resampling ----------------------------------------------------


def test_nonparametric_counts_conserve_sample_size():
    values = np.arange(10.0)
    edges = np.array([-0.5, 4.5, 9.5])
    binner = lambda v: np.histogram(v, bins=edges)[0]
    rows = nonparametric_resample(values, B=25, master_seed=17, binner=binner)
    assert rows.shape == (25, 2)
    assert np.all(rows.sum(axis=1) == 10)


def test_nonparametric_deterministic_and_offset_separated():
    values = np.arange(10.0)
    binner = lambda v: np.histogram(v, bins=np.array([-0.5, 4.5, 9.5]))[0]
    a = nonparametric_resample(values, B=5, master_seed=17, binner=binner)
    b = nonparametric_resample(values, B=5, master_seed=17, binner=binner)
    assert np.array_equal(a, b)

    # row i resamples from substream i of the nonparametric block, not from
    # the parametric replication's substream i
    def rows(offset):
        return np.array([binner(values[substream(17, offset + i).integers(0, 10, 10)])
                         for i in range(5)])

    assert np.array_equal(a, rows(NONPARAM_STREAM_OFFSET))
    assert not np.array_equal(a, rows(0))


def test_nonparametric_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        nonparametric_resample(np.array([]), B=3, master_seed=1,
                               binner=lambda v: v)


@pytest.mark.parametrize("B", [0, 10.0, True])
def test_nonparametric_takes_a_whole_count(B):
    with pytest.raises(ValueError, match=re.escape(
            f"B must be an integer of at least 1, got {B!r}")):
        nonparametric_resample(np.arange(5.0), B=B, master_seed=1,
                               binner=lambda v: v)
