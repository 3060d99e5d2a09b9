"""Bootstrap-after-bootstrap in one pass, checked bitwise against a reference
loop that redoes every piece of per-draw work: the canonical MvN multiplier
(alpha_i - alpha_hat)'(beta(gamma) - beta_hat), both differences rebuilt
from the points, and a fresh weighted quantile, sort included, on every
outer draw."""

import re
from dataclasses import replace

import numpy as np
import pytest

from bootbayes import (MvNormalFamily, PoissonGlmFamily, Prior, aic_profiles,
                       bab_standard_error, bab_standard_errors,
                       correlation_statistic, eigenratio_statistic,
                       fdr_statistic, glm_fit, importance_weights,
                       jackknife_standard_error, load_store, polynomial_basis,
                       run_bootstrap, save_store, select_degrees, substream,
                       weighted_quantile)
from bootbayes.sampler import OUTER_STREAM_OFFSET
from bootbayes.studies import BinSpec, bin_zvalues, load_scores


def mvn_multiplier(run):
    """The canonical multiplier with both factors recomputed for each outer
    draw, from fresh points rather than the run's cached ones."""
    fam, params, mle = run.family, run.params, run.mle
    return lambda g: ((fam.canonical_of(fam.unflatten(params)) - fam.canonical_of(mle))
                      @ (fam.mean_of(g) - fam.mean_of(mle)))


def outer_draws(run, K, seed):
    outer = run.family.points(run.family.sample_replication(
        run.mle, [substream(seed, OUTER_STREAM_OFFSET + k) for k in range(K)]))
    return [outer[k] for k in range(K)]


def reference_quantile(values, w, p):
    """The weighted quantile of posterior.weighted_quantile, sort included."""
    order = np.argsort(values, kind="stable")
    ws = w[order] / w.sum()
    return np.interp(p, np.cumsum(ws) - 0.5 * ws, values[order])


def reference_q(run, weights, t, outer, quantity, multiplier, ess_floor):
    """(q_values, n_dropped, min_ess, warnings), one outer draw at a time."""
    q_values, warnings, dropped, min_ess = [], [], 0, np.inf
    for k, gamma in enumerate(outer):
        lw = weights.log_raw + np.asarray(multiplier(gamma), dtype=float)
        m = np.max(lw)
        w = np.exp(lw - m) if np.isfinite(m) else np.zeros(lw.size)
        total = w.sum()
        if not total > 0.0:
            dropped += 1
            warnings.append(f"outer draw {k}: weights underflowed, dropped")
            continue
        w /= total
        ess = 1.0 / np.sum(w**2)
        min_ess = min(min_ess, ess)
        if ess < ess_floor:
            warnings.append(f"outer draw {k}: effective sample size {ess:.1f} "
                            f"below floor {ess_floor:.1f}")
        if quantity == "mean":
            q_values.append(float(t @ w))
        else:
            q = reference_quantile(t, w, quantity[1])
            assert weighted_quantile(t, w, quantity[1]) == q
            q_values.append(float(q))
    return np.array(q_values), dropped, float(min_ess), tuple(warnings)


def assert_report_matches(report, q, dropped, min_ess, warnings, se):
    assert np.array_equal(report.q_values, q)
    assert report.standard_error == se
    assert report.min_ess == min_ess
    assert report.n_dropped == dropped
    assert report.warnings == warnings
    assert report.n_flagged == sum("below floor" in w for w in warnings)


def bab_se(q):
    return float(np.std(q, ddof=1))


@pytest.fixture(scope="module")
def mvn_store_run(tmp_path_factory):
    scores = load_scores()
    family = MvNormalFamily(d=2, n=scores.n)
    run = run_bootstrap(family, family.mle_from_data(scores.matrix), 2000, 15,
                        [eigenratio_statistic(), correlation_statistic()])
    path = tmp_path_factory.mktemp("store") / "store.csv"
    save_store(run, path)
    return load_store(path)


@pytest.mark.parametrize("quantity", ["mean", ("quantile", 0.975)])
def test_mvn_bab_matches_the_per_draw_reference_bitwise(mvn_store_run, quantity):
    run = mvn_store_run
    weights = importance_weights(run, Prior.jeffreys())
    K, seed = 40, 15
    report = bab_standard_error(run, weights, "eigenratio", K, seed,
                                quantity=quantity)
    q, dropped, min_ess, warnings = reference_q(
        run, weights, run.t["eigenratio"], outer_draws(run, K, seed), quantity,
        mvn_multiplier(run), 0.02 * run.B)
    assert warnings  # the ESS flags are part of what is compared
    assert_report_matches(report, q, dropped, min_ess, warnings, bab_se(q))


def test_mvn_jackknife_matches_the_per_draw_reference_bitwise(mvn_store_run):
    run = mvn_store_run
    weights = importance_weights(run, Prior.jeffreys())
    rows = load_scores().matrix
    report = jackknife_standard_error(run, weights, "correlation", rows)
    outer = [run.family.mle_from_data(np.delete(rows, k, axis=0))
             for k in range(rows.shape[0])]
    q, dropped, min_ess, warnings = reference_q(
        run, weights, run.t["correlation"], outer, "mean", mvn_multiplier(run),
        0.02 * run.B)
    n = q.size
    se = float(np.sqrt((n - 1) / n * np.sum((q - q.mean()) ** 2)))
    assert_report_matches(report, q, dropped, min_ess, warnings, se)


def test_poisson_indicator_columns_share_one_outer_pass_bitwise():
    spec = BinSpec()
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 2000), rng.normal(3.2, 1.0, 100)])
    y = bin_zvalues(z, spec)[0]
    family = PoissonGlmFamily.from_basis(spec.centers, 8)
    full = polynomial_basis(spec.centers, 8)
    run = run_bootstrap(family, family.points(y), 300, 11,
                        [fdr_statistic(3.0, spec.centers)])
    degrees = range(2, 9)
    chosen = select_degrees(aic_profiles(full, run.params, degrees), degrees)
    run = replace(run, t={**run.t, **{f"deg_{m}": (chosen == m).astype(float)
                                      for m in degrees}})
    ids = ["fdr_3"] + [f"deg_{m}" for m in degrees]
    assert np.unique(chosen).size > 1
    weights = importance_weights(run, Prior.jeffreys())
    K, seed = 12, 11
    outer = outer_draws(run, K, seed)
    for quantity in ("mean", ("quantile", 0.5)):
        reports = bab_standard_errors(run, weights, ids, K, seed, quantity=quantity)
        assert list(reports) == ids
        for sid in ids:
            q, dropped, min_ess, warnings = reference_q(
                run, weights, run.t[sid], outer, quantity,
                lambda g: family.log_bab_multipliers(run, g), 0.02 * run.B)
            assert_report_matches(reports[sid], q, dropped, min_ess, warnings,
                                  bab_se(q))
            single = bab_standard_error(run, weights, sid, K, seed, quantity=quantity)
            assert single.to_dict() == reports[sid].to_dict()


def test_paper_size_model_selection_pass_keeps_one_ess_record(synthetic_zvalues):
    # the prostate study's degree-8 pass at paper size: B=4000, K=200, seed 11
    spec = BinSpec()
    y = bin_zvalues(synthetic_zvalues, spec)[0]
    full = polynomial_basis(spec.centers, 8)
    family = PoissonGlmFamily.from_basis(spec.centers, 8)
    run = run_bootstrap(family, glm_fit(full, y), 4000, 11,
                        [fdr_statistic(3.0, spec.centers)])
    degrees = range(2, 9)
    chosen = select_degrees(aic_profiles(full, run.params, degrees), degrees)
    ids = [f"deg_{m}" for m in degrees]
    run = replace(run, t={**run.t, **{f"deg_{m}": (chosen == m).astype(float)
                                      for m in degrees}})
    reports = bab_standard_errors(run, importance_weights(run, Prior.jeffreys()),
                                  ids, 200, 11)
    first = reports[ids[0]]
    assert all(reports[sid].outer_ess is first.outer_ess for sid in ids)
    assert first.ess_floor == 0.02 * 4000
    assert (first.n_outer, first.n_dropped, first.n_flagged) == (200, 0, 161)
    assert len(first.warnings) == first.n_dropped + first.n_flagged
    assert first.min_ess == 1.3621036008498149
    for sid in ids:
        assert len(reports[sid].warnings) == reports[sid].n_dropped + 161


def test_several_statistics_need_at_least_one_id(mvn_store_run):
    weights = importance_weights(mvn_store_run, Prior.jeffreys())
    with pytest.raises(ValueError, match="at least one statistic"):
        bab_standard_errors(mvn_store_run, weights, [], 4, 1)
    with pytest.raises(ValueError, match="unknown statistic"):
        bab_standard_errors(mvn_store_run, weights, ["eigenratio", "nope"], 4, 1)
    # a bare id is refused, not read as a list of one-letter ids
    with pytest.raises(ValueError, match=re.escape(
            "statistic_ids takes a list of ids, got the string 'eigenratio'; "
            "pass ['eigenratio']")):
        bab_standard_errors(mvn_store_run, weights, "eigenratio", 4, 1)
    # the outer substreams take the seed as substream does, so a bool is
    # not read as seed 1
    with pytest.raises(ValueError, match=re.escape(
            "master_seed must be an integer of at least 0, got True")):
        bab_standard_errors(mvn_store_run, weights, ["eigenratio"], 4, True)


def test_run_side_multiplier_terms_are_cached_per_run(mvn_store_run):
    run, fam = mvn_store_run, mvn_store_run.family
    d_alpha, beta_hat = run.bab_run_terms
    assert run.bab_run_terms is run.bab_run_terms
    assert d_alpha.shape == (run.B, fam.param_dim)
    # a replaced run starts fresh, so a new estimate gets its own terms
    other = fam.mle_from_data(load_scores().matrix[1:])
    moved = replace(run, mle=other)
    assert not np.array_equal(moved.bab_run_terms[0], d_alpha)
    assert np.array_equal(moved.bab_run_terms[0],
                          fam.canonical_of(moved.points()) - fam.canonical_of(other))
    assert np.array_equal(moved.bab_run_terms[1], fam.mean_of(other))
    assert np.array_equal(beta_hat, fam.mean_of(run.mle))
