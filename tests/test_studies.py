"""End-to-end case studies: datasets, binning, reports, reproducibility."""

import json

import numpy as np
import pytest

from bootbayes import (OUTER_STREAM_OFFSET, sampler,
                       aic_profiles, fisher_log_density, load_store,
                       nonparametric_resample, polynomial_basis, select_degrees)
from bootbayes.studies import (BinSpec, _bin_index, bin_zvalues, load_scores,
                               load_zvalues, study_correlation,
                               study_eigenratio, study_prostate, write_report)

from conftest import find_prostate_zfile


# datasets ----------------------------------------------------------------------


def test_builtin_scores_fixture_invariants(scores):
    assert scores.n == 22
    assert scores.matrix.shape == (22, 2)
    assert scores.mech.sum() == 810.0
    assert scores.vec.sum() == 1162.0


def test_scores_csv_round_trip(tmp_path, scores):
    path = tmp_path / "scores.csv"
    lines = ["mech,vec"] + [f"{m:g},{v:g}" for m, v in scores.matrix]
    path.write_text("\n".join(lines) + "\n")
    again = load_scores(path)
    assert np.array_equal(again.matrix, scores.matrix)


def test_scores_csv_validation(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError, match="header"):
        load_scores(bad_header)
    too_few = tmp_path / "f.csv"
    too_few.write_text("mech,vec\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="three"):
        load_scores(too_few)


def test_default_bins_cover_the_standard_range():
    spec = BinSpec()
    assert spec.count == 49
    assert spec.centers[0] == pytest.approx(-4.4)
    assert spec.centers[-1] == pytest.approx(5.2)
    assert np.allclose(np.diff(spec.centers), 0.2)


@pytest.mark.parametrize("count", [8, 30, 49, 61, 200])
def test_bin_count_is_the_number_of_centers(count):
    from bootbayes.cli import _binspec_for

    spec = _binspec_for(count)
    assert spec.count == spec.centers.size == count


def test_bin_zvalues_conserves_and_places_edges():
    spec = BinSpec()
    values = np.array([-4.3, 0.0, 5.2999, -10.0, 7.0])
    counts, out = bin_zvalues(values, spec)
    assert counts.sum() == 3 and out == 2
    # -4.3 sits on the shared edge and belongs to the upper bin, 0.0 to bin 22
    assert counts[1] == 1
    assert counts[22] == 1
    assert counts[-1] == 1  # 5.2999 just below the closed top edge
    top, _ = bin_zvalues(np.array([5.3]), spec)
    assert top[-1] == 1  # the closed upper edge itself


def test_bin_zvalues_half_open_boundaries():
    spec = BinSpec()
    lower_edge = -4.5  # first bin includes its lower edge
    counts, out = bin_zvalues(np.array([lower_edge]), spec)
    assert counts[0] == 1 and out == 0
    counts, out = bin_zvalues(np.array([-4.5 - 1e-9]), spec)
    assert out == 1


def test_load_zvalues_parses_lines(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("1.5\n\n-0.25\n3e-1\n")
    assert np.array_equal(load_zvalues(path), [1.5, -0.25, 0.3])


def test_load_zvalues_reports_bad_line_numbers(tmp_path):
    path = tmp_path / "z.txt"
    for bad in ("bogus", "nan", "inf", "-inf"):
        path.write_text(f"1.5\n\n{bad}\n")
        with pytest.raises(ValueError, match=f"z.txt:3: .*'{bad}'"):
            load_zvalues(path)
    empty = tmp_path / "e.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="no z-values"):
        load_zvalues(empty)


def test_write_report_is_deterministic(tmp_path):
    report = {"b": 1.5, "a": [2, {"x": [0, 1, 2]}]}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    write_report(report, p1)
    write_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = json.loads(p1.read_text())
    assert back == {"a": [2, {"x": [0, 1, 2]}], "b": 1.5}


# correlation study ---------------------------------------------------------------


def test_correlation_study_structure_and_outputs(tmp_path):
    out = tmp_path / "out"
    report = study_correlation(B=800, seed=3, out_dir=out)
    for key in ("study", "version", "B", "seed", "n", "level", "theta_hat",
                "exact_ci", "jeffreys_ci", "bca_ci", "z0", "a", "a_source",
                "posterior_mean", "bootstrap_mean", "bootstrap_sd", "rbd",
                "cv_internal", "ess"):
        assert key in report
    assert report["study"] == "correlation"
    assert report["B"] == 800 and report["n"] == 22
    for name in ("report.json", "store.csv", "density_raw.csv",
                 "density_jeffreys.csv", "density_bca.csv"):
        assert (out / name).is_file()
    # each stored density integrates to one on its grid
    for name in ("density_raw.csv", "density_jeffreys.csv", "density_bca.csv"):
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        width = rows[1, 0] - rows[0, 0]
        assert rows[:, 1].sum() * width == pytest.approx(1.0, abs=1e-6)


def test_correlation_study_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = study_correlation(B=400, seed=3, out_dir=a)
    r2 = study_correlation(B=400, seed=3, out_dir=b)
    assert r1 == r2
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "store.csv").read_bytes() == (b / "store.csv").read_bytes()


def test_correlation_study_full_size_anchors(correlation_report):
    report = correlation_report
    assert round(report["theta_hat"], 3) == 0.498
    assert report["posterior_mean"] == pytest.approx(0.473, abs=0.01)
    assert report["bootstrap_mean"] == pytest.approx(0.490, abs=0.01)
    assert report["rbd"]["correlation"] == pytest.approx(-0.945, abs=0.03)
    assert report["rbd"]["cv"] == pytest.approx(0.108, abs=0.02)
    assert report["rbd"]["rbd"] < 0
    assert report["exact_ci"][0] < report["theta_hat"] < report["exact_ci"][1]


def test_bootstrap_correlations_follow_the_exact_sampling_law(correlation_run,
                                                              scores):
    # Kolmogorov-Smirnov distance between the B=10000 replication empirical
    # CDF and the exact density at the observed estimate
    t = np.sort(correlation_run.statistic_values("correlation"))
    theta_hat = 0.49780749859167406
    grid = np.linspace(-0.3, 0.98, 3001)
    pdf = np.exp(fisher_log_density(grid, theta_hat, scores.n))
    cdf = np.concatenate([[0.0],
                          np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    ecdf = np.searchsorted(t, grid, side="right") / t.size
    assert np.max(np.abs(ecdf - cdf)) < 0.02


# eigenratio study ----------------------------------------------------------------


def test_eigenratio_study_structure(tmp_path):
    out = tmp_path / "out"
    report = study_eigenratio(B=800, seed=3, out_dir=out)
    assert report["study"] == "eigenratio"
    for key in ("theta_hat", "jeffreys_ci", "bca_ci", "z0", "a",
                "posterior_mean", "cv_internal", "inverse_wishart_ci",
                "inverse_wishart_mean", "ess"):
        assert key in report
    for name in ("report.json", "store.csv", "density_raw.csv",
                 "density_jeffreys.csv"):
        assert (out / name).is_file()
    # reports hold plain JSON values, written without conversion
    assert json.loads((out / "report.json").read_text()) == report


def test_eigenratio_study_full_size_anchors(eigenratio_report):
    report = eigenratio_report
    assert round(report["theta_hat"], 3) == 0.793
    assert report["posterior_mean"] == pytest.approx(0.799, abs=0.005)
    # the inverse-Wishart prior moves the interval only slightly
    jeffreys = report["jeffreys_ci"]
    iw = report["inverse_wishart_ci"]
    assert abs(iw[0] - jeffreys[0]) < 0.02
    assert abs(iw[1] - jeffreys[1]) < 0.02
    assert abs(report["inverse_wishart_mean"] - report["posterior_mean"]) < 0.01


# prostate study ------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_zvalues():
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 5500), rng.normal(3.2, 1.0, 250)])
    return z[(z > -4.4) & (z < 5.2)]


def test_prostate_study_structure(tmp_path, synthetic_zvalues):
    out = tmp_path / "out"
    report = study_prostate(synthetic_zvalues, B=400, K=24, seed=11,
                            out_dir=out)
    for key in ("study", "version", "B", "K", "seed", "level", "n_zvalues",
                "out_of_range", "bins", "fdr_threshold", "fdr_hat_m4",
                "fdr_boot_sd_m4", "fdr_jeffreys_ci_m4", "fdr_bca_ci_m4",
                "fdr_posterior_mean_m4", "fdr_bab_se_m4", "fdr_hat_m8",
                "fdr_jeffreys_ci_m8", "z0", "a", "a_source", "model_table"):
        assert key in report
    table = report["model_table"]
    assert table["degrees"] == [2, 3, 4, 5, 6, 7, 8]
    for col in ("boot_pct", "bayes_pct", "nonparam_pct"):
        assert sum(table[col]) == pytest.approx(100.0, abs=1e-9)
    # richer models never fit worse
    assert all(d1 >= d2 - 1e-9 for d1, d2 in zip(table["deviance"],
                                                 table["deviance"][1:]))
    assert len(table["bab_se_pct"]) == 7
    for name in ("report.json", "store_m4.csv", "store_m8.csv",
                 "model_table.csv"):
        assert (out / name).is_file()
    assert json.loads((out / "report.json").read_text()) == report
    lo, hi = report["fdr_jeffreys_ci_m4"]
    assert lo < report["fdr_posterior_mean_m4"] < hi


def test_prostate_store_columns_and_selected_degrees(tmp_path, synthetic_zvalues):
    study_prostate(synthetic_zvalues, B=300, K=8, seed=11,
                   out_dir=tmp_path)
    path = tmp_path / "store_m8.csv"
    with open(path) as fh:
        fh.readline()
        header = fh.readline().strip().split(",")
    assert header == (["rep"] + [f"beta_{j}" for j in range(1, 10)]
                      + [f"alpha_{j}" for j in range(1, 10)]
                      + ["delta", "log_xi", "t_fdr_3", "t_aic_degree"]
                      + [f"t_deg_{m}" for m in range(2, 9)])
    run = load_store(path)
    full = polynomial_basis(BinSpec().centers, 8)
    chosen = run.statistic_values("aic_degree")
    for beta, m in zip(run.params, chosen):
        assert m == select_degrees(aic_profiles(full, beta, range(2, 9)), range(2, 9))[0]
    for m in range(2, 9):
        assert np.array_equal(run.t[f"deg_{m}"], (chosen == m).astype(float))


def test_nonparametric_counts_from_bin_indices_match_binned_values(synthetic_zvalues):
    spec = BinSpec()
    z = np.append(synthetic_zvalues, [-9.0, 7.0, spec.hi + spec.width / 2])
    via_values = nonparametric_resample(z, 40, 11, lambda v: bin_zvalues(v, spec)[0])
    via_index = nonparametric_resample(
        _bin_index(z, spec), 40, 11,
        lambda idx: np.bincount(idx, minlength=spec.count + 1)[:-1])
    assert np.array_equal(via_values, via_index)


def test_prostate_study_reruns_identical(synthetic_zvalues):
    r1 = study_prostate(synthetic_zvalues, B=300, K=16, seed=11)
    r2 = study_prostate(synthetic_zvalues, B=300, K=16, seed=11)
    assert r1 == r2


def test_prostate_bab_draws_each_outer_set_once(synthetic_zvalues, monkeypatch):
    # one outer set for the fdr run and one, shared by every deg_* indicator,
    # for the full-model run
    outer = []
    draw = sampler.substream

    def counting(seed, index):
        if index >= OUTER_STREAM_OFFSET:
            outer.append(index)
        return draw(seed, index)

    monkeypatch.setattr(sampler, "substream", counting)
    K = 6
    study_prostate(synthetic_zvalues, B=200, K=K, seed=11)
    assert len(outer) == 2 * K
    assert sorted(outer) == sorted(2 * [OUTER_STREAM_OFFSET + k for k in range(K)])


def test_prostate_study_requires_some_input():
    # the z-values are the one required argument; a file is read by load_zvalues
    with pytest.raises(TypeError, match="zvalues"):
        study_prostate()


@pytest.mark.skipif(find_prostate_zfile() is None,
                    reason="real z-value file not available")
def test_prostate_study_real_data_acceleration():
    report = study_prostate(load_zvalues(find_prostate_zfile()), B=2000, K=50, seed=11)
    assert report["a"] == pytest.approx(-0.026, abs=0.02)
    assert report["n_zvalues"] > 5000
