"""End-to-end case studies: datasets, binning, reports, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from bootbayes import (OUTER_STREAM_OFFSET, sampler, studies,
                       aic_profiles, fisher_log_density, load_store,
                       nonparametric_resample, polynomial_basis, select_degrees)
from bootbayes.cli import main
from bootbayes.expfam import NumericalFailure, write_report
from bootbayes.studies import (BinSpec, _bin_index, bin_zvalues, load_scores,
                               load_zvalues, study_correlation,
                               study_eigenratio, study_prostate)

from conftest import find_prostate_zfile, fresh_env


# datasets ----------------------------------------------------------------------


def test_builtin_scores_fixture_invariants(scores):
    assert scores.n == 22
    assert scores.matrix.shape == (22, 2)
    assert scores.matrix[:, 0].sum() == 810.0  # mechanics
    assert scores.matrix[:, 1].sum() == 1162.0  # vectors


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
    spec = BinSpec(count)
    assert spec.count == spec.centers.size == count


@pytest.mark.parametrize("count, message", [
    (0.3, "bin count must be an integer of at least 1, got 0.3"),
    (0, "bin count must be an integer of at least 1, got 0"),
    (49.0, "bin count must be an integer of at least 1")],
    ids=["count-fraction", "count-0", "count-float"])
def test_bin_spec_rejects_a_bad_count_or_width(count, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BinSpec(count)


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
    assert p1.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_report_refuses_a_non_finite_value_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "r.json"
    with pytest.raises(NumericalFailure,
                       match=r"^report value a\.1\.x is not finite$"):
        write_report({"b": 1.5, "a": [2, {"x": bad, "y": bad}]}, path)
    assert not path.exists()


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


# unit invariance of the score studies ------------------------------------------

# Jeffreys' prior is invariant, so new units for the scores leave every
# output but the fixed-scale inverse-Wishart posterior the same up to
# round-off; exact_ci, a bisection to 1e-4, is left out
UNIT_FREE_FIELDS = ("jeffreys_ci", "posterior_mean", "bca_ci", "z0", "a",
                    "cv_internal", "ess")


@pytest.mark.parametrize("study", [study_correlation, study_eigenratio],
                         ids=["correlation", "eigenratio"])
def test_score_studies_do_not_depend_on_the_units_of_the_scores(study):
    base = study(B=2000, seed=7)
    for scale, shift in [(2.0, 0.0), (0.37, 0.0), (1.0, 7.0)]:
        scores = studies.ScoresDataset(scale * load_scores().matrix + shift)
        moved = study(B=2000, seed=7, scores=scores)
        for key in UNIT_FREE_FIELDS:
            np.testing.assert_allclose(moved[key], base[key], rtol=1e-12, atol=0,
                                       err_msg=f"{key}, x{scale} +{shift}")
        # a small difference of nearly equal terms: bounded absolutely
        for key, value in base["rbd"].items():
            assert abs(moved["rbd"][key] - value) <= 1e-12, (key, scale, shift)


# prostate study ------------------------------------------------------------------


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
    z = np.append(synthetic_zvalues, [-9.0, 7.0, spec.centers[-1] + spec.width / 2])
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
    # inline, so this process draws the degree-4 run's outer sets too, which
    # a forked child would draw out of this count's sight
    monkeypatch.delattr(os, "fork")
    K = 6
    study_prostate(synthetic_zvalues, B=200, K=K, seed=11)
    assert len(outer) == 2 * K
    assert sorted(outer) == sorted(2 * [OUTER_STREAM_OFFSET + k for k in range(K)])


def test_prostate_refuses_bins_that_end_below_the_fdr_threshold(synthetic_zvalues):
    with pytest.raises(ValueError, match="lies below the fdr threshold z=3"):
        study_prostate(synthetic_zvalues, B=50, K=2, bins=BinSpec(count=37))


# the nonparametric cross-check in a forked child ---------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the cross-check runs inline without os.fork")


def _write_zfile(path, zvalues):
    path.write_text("".join("%.17g\n" % v for v in zvalues))
    return path


def _open_descriptors():
    """This process's open file descriptors, where /proc lists them."""
    fds = "/proc/self/fd"
    return sorted(os.listdir(fds)) if os.path.isdir(fds) else None


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_prostate_cross_check_in_a_child_matches_the_inline_run(synthetic_zvalues,
                                                                monkeypatch, tmp_path):
    spec, degrees = BinSpec(), tuple(range(2, 9))
    args = (_bin_index(synthetic_zvalues, spec), spec.count + 1, 150, 11,
            polynomial_basis(spec.centers, 8), degrees)
    with studies._in_child(studies._nonparametric_degrees, *args) as collect:
        via_child = collect()
    inline = studies._nonparametric_degrees(*args)
    assert via_child.dtype == inline.dtype
    assert np.array_equal(via_child, inline)

    # the study forks one child, which runs the degree-4 analysis and the
    # cross-check
    real_fork, forks = os.fork, []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    forked = study_prostate(synthetic_zvalues, B=150, K=4, seed=11,
                            out_dir=tmp_path / "forked")
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    unforked = study_prostate(synthetic_zvalues, B=150, K=4, seed=11,
                              out_dir=tmp_path / "inline")
    assert forked["model_table"]["nonparam_pct"] == unforked["model_table"]["nonparam_pct"]
    assert json.dumps(forked, sort_keys=True) == json.dumps(unforked, sort_keys=True)
    names = ["report.json", "model_table.csv", "store_m4.csv", "store_m8.csv"]
    assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == sorted(names)
    for name in names:
        assert ((tmp_path / "forked" / name).read_bytes()
                == (tmp_path / "inline" / name).read_bytes()), name
    _no_child_left()


@needs_fork
def test_a_failed_fork_runs_the_cross_check_inline(synthetic_zvalues, monkeypatch):
    forked = study_prostate(synthetic_zvalues, B=100, K=2, seed=11)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    descriptors = _open_descriptors()
    unforked = study_prostate(synthetic_zvalues, B=100, K=2, seed=11)
    assert json.dumps(unforked, sort_keys=True) == json.dumps(forked, sort_keys=True)
    assert _open_descriptors() == descriptors
    _no_child_left()


@needs_fork
def test_a_numerical_failure_in_the_child_exits_3_as_inline(capsys, tmp_path,
                                                            synthetic_zvalues,
                                                            monkeypatch):
    def degenerate(*args):
        raise NumericalFailure("resample 3 has a singular design")

    monkeypatch.setattr(studies, "nonparametric_resample", degenerate)
    with pytest.raises(NumericalFailure) as info:
        study_prostate(synthetic_zvalues, B=100, K=2, seed=11)
    assert type(info.value) is NumericalFailure
    assert str(info.value) == "resample 3 has a singular design"

    zfile = _write_zfile(tmp_path / "z.txt", synthetic_zvalues)
    argv = ["prostate", "--zfile", str(zfile), "--B", "100", "--K", "2"]
    forked = main(argv), capsys.readouterr()
    monkeypatch.delattr(os, "fork")
    unforked = main(argv), capsys.readouterr()
    assert forked[0] == unforked[0] == 3
    assert forked[1] == unforked[1]
    assert forked[1].out == ""
    assert forked[1].err == "numerical failure: resample 3 has a singular design\n"
    _no_child_left()


@needs_fork
def test_a_numerical_failure_in_the_degree4_branch_exits_3_as_inline(
        capsys, tmp_path, synthetic_zvalues, monkeypatch):
    def skewless(*args):
        raise NumericalFailure("degree-4 skewness is not finite")

    monkeypatch.setattr(studies, "family_skew_acceleration", skewless)
    zfile = _write_zfile(tmp_path / "z.txt", synthetic_zvalues)
    argv = ["prostate", "--zfile", str(zfile), "--B", "100", "--K", "2"]
    forked = main(argv), capsys.readouterr()
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    unforked = main(argv), capsys.readouterr()
    assert forked[0] == unforked[0] == 3
    assert forked[1] == unforked[1]
    assert forked[1].out == ""
    assert forked[1].err == "numerical failure: degree-4 skewness is not finite\n"


@needs_fork
def test_a_child_that_exits_without_a_result_is_an_error_naming_its_status(
        synthetic_zvalues, monkeypatch):
    parent = os.getpid()

    def die(*args):
        if os.getpid() == parent:
            pytest.fail("the cross-check ran in the test process")
        os._exit(1)

    monkeypatch.setattr(studies, "_nonparametric_degrees", die)
    with pytest.raises(RuntimeError, match="exited with status 1 without a result"):
        study_prostate(synthetic_zvalues, B=100, K=2, seed=11)
    _no_child_left()


@needs_fork
def test_an_error_in_the_parent_leaves_no_child_behind(synthetic_zvalues,
                                                       monkeypatch):
    parent, draw = os.getpid(), studies.run_bootstrap

    # the child's degree-4 run goes through, the parent's degree-8 run fails
    def parent_fails(*args, **kwargs):
        if os.getpid() == parent:
            raise NumericalFailure("parent run failed")
        return draw(*args, **kwargs)

    # a child left running would sleep for a minute
    monkeypatch.setattr(studies, "_nonparametric_degrees",
                        lambda *args: time.sleep(60))
    monkeypatch.setattr(studies, "run_bootstrap", parent_fails)
    t0 = time.perf_counter()
    with pytest.raises(NumericalFailure, match="parent run failed"):
        study_prostate(synthetic_zvalues, B=100, K=2, seed=11)
    assert time.perf_counter() - t0 < 30
    _no_child_left()


# stdout is a pipe, so the parent's text is still in its buffer at the fork
PENDING_PROBE = """
import sys
from bootbayes.studies import _in_child
sys.stdout.write("pending ")
with _in_child(sum, [1, 2]) as collect:
    sys.stdout.write(str(collect()))
"""

# the CLI with the cross-check run inline
INLINE_CLI = """
import os, sys
del os.fork
from bootbayes.cli import main
sys.exit(main(sys.argv[1:]))
"""


@needs_fork
def test_prostate_stdout_is_one_json_document_as_inline(tmp_path, synthetic_zvalues):
    zfile = _write_zfile(tmp_path / "z.txt", synthetic_zvalues)
    argv = ["prostate", "--zfile", str(zfile), "--B", "100", "--K", "4"]
    forked = subprocess.run([sys.executable, "-m", "bootbayes.cli", *argv],
                            capture_output=True, check=True, env=fresh_env(),
                            timeout=120)
    unforked = subprocess.run([sys.executable, "-c", INLINE_CLI, *argv],
                              capture_output=True, check=True, env=fresh_env(),
                              timeout=120)
    assert forked.stdout == unforked.stdout
    assert forked.stderr == unforked.stderr == b""
    assert json.loads(forked.stdout)["study"] == "prostate"

    pending = subprocess.run([sys.executable, "-c", PENDING_PROBE],
                             capture_output=True, check=True, env=fresh_env(),
                             timeout=120)
    assert pending.stdout == b"pending 3"


# a caller that loaded numpy with two OpenBLAS threads before bootbayes and
# keeps a Python thread of its own alive while the study forks; the thread is
# a daemon, so an error before stop.set() ends the process instead of hanging it
THREADED_CALLER = """
import json, os, sys, threading
import numpy as np
np.ones((300, 300)) @ np.ones((300, 300))  # start the BLAS threads
stop = threading.Event()
worker = threading.Thread(target=stop.wait, daemon=True)
worker.start()
from bootbayes.studies import study_prostate

real_fork, threads_at_fork = os.fork, []

def fork():
    threads_at_fork.append(threading.active_count())
    return real_fork()

os.fork = fork
z = np.loadtxt(sys.argv[1])
forked = study_prostate(z, B=120, K=4, seed=11)
del os.fork
inline = study_prostate(z, B=120, K=4, seed=11)
stop.set()
worker.join()
print(json.dumps({"threads_at_fork": threads_at_fork,
                  "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                  "forked": forked, "inline": inline}, sort_keys=True))
"""


@needs_fork
def test_a_threaded_caller_gets_the_inline_report(tmp_path, synthetic_zvalues):
    zfile = _write_zfile(tmp_path / "z.txt", synthetic_zvalues)
    proc = subprocess.run([sys.executable, "-c", THREADED_CALLER, str(zfile)],
                          capture_output=True, check=True,
                          env=fresh_env(OPENBLAS_NUM_THREADS="2"), timeout=120)
    assert proc.stderr == b""
    out = json.loads(proc.stdout)
    # the study forked exactly once, with the caller's thread alive
    assert out["threads_at_fork"] == [2]
    assert out["blas_threads"] == "2"
    assert json.dumps(out["forked"], sort_keys=True) == json.dumps(
        out["inline"], sort_keys=True)
    assert out["forked"]["study"] == "prostate"


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
