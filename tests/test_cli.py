"""Command line interface: subcommands, formats, exit codes, stores."""

import json
import math
import os

import numpy as np
import pytest

from bootbayes.cli import main

from conftest import DROP, edit_store_entry, edit_store_line, fresh_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def gamma_spec(tmp_path):
    spec = tmp_path / "gamma.json"
    spec.write_text(json.dumps({
        "family": {"family": "gamma_scale", "n": 20},
        "mle": {"beta_hat": [1.0]},
        "statistics": ["identity"],
    }))
    return spec


@pytest.fixture()
def mvn_spec(tmp_path, scores):
    from bootbayes import MvNormalFamily

    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    spec = tmp_path / "mvn.json"
    spec.write_text(json.dumps({
        "family": family.meta(),
        "mle": family.mle_meta(mle),
        "statistics": ["correlation"],
    }))
    return spec


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_correlation_study_json_schema(capsys):
    code, out, _ = run_cli(capsys, "correlation", "--B", "300")
    assert code == 0
    report = json.loads(out)
    assert report["study"] == "correlation"
    assert report["B"] == 300
    assert len(report["exact_ci"]) == 2
    assert len(report["jeffreys_ci"]) == 2
    assert len(report["bca_ci"]) == 2


@pytest.mark.parametrize("study", ["correlation", "eigenratio"])
def test_score_study_stdout_is_the_study_report(capsys, study):
    from bootbayes import studies

    code, out, _ = run_cli(capsys, study, "--B", "300")
    assert code == 0
    report = getattr(studies, f"study_{study}")(B=300)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_csv_format_flattens_the_report(capsys):
    code, out, _ = run_cli(capsys, "correlation", "--B", "300",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert "B,300" in lines
    assert any(line.startswith("jeffreys_ci.0,") for line in lines)


def test_flag_validation_rejects_bad_values():
    for argv in (["correlation", "--level", "1.5"],
                 ["correlation", "--B", "0"],
                 ["prostate"],  # --zfile is required
                 ["prostate", "--zfile", "x", "--K", "1"],
                 ["run", "--family-spec", "x", "--truncate", "0"],
                 ["run", "--family-spec", "x", "--truncate", "1.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_negative_seed_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "correlation", "--B", "300", "--seed", "-1")
    assert code == 2
    assert err == "error: master_seed must be an integer of at least 0, got -1\n"


def test_missing_zfile_path_reports_and_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "prostate", "--zfile",
                           str(tmp_path / "nope.txt"), "--B", "200")
    assert code == 2
    assert "error:" in err
    code, out, err = run_cli(capsys, "prostate", "--zfile",
                             str(tmp_path / "nope.txt"), "--bins", "7")
    assert code == 2 and out == ""
    assert "error: need at least 8 bins" in err


@pytest.mark.parametrize("coord", ["coord:5", "coord:-1"])
def test_run_rejects_out_of_range_coordinates(capsys, tmp_path, coord):
    spec = tmp_path / "gamma_coord.json"
    spec.write_text(json.dumps({
        "family": {"family": "gamma_scale", "n": 20},
        "mle": {"beta_hat": [1.0]},
        "statistics": [coord],
    }))
    code, out, err = run_cli(capsys, "run", "--family-spec", str(spec),
                             "--B", "50")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_run_subcommand_reports_posterior_summary(capsys, gamma_spec):
    code, out, _ = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                           "--B", "500", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["family"] == "gamma_scale(n=20)"
    assert report["prior"] == "jeffreys"
    assert not report["store_reused"]
    (summary,) = report["summaries"]
    assert summary["statistic"] == "identity"
    assert summary["ci"][0] < summary["estimate"] < summary["ci"][1]
    assert 0 < summary["ess"] <= 500


def test_run_subcommand_store_write_then_reuse(capsys, gamma_spec, tmp_path):
    store = tmp_path / "run.csv"
    code, _, err = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                           "--B", "400", "--seed", "3", "--store", str(store))
    assert code == 0
    assert "wrote store" in err
    assert store.is_file()

    code, out, err = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                             "--B", "400", "--seed", "3", "--store", str(store),
                             "--prior", "flat")
    assert code == 0
    assert "reusing store" in err
    report = json.loads(out)
    assert report["store_reused"]
    assert report["summaries"][0]["prior"] == "flat"

    code, _, err = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                           "--B", "999", "--seed", "3", "--store", str(store))
    assert code == 2
    assert "store holds" in err

    other = tmp_path / "other.json"
    other.write_text(gamma_spec.read_text().replace('"n": 20', '"n": 21'))
    code, out, err = run_cli(capsys, "run", "--family-spec", str(other),
                             "--B", "400", "--seed", "3", "--store", str(store))
    assert code == 2 and out == ""
    assert ("store holds gamma_scale(n=20), spec asks for gamma_scale(n=21)"
            in err)

    # a store drawn at another estimate is refused, not reused
    moved = tmp_path / "moved.json"
    moved.write_text(gamma_spec.read_text().replace("[1.0]", "[5.0]"))
    code, out, err = run_cli(capsys, "run", "--family-spec", str(moved),
                             "--B", "400", "--seed", "3", "--store", str(store))
    assert code == 2 and out == ""
    assert "store holds" in err and "reusing" not in err


@pytest.fixture()
def poisson_spec(tmp_path):
    from bootbayes import PoissonGlmFamily

    centers = np.linspace(-3.0, 3.0, 13)
    family = PoissonGlmFamily.from_basis(centers, 2)
    mle = family.points(np.round(300.0 * np.exp(-0.5 * centers**2)) + 2.0)
    spec = tmp_path / "poisson.json"
    spec.write_text(json.dumps({
        "family": family.meta(),
        "mle": family.mle_meta(mle),
        "statistics": ["fdr:1.5"],
    }))
    return spec


@pytest.mark.parametrize("family, added", [
    ("mvn", ["eigenratio", "coord:4"]),
    ("poisson", ["coord:1", "fdr:2"])])
def test_a_reused_store_that_gains_statistics_reports_as_a_fresh_run(
        capsys, tmp_path, mvn_spec, poisson_spec, family, added):
    spec = {"mvn": mvn_spec, "poisson": poisson_spec}[family]
    store = tmp_path / "store.csv"
    args = ["run", "--B", "300", "--seed", "4"]
    assert run_cli(capsys, *args, "--family-spec", str(spec),
                   "--store", str(store))[0] == 0
    wider = json.loads(spec.read_text())
    wider["statistics"] += added
    spec.write_text(json.dumps(wider))
    code, reused, err = run_cli(capsys, *args, "--family-spec", str(spec),
                                "--store", str(store))
    assert code == 0 and "reusing store" in err
    code, fresh, _ = run_cli(capsys, *args, "--family-spec", str(spec))
    assert code == 0
    reused, fresh = json.loads(reused), json.loads(fresh)
    assert reused.pop("store_reused") and not fresh.pop("store_reused")
    assert reused == fresh
    assert [s["statistic"] for s in fresh["summaries"]][-2:] == [
        name.replace(":", "_") for name in added]


def test_run_with_a_malformed_store_is_an_input_error(capfd, gamma_spec, tmp_path):
    store = tmp_path / "run.csv"
    args = ["run", "--family-spec", str(gamma_spec), "--B", "50", "--seed", "3"]
    assert run_cli(capfd, *args, "--store", str(store))[0] == 0
    # an entry by name, or a line by number: a metadata line that is not
    # JSON, a cell that is not a number and a row short of a column
    for name, value, message in [
            ("delta", DROP, ", no 'delta'"),
            ("B", None, ", 'B' must be"),
            ("mle", {"beta_hat": {}}, ": "),
            (0, lambda line: line.replace('"', "", 1), ": Expecting property name"),
            (4, lambda line: line.rsplit(",", 1)[0] + ",abc",
             ": could not convert string 'abc'"),
            (4, lambda line: line.rsplit(",", 1)[0], ": the number of columns changed")]:
        edit = edit_store_line if isinstance(name, int) else edit_store_entry
        bad = edit(store, name, tmp_path / "bad.csv", value)
        code, out, err = run_cli(capfd, *args, "--store", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: malformed store{message}"), err
        # one line on the process's stderr: no LAPACK line, warning or traceback
        assert err.count("\n") == 1, err


def test_run_flat_and_jeffreys_priors_differ(capsys, gamma_spec):
    _, out_j, _ = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                          "--B", "800", "--seed", "3")
    _, out_f, _ = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                          "--B", "800", "--seed", "3", "--prior", "flat")
    est_j = json.loads(out_j)["summaries"][0]["estimate"]
    est_f = json.loads(out_f)["summaries"][0]["estimate"]
    assert est_j != est_f


def test_run_subcommand_bad_specs(capfd, tmp_path, gamma_spec):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capfd, "run", "--family-spec", str(broken))
    assert code == 2 and "error:" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"family": {"family": "gamma_scale", "n": 5}}))
    code, _, err = run_cli(capfd, "run", "--family-spec", str(incomplete))
    assert code == 2
    assert err == f"error: {incomplete}: malformed family spec, no 'statistics'\n"

    unknown_stat = tmp_path / "stat.json"
    unknown_stat.write_text(json.dumps({
        "family": {"family": "gamma_scale", "n": 5},
        "mle": {"beta_hat": [1.0]},
        "statistics": ["bogus"],
    }))
    code, _, err = run_cli(capfd, "run", "--family-spec", str(unknown_stat))
    assert code == 2 and "unknown statistic" in err

    # coord:0 and coord:00 both build the id coord_0: refused alike whether
    # the run is drawn or read from an existing store
    normal = {"family": {"family": "normal_translation",
                         "sigma": [[1.0, 0.0], [0.0, 1.0]]},
              "mle": {"beta_hat": [0.0, 0.0]}}
    twice, store = tmp_path / "twice.json", tmp_path / "twice.csv"
    twice.write_text(json.dumps({**normal, "statistics": ["coord:0"]}))
    assert run_cli(capfd, "run", "--family-spec", str(twice), "--B", "50",
                   "--store", str(store))[0] == 0
    twice.write_text(json.dumps({**normal, "statistics": ["coord:0", "coord:00"]}))
    for reuse in ([], ["--store", str(store)]):
        code, out, err = run_cli(capfd, "run", "--family-spec", str(twice),
                                 "--B", "50", *reuse)
        assert code == 2 and out == ""
        assert err == (f"error: {twice}: malformed family spec: duplicate "
                       "statistic ids: ['coord_0', 'coord_0']\n")

    # a spec that is not an object, or whose statistics are not a list of
    # names, is an input error naming the file and the bad entry, not a
    # traceback
    for content, message in (
            (7, ": must be a JSON object, got 7"),
            ({"statistics": "identity"},
             ", 'statistics' must be a list of strings, got 'identity'"),
            ({"statistics": []}, ": 'statistics' names no statistic"),
            ({"statistics": ["identity", 3]},
             ", 'statistics' must be a list of strings, got ['identity', 3]")):
        if isinstance(content, dict):
            content = {"family": {"family": "gamma_scale", "n": 5},
                       "mle": {"beta_hat": [1.0]}, **content}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code, out, err = run_cli(capfd, "run", "--family-spec", str(bad))
        assert code == 2 and err == f"error: {bad}: malformed family spec{message}\n"
        assert out == ""

    # a family or estimate entry that cannot build its object is an input
    # error naming the entry, never a traceback or a numerical failure
    gamma = {"family": "gamma_scale", "n": 5}
    mvn = {"family": "mvnormal", "d": 2, "n": 22}
    mvn_mle = {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
    poisson = {"family": "poisson_glm", "centers": [-2.0, -1.0, 0.0, 1.0, 2.0],
               "degree": 2}
    poisson_mle = {"beta": [22.0, 0.0, -5.0]}
    for family, mle, stat, message in (
            ({**poisson, "degree": 2.5}, {"beta": [10.0, 0.0, 0.0]}, "coord:0",
             "degree must be an integer of at least 0, got 2.5"),
            ({**gamma, "n": 2.5}, {"beta_hat": [1.0]}, "identity",
             "gamma_scale n must be an integer of at least 1, got 2.5"),
            ({**gamma, "n": True}, {"beta_hat": [1.0]}, "identity",
             "gamma_scale n must be an integer of at least 1, got True"),
            ({**mvn, "d": 2.7}, mvn_mle, "correlation",
             "mvnormal d must be an integer of at least 1, got 2.7"),
            ({**mvn, "n": 22.9}, mvn_mle, "correlation",
             "mvnormal n must be an integer of at least 3, got 22.9"),
            ({"family": "normal_translation", "sigma": [[1.0, 2.0], [2.0, 1.0]]},
             {"beta_hat": [0.0, 0.0]}, "coord:0",
             "normal_translation sigma [[1.0, 2.0], [2.0, 1.0]] is not positive definite"),
            ({"family": "normal_translation", "sigma": [[1.0, 5.0], [0.0, 1.0]]},
             {"beta_hat": [0.0, 0.0]}, "coord:0",
             "normal_translation sigma [[1.0, 5.0], [0.0, 1.0]] is not symmetric"),
            ({"family": "normal_translation", "sigma": [[math.inf, 0.0], [0.0, 1.0]]},
             {"beta_hat": [0.0, 0.0]}, "coord:0",
             "normal_translation sigma [[inf, 0.0], [0.0, 1.0]] must be finite"),
            ({"family": "normal_translation", "sigma": [[math.nan, 0.0], [0.0, 1.0]]},
             {"beta_hat": [0.0, 0.0]}, "coord:0",
             "normal_translation sigma [[nan, 0.0], [0.0, 1.0]] must be finite"),
            (poisson, {"beta": [10.0, 0.0]}, "coord:0",
             "estimate beta [10.0, 0.0] of poisson_glm(p=3,J=5) needs 3 entries"),
            (gamma, {"beta_hat": [1.0]}, "coord:x",
             "statistic 'coord:x': coordinate must be in 0..0"),
            # the covariance statistics read an mvnormal point, and the
            # correlation a bivariate one
            (gamma, {"beta_hat": [1.0]}, "eigenratio",
             "eigenratio statistic needs the mvnormal family"),
            (poisson, poisson_mle, "correlation",
             "correlation statistic needs the mvnormal family"),
            (poisson, poisson_mle, "eigenratio",
             "eigenratio statistic needs the mvnormal family"),
            ({**mvn, "d": 3}, {"mu": [0.0, 0.0, 0.0], "sigma": np.eye(3).tolist()},
             "correlation", "correlation statistic needs a bivariate mvnormal "
             "family, got d=3"),
            *((poisson, poisson_mle, f"fdr:{z}",
               f"statistic 'fdr:{z}': threshold must be a finite number")
              for z in ("nan", "-inf", "inf", "1e400", "abc")),
            ({"family": "gamma_scale"}, {"beta_hat": [1.0]}, "identity",
             "malformed family spec, no 'n'"),
            (gamma, {"beta": [1.0]}, "identity", "malformed family spec, no 'beta_hat'"),
            ("gamma_scale", {"beta_hat": [1.0]}, "identity",
             "'family' must be a JSON object, got 'gamma_scale'"),
            (mvn, {"mu": [0.0, 0.0]}, "correlation", "malformed family spec, no 'sigma'"),
            ({"family": "normal_translation", "sigma": [[1.0, 0.0], [0.0, 1.0]]},
             {"beta_hat": [1.0]}, "coord:0", "needs 2 entries"),
            (mvn, {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, -1.0]]},
             "correlation", "not positive definite"),
            (mvn, {"mu": [0.0, 0.0, 1.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
             "correlation", "needs mu of 2 entries and a 2 x 2 sigma"),
            # a JSON object or a string where a number belongs
            (gamma, {"beta_hat": {}}, "identity", "malformed family spec: "),
            (mvn, {"mu": {}, "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "correlation",
             "malformed family spec: "),
            ({**poisson, "centers": {}}, poisson_mle, "coord:0",
             "malformed family spec: "),
            ({"family": "normal_translation", "sigma": {}}, {"beta_hat": [0.0]},
             "coord:0", "malformed family spec: "),
            # estimates and designs that are not finite, and an mvnormal
            # sigma whose triangles differ, are refused before any draw or fit
            (mvn, {"mu": [0.0, 0.0], "sigma": [[1.0, 0.9], [-0.5, 1.0]]},
             "correlation", "estimate sigma [[1.0, 0.9], [-0.5, 1.0]] is not symmetric"),
            (mvn, {"mu": [math.nan, 0.0], "sigma": [[1.0, 0.3], [0.3, 1.0]]},
             "correlation", "must be finite"),
            (mvn, {"mu": [0.0, 0.0], "sigma": [[math.inf, 0.3], [0.3, 1.0]]},
             "correlation", "must be finite"),
            ({**poisson, "centers": [-2.0, -1.0, math.nan, 1.0, 2.0]}, poisson_mle,
             "coord:0", "design must be finite"),
            ({"family": "poisson_glm", "x": [[1.0, 0.0], [1.0, 1.0], [1.0, math.nan]]},
             {"beta": [22.0, 0.0]}, "coord:0", "design must be finite"),
            (poisson, {"beta": [math.nan, 0.0, -5.0]}, "coord:0",
             "estimate beta [nan, 0.0, -5.0] must be finite")):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": family, "mle": mle, "statistics": [stat]}))
        code, out, err = run_cli(capfd, "run", "--family-spec", str(bad), "--B", "50")
        assert code == 2 and err.startswith(f"error: {bad}: malformed family spec")
        # one line on the process's stderr: no LAPACK line, warning or traceback
        assert message in err and err.count("\n") == 1, (family, mle, err)
        assert out == ""


def test_statistics_are_validated_against_the_family(capsys, tmp_path,
                                                     mvn_spec, scores):
    bad = json.loads(mvn_spec.read_text())
    bad["statistics"] = ["identity"]
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "run", "--family-spec", str(spec),
                           "--B", "50")
    assert code == 2 and "one-dimensional" in err

    gam = tmp_path / "gam.json"
    gam.write_text(json.dumps({
        "family": {"family": "gamma_scale", "n": 20},
        "mle": {"beta_hat": [1.0]},
        "statistics": ["fdr:3"],
    }))
    code, _, err = run_cli(capsys, "run", "--family-spec", str(gam), "--B", "50")
    assert code == 2 and "binned-count" in err


def test_inverse_wishart_prior_family_gate(capsys, gamma_spec, mvn_spec):
    code, _, err = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                           "--B", "200", "--prior", "inverse-wishart")
    assert code == 2 and "mvnormal" in err
    code, out, _ = run_cli(capsys, "run", "--family-spec", str(mvn_spec),
                           "--B", "200", "--prior", "inverse-wishart")
    assert code == 0
    assert json.loads(out)["summaries"][0]["prior"] == "inverse-wishart"


def test_bca_prior_uses_family_skewness_when_available(capsys, gamma_spec):
    code, out, err = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                             "--B", "2000", "--seed", "3", "--prior", "bca")
    assert code == 0
    summary = json.loads(out)["summaries"][0]
    assert summary["a_source"] == "family_skew_a"
    assert summary["a"] == pytest.approx(1.0 / (3.0 * np.sqrt(20)), rel=1e-3)


def test_bca_prior_falls_back_to_zero_acceleration(capsys, mvn_spec):
    code, out, err = run_cli(capsys, "run", "--family-spec", str(mvn_spec),
                             "--B", "500", "--prior", "bca")
    assert code == 0
    summary = json.loads(out)["summaries"][0]
    assert summary["a"] == 0.0 and summary["a_source"] == "fixed"
    assert "a=0" in err


@pytest.mark.parametrize("family, mle, stat", [
    # a positive definite estimate whose replications' covariance products
    # underflow to zero; an indefinite sigma is an input error instead
    ({"family": "mvnormal", "d": 2, "n": 22},
     {"mu": [0.0, 0.0], "sigma": [[1e-300, 0.0], [0.0, 1e-300]]}, "correlation"),
    # the fit at the spec's estimate fails while the spec is read
    ({"family": "poisson_glm", "x": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]},
     {"beta": [3.0, 3.0]}, "coord:0")], ids=["run", "spec"])
def test_numerical_failure_exits_three(capsys, tmp_path, family, mle, stat):
    spec = tmp_path / "sick.json"
    spec.write_text(json.dumps({"family": family, "mle": mle, "statistics": [stat]}))
    code, _, err = run_cli(capsys, "run", "--family-spec", str(spec), "--B", "50")
    assert code == 3
    assert "numerical failure" in err


def test_out_directory_receives_the_report(capsys, gamma_spec, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, stdout, _ = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                              "--B", "300", "--out", str(out_dir))
    assert code == 0
    on_disk = json.loads((out_dir / "report.json").read_text())
    assert on_disk == json.loads(stdout)


@pytest.mark.parametrize("degree", ["1", "0", "-3"])
def test_prostate_degree_below_two_is_an_input_error(capsys, tmp_path, degree):
    zfile = tmp_path / "z.txt"
    z = np.random.default_rng(3).normal(size=400)
    zfile.write_text("".join(f"{v:.6f}\n" for v in z))
    code, out, err = run_cli(capsys, "prostate", "--zfile", str(zfile),
                             "--B", "50", "--K", "2", "--degree", degree)
    assert code == 2
    assert "error: degree must be at least 2" in err
    assert out == ""


def test_cli_import_leaves_scipy_stats_unloaded():
    import subprocess
    import sys

    probe = ("import sys, bootbayes.cli; "
             "print('scipy.stats' in sys.modules, 'bootbayes.cli' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=fresh_env(), timeout=120)
    assert done.stdout.split() == ["False", "True"]


# runs every subcommand in one fresh process and lists the scipy modules it
# loaded; the reports go to files, so stdout carries only that list
SCIPY_PROBE = """
import contextlib, io, json, sys
from bootbayes.cli import main
work, spec = sys.argv[1:]
argvs = [
    ["correlation", "--B", "300", "--out", work + "/correlation"],
    ["eigenratio", "--B", "300", "--out", work + "/eigenratio"],
    ["prostate", "--zfile", work + "/z.txt", "--B", "200", "--K", "4",
     "--degree", "4", "--out", work + "/prostate"],
    ["run", "--family-spec", spec, "--B", "300", "--prior", "bca",
     "--out", work + "/run"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_cli_commands_leave_scipy_unloaded(tmp_path, mvn_spec):
    import subprocess
    import sys

    z = np.random.default_rng(3).normal(size=2000)
    (tmp_path / "z.txt").write_text("".join(f"{v:.6f}\n" for v in z))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path),
                           str(mvn_spec)],
                          capture_output=True, text=True, check=True,
                          env=fresh_env(), timeout=120)
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0], done.stderr
    assert result["scipy"] == []
    for name in ("correlation", "eigenratio", "prostate", "run"):
        assert (tmp_path / name / "report.json").exists()


# runs one subcommand, or none, in a fresh process and lists the package's
# submodules it loaded; the report goes to a discarded stdout
MODULE_PROBE = """
import contextlib, io, json, sys
from bootbayes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"code": code,
                  "modules": sorted(m.split(".", 1)[1] for m in sys.modules
                                    if m.startswith("bootbayes.")),
                  "polynomial": "numpy.polynomial" in sys.modules}))
"""
RUN_MODULES = {"cli", "expfam", "families", "posterior", "sampler", "version"}


@pytest.mark.parametrize("command, added", [
    (None, set()),
    ("run", set()),
    ("eigenratio", {"studies", "bca"}),
    ("correlation", {"studies", "bca", "fisher"}),
    ("prostate", {"studies", "bca", "glm", "accuracy"})])
def test_each_command_loads_only_the_modules_it_runs(capsys, tmp_path, mvn_spec,
                                                     command, added):
    import subprocess
    import sys

    store = tmp_path / "store.csv"
    z = tmp_path / "z.txt"
    z.write_text("".join(f"{v:.6f}\n" for v in
                         np.random.default_rng(3).normal(size=2000)))
    argvs = {
        None: [],
        "run": ["run", "--family-spec", str(mvn_spec), "--B", "300",
                "--store", str(store)],
        "eigenratio": ["eigenratio", "--B", "300"],
        "correlation": ["correlation", "--B", "300"],
        "prostate": ["prostate", "--zfile", str(z), "--B", "200", "--K", "4",
                     "--degree", "4"],
    }
    if command == "run":
        # the probed run reweights a stored run rather than drawing one
        assert run_cli(capsys, *argvs["run"])[0] == 0
    done = subprocess.run([sys.executable, "-c", MODULE_PROBE, *argvs[command]],
                          capture_output=True, text=True, check=True,
                          env=fresh_env(), timeout=120)
    result = json.loads(done.stdout)
    assert result["code"] == 0, done.stderr
    if command == "run":
        assert "reusing store" in done.stderr
    assert set(result["modules"]) == RUN_MODULES | added
    assert result["polynomial"] == (command == "correlation")


# imports the package, then prints OPENBLAS_NUM_THREADS and the thread count
# numpy's bundled OpenBLAS reports (null when no OpenBLAS symbol is found)
BLAS_PROBE = r"""
import ctypes, glob, json, os
import bootbayes
import numpy
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": threads}))
"""


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")])
def test_import_defaults_openblas_to_one_thread_unless_the_caller_set_it(
        caller, expected):
    import subprocess
    import sys

    env = fresh_env() if caller is None else fresh_env(OPENBLAS_NUM_THREADS=caller)
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                          text=True, check=True, env=env, timeout=120)
    result = json.loads(done.stdout)
    assert result["env"] == expected
    if result["threads"] is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count symbol")
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < int(expected):
        pytest.skip("OpenBLAS caps its threads at the CPUs available")
    assert result["threads"] == int(expected)


def test_blas_thread_count_leaves_every_written_file_unchanged(tmp_path):
    import subprocess
    import sys

    z = np.random.default_rng(5).normal(size=2000)
    (tmp_path / "z.txt").write_text("".join(f"{v:.6f}\n" for v in z))
    argvs = {"prostate": ["prostate", "--zfile", str(tmp_path / "z.txt"),
                          "--B", "200", "--K", "4", "--degree", "4"],
             "eigenratio": ["eigenratio", "--B", "300"]}
    written = {}
    for threads in ("1", "2"):
        files = {}
        for name, argv in argvs.items():
            out = tmp_path / threads / name
            done = subprocess.run([sys.executable, "-m", "bootbayes.cli", *argv,
                                   "--out", str(out)],
                                  capture_output=True, check=True,
                                  env=fresh_env(OPENBLAS_NUM_THREADS=threads),
                                  timeout=120)
            files[f"{name}/stdout"] = done.stdout
            files.update({f"{name}/{path.relative_to(out)}": path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
        written[threads] = files
    assert {"prostate/report.json", "prostate/model_table.csv",
            "eigenratio/report.json"} <= set(written["1"])
    assert written["1"] == written["2"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x"])
def test_non_finite_scores_are_an_input_error_naming_the_line(capsys, tmp_path, cell):
    scores = tmp_path / "scores.csv"
    scores.write_text(f"mech,vec\n1,2\n2,3.5\n\n3,{cell}\n4,5.1\n5,4\n")
    code, out, err = run_cli(capsys, "correlation", "--scores", str(scores),
                             "--B", "200")
    assert code == 2
    assert f"error: {scores}:5: expected 2 finite value(s), got '3,{cell}'" in err
    assert out == ""


def test_correlation_with_fewer_than_five_scores_is_an_input_error(capsys, tmp_path):
    # the exact correlation density needs n >= 5; four rows used to surface
    # as a numerical failure about unbracketed interval endpoints
    scores = tmp_path / "scores.csv"
    scores.write_text("mech,vec\n1,2\n2,3.5\n3,2.9\n4,5.1\n")
    code, out, err = run_cli(capsys, "correlation", "--scores", str(scores),
                             "--B", "200")
    assert code == 2
    assert "error: density formula requires n >= 5, got n=4" in err
    assert "not bracketed" not in err
    assert out == ""
