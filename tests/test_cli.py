"""Command line interface: subcommands, formats, exit codes, stores."""

import json
import os

import numpy as np
import pytest

from bootbayes.cli import main

from conftest import drop_store_entry


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
                 ["prostate", "--zfile", "x", "--K", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_negative_seed_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "correlation", "--B", "300", "--seed", "-1")
    assert code == 2
    assert "error: expected non-negative integer" in err


def test_missing_zfile_path_reports_and_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "prostate", "--zfile",
                           str(tmp_path / "nope.txt"), "--B", "200")
    assert code == 2
    assert "error:" in err


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

    # a store drawn at another estimate is refused, not reused
    moved = tmp_path / "moved.json"
    moved.write_text(gamma_spec.read_text().replace("[1.0]", "[5.0]"))
    code, out, err = run_cli(capsys, "run", "--family-spec", str(moved),
                             "--B", "400", "--seed", "3", "--store", str(store))
    assert code == 2 and out == ""
    assert "store holds" in err and "reusing" not in err


def test_run_with_a_malformed_store_is_an_input_error(capsys, gamma_spec, tmp_path):
    store = tmp_path / "run.csv"
    args = ["run", "--family-spec", str(gamma_spec), "--B", "50", "--seed", "3"]
    assert run_cli(capsys, *args, "--store", str(store))[0] == 0
    bad = drop_store_entry(store, "delta", tmp_path / "bad.csv")
    code, out, err = run_cli(capsys, *args, "--store", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bad.csv" in err and "'delta'" in err


def test_run_flat_and_jeffreys_priors_differ(capsys, gamma_spec):
    _, out_j, _ = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                          "--B", "800", "--seed", "3")
    _, out_f, _ = run_cli(capsys, "run", "--family-spec", str(gamma_spec),
                          "--B", "800", "--seed", "3", "--prior", "flat")
    est_j = json.loads(out_j)["summaries"][0]["estimate"]
    est_f = json.loads(out_f)["summaries"][0]["estimate"]
    assert est_j != est_f


def test_run_subcommand_bad_specs(capsys, tmp_path, gamma_spec):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "run", "--family-spec", str(broken))
    assert code == 2 and "error:" in err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"family": {"family": "gamma_scale", "n": 5}}))
    code, _, err = run_cli(capsys, "run", "--family-spec", str(incomplete))
    assert code == 2 and "missing" in err

    unknown_stat = tmp_path / "stat.json"
    unknown_stat.write_text(json.dumps({
        "family": {"family": "gamma_scale", "n": 5},
        "mle": {"beta_hat": [1.0]},
        "statistics": ["bogus"],
    }))
    code, _, err = run_cli(capsys, "run", "--family-spec", str(unknown_stat))
    assert code == 2 and "unknown statistic" in err

    # a spec that is not an object, or whose statistics are not a list of
    # names, is an input error naming the bad entry, not a traceback
    for content, message in (
            (7, "must be a JSON object, got 7"),
            ({"statistics": "identity"},
             "must be a non-empty list of statistic names, got 'identity'"),
            ({"statistics": []}, "non-empty list"),
            ({"statistics": ["identity", 3]}, "entry 3 is not a name")):
        if isinstance(content, dict):
            content = {"family": {"family": "gamma_scale", "n": 5},
                       "mle": {"beta_hat": [1.0]}, **content}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, "run", "--family-spec", str(bad))
        assert code == 2 and message in err, (content, err)
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


def test_numerical_failure_exits_three(capsys, tmp_path):
    spec = tmp_path / "sick.json"
    spec.write_text(json.dumps({
        "family": {"family": "mvnormal", "d": 2, "n": 22},
        "mle": {"mu": [0.0, 0.0], "sigma": [[1.0, 2.0], [2.0, 1.0]]},
        "statistics": ["correlation"],
    }))
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
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, bootbayes.cli; "
             "print('scipy.stats' in sys.modules, 'bootbayes.cli' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={"PYTHONPATH": str(src), "PATH": ""})
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
    from pathlib import Path

    z = np.random.default_rng(3).normal(size=2000)
    (tmp_path / "z.txt").write_text("".join(f"{v:.6f}\n" for v in z))
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path),
                           str(mvn_spec)],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(src), "PATH": ""})
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 0], done.stderr
    assert result["scipy"] == []
    for name in ("correlation", "eigenratio", "prostate", "run"):
        assert (tmp_path / name / "report.json").exists()


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


def _fresh_env(**extra):
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    return {"PYTHONPATH": str(src), "PATH": "", **extra}


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("2", "2")])
def test_import_defaults_openblas_to_one_thread_unless_the_caller_set_it(
        caller, expected):
    import subprocess
    import sys

    env = _fresh_env() if caller is None else _fresh_env(OPENBLAS_NUM_THREADS=caller)
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                          text=True, check=True, env=env)
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
                                  env=_fresh_env(OPENBLAS_NUM_THREADS=threads))
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
