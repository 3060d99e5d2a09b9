"""The key set of every report, frozen: a report field added or dropped shows
up as an explicit edit of the lists below."""

import json

import numpy as np
import pytest

from bootbayes.cli import main
from bootbayes.studies import study_correlation, study_eigenratio, study_prostate

SCORE_STUDY_KEYS = [
    "B", "a", "a_source", "bca_ci", "bootstrap_mean", "bootstrap_sd",
    "cv_internal", "ess", "jeffreys_ci", "level", "n", "posterior_mean", "rbd",
    "rbd.correlation", "rbd.cv", "rbd.rbd", "seed", "study", "theta_hat",
    "version", "z0",
]
CORRELATION_KEYS = sorted(SCORE_STUDY_KEYS + ["exact_ci"])
EIGENRATIO_KEYS = sorted(SCORE_STUDY_KEYS + ["inverse_wishart_ci",
                                             "inverse_wishart_mean"])
PROSTATE_KEYS = [
    "B", "K", "a", "a_source", "bins", "fdr_bab_se_m4", "fdr_bca_ci_m4",
    "fdr_boot_sd_m4", "fdr_hat_m4", "fdr_hat_m8", "fdr_jeffreys_ci_m4",
    "fdr_jeffreys_ci_m8", "fdr_posterior_mean_m4", "fdr_threshold", "level",
    "model_table", "model_table.aic", "model_table.bab_se_pct",
    "model_table.bayes_pct", "model_table.boot_pct", "model_table.degrees",
    "model_table.deviance", "model_table.nonparam_pct", "n_zvalues",
    "out_of_range", "seed", "study", "version", "z0",
]
RUN_SUMMARY_KEYS = ["B", "ci", "cv_internal", "ess", "estimate", "level",
                    "prior", "seed", "statistic"]
RUN_KEYS = ["B", "family", "prior", "seed", "store_reused", "summaries",
            "version"]


def key_paths(report: dict, prefix: str = "") -> list[str]:
    """Sorted dotted paths of every key, nested dictionaries included."""
    paths = []
    for key, value in report.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += key_paths(value, f"{prefix}{key}.")
    return sorted(paths)


def test_correlation_report_keys():
    assert key_paths(study_correlation(B=200)) == CORRELATION_KEYS


def test_eigenratio_report_keys():
    assert key_paths(study_eigenratio(B=200)) == EIGENRATIO_KEYS


def test_prostate_report_keys():
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 2000), rng.normal(3.2, 1.0, 100)])
    report = study_prostate(z[(z > -4.4) & (z < 5.2)], B=100, K=2)
    assert key_paths(report) == PROSTATE_KEYS
    # one entry per candidate degree in every column of the model table
    assert {len(column) for column in report["model_table"].values()} == {7}


@pytest.mark.parametrize("prior, extra", [("jeffreys", []),
                                          ("bca", ["a", "a_source", "z0"])])
def test_run_summary_keys(prior, extra, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": {"family": "gamma_scale", "n": 20},
                                "mle": {"beta_hat": [1.0]},
                                "statistics": ["identity"]}))
    argv = ["run", "--family-spec", str(spec), "--B", "200", "--prior", prior]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert key_paths(report) == RUN_KEYS
    assert [key_paths(s) for s in report["summaries"]] == [
        sorted(RUN_SUMMARY_KEYS + extra)]
