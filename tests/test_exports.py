"""The package's public surface: what ``bootbayes`` re-exports, each defining
module lists in its ``__all__``."""

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys

import pytest

import bootbayes

from conftest import fresh_env

# the package's public names: its ten submodules and what they export
PUBLIC = [
    "AccuracyReport", "BcaConstants", "BinSpec", "BootstrapRun",
    "CapabilityMissing", "FamilyModel", "GammaScaleFamily", "GlmFit", "GlmPoint",
    "GridSpec", "Interval", "MvNormalFamily", "MvnParam", "NONPARAM_STREAM_OFFSET",
    "NormalTranslationFamily", "NumericalFailure", "OUTER_STREAM_OFFSET",
    "PoissonGlmFamily", "PosteriorSummary", "Prior", "RbdResult", "ScoresDataset",
    "Statistic", "Substreams", "WeightVector", "accuracy", "aic", "aic_profiles",
    "bab_standard_error", "bab_standard_errors", "bca", "bca_prior", "bca_weights",
    "bin_zvalues", "chol_logdet", "correlation_statistic", "credible_interval",
    "eigenratio_statistic", "expfam", "families", "family_from_meta",
    "family_skew_acceleration", "fdr_statistic", "fisher", "fisher_exact_ci",
    "fisher_log_density", "glm", "glm_fit", "importance_weights",
    "jackknife_acceleration", "jackknife_standard_error", "load_scores",
    "load_store", "load_zvalues", "log_conversion", "log_correlation_weights",
    "log_prior_inverse_wishart", "nonparametric_resample", "polynomial_basis",
    "posterior", "residual_deviance", "run_bootstrap", "run_expanded_bootstrap",
    "sampler", "save_store", "select_degrees", "statistic_correlation",
    "statistic_eigenratio", "statistic_fdr", "store_digest", "studies",
    "study_correlation", "study_eigenratio", "study_prostate", "substream",
    "summarize", "version", "weighted_density", "weighted_quantile",
    "weights_from_log", "write_report", "z0_estimate",
]

# the attributes the benchmark harness reads from a bare ``import bootbayes``
BENCH_NAMES = [
    "sampler.load_store", "sampler.BootstrapRun", "posterior.importance_weights",
    "posterior.Prior.jeffreys", "accuracy.bab_standard_error",
    "accuracy.jackknife_standard_error", "studies.load_scores",
    "families.Statistic", "expfam.NumericalFailure",
]


def fresh_process(code: str, *args: str):
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, env=fresh_env(), timeout=120)
    return json.loads(done.stdout)


def test_every_reexported_function_and_class_is_in_its_module_all():
    unlisted, seen = [], 0
    for name in bootbayes.__all__:
        obj = getattr(bootbayes, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = sys.modules[obj.__module__]
        if module is bootbayes or not module.__name__.startswith("bootbayes."):
            continue
        seen += 1
        if name not in getattr(module, "__all__", ()):
            unlisted.append(f"{module.__name__}.{name}")
    assert seen >= 40  # the package's exports were found
    assert not unlisted, f"re-exported but missing from __all__: {unlisted}"


def test_every_submodule_all_entry_resolves():
    # a traced benchmark run looks up each __all__ name with getattr, so a
    # name deleted from its module but left listed would crash it
    missing, seen = [], 0
    for _, name, _ in pkgutil.iter_modules(bootbayes.__path__, "bootbayes."):
        listed = getattr(importlib.import_module(name), "__all__", None)
        if listed is None:
            continue
        seen += 1
        missing += [f"{name}.{entry}" for entry in listed
                    if not hasattr(sys.modules[name], entry)]
    assert seen >= 9  # every module that declares __all__ was checked
    assert "os" not in bootbayes.__all__  # the package's own imports stay private
    assert not missing, f"listed in __all__ but undefined: {missing}"


def test_bare_import_loads_only_the_version_and_lists_every_name():
    probe = """
import json, sys
import bootbayes
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("bootbayes.")),
    "all": bootbayes.__all__,
    "dir": [n for n in dir(bootbayes) if not n.startswith("_")]}))
"""
    result = fresh_process(probe)
    assert result["loaded"] == ["bootbayes.version"]
    assert result["all"] == result["dir"] == PUBLIC


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bootbayes import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC


def test_bench_names_resolve_after_a_bare_import():
    probe = """
import functools, json, sys
import bootbayes
print(json.dumps([functools.reduce(getattr, path.split("."), bootbayes).__name__
                  for path in sys.argv[1:]]))
"""
    assert fresh_process(probe, *BENCH_NAMES) == [
        path.rsplit(".", 1)[1] for path in BENCH_NAMES]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'bootbayes' has no attribute 'nope'"):
        bootbayes.nope
