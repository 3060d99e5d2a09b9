"""Bayes posteriors from reweighted parametric-bootstrap replications.

Sample B replications of the MLE once, then obtain the posterior of any
statistic under any prior by reweighting: w_i proportional to
pi(beta_i) xi_i exp(delta_i).  The same table also yields BCa-style
frequentist intervals and bootstrap-after-bootstrap accuracy estimates for
every posterior quantity.
"""

import os as _os

# One OpenBLAS thread unless the caller chose otherwise.  The products here
# are small (IRLS on 49 bins with at most 9 coefficients, 256 rows at a time;
# BaB multipliers over one table), so a second BLAS thread has no real work
# and only spins between calls: on 2 vCPUs (numpy 2.4.6, OpenBLAS 0.3.31) it
# cost a prostate CLI pass about 1 s of CPU (2.95 -> 1.91 s, median of eight
# alternating fresh-process pairs; BENCH_blas_threads.json) for no wall gain,
# with byte-identical outputs.  OpenBLAS reads the variable once, when numpy
# loads it, and a package runs its __init__ before any of its submodules, so
# this runs before a submodule loads numpy; it does nothing for a process that
# loaded numpy before bootbayes.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib as _importlib

from .version import __version__

# Each submodule loads on first use of one of its names (PEP 562), so a
# command pays only for the modules it runs.  The public names, by the
# submodule that defines them:
_EXPORTS = {
    "version": (),
    "expfam": ("CapabilityMissing", "FamilyModel", "NumericalFailure", "chol_logdet"),
    "families": ("GammaScaleFamily", "MvNormalFamily", "MvnParam",
                 "NormalTranslationFamily", "Statistic", "correlation_statistic",
                 "eigenratio_statistic", "family_from_meta",
                 "log_prior_inverse_wishart", "statistic_correlation",
                 "statistic_eigenratio"),
    "glm": ("GlmFit", "GlmPoint", "PoissonGlmFamily", "aic", "aic_profiles",
            "fdr_statistic", "glm_fit", "polynomial_basis", "residual_deviance",
            "select_degrees", "statistic_fdr"),
    "fisher": ("fisher_exact_ci", "fisher_log_density", "log_correlation_weights"),
    "sampler": ("BootstrapRun", "NONPARAM_STREAM_OFFSET", "OUTER_STREAM_OFFSET",
                "Substreams", "load_store", "nonparametric_resample",
                "run_bootstrap", "run_expanded_bootstrap", "save_store",
                "store_digest", "substream"),
    "posterior": ("GridSpec", "Interval", "PosteriorSummary", "Prior", "RbdResult",
                  "WeightVector", "credible_interval", "importance_weights",
                  "log_conversion", "summarize", "weighted_density",
                  "weighted_quantile", "weights_from_log"),
    "bca": ("BcaConstants", "bca_prior", "bca_weights", "family_skew_acceleration",
            "jackknife_acceleration", "z0_estimate"),
    "accuracy": ("AccuracyReport", "bab_standard_error", "bab_standard_errors",
                 "jackknife_standard_error"),
    "studies": ("BinSpec", "ScoresDataset", "bin_zvalues", "load_scores",
                "load_zvalues", "study_correlation", "study_eigenratio",
                "study_prostate", "write_report"),
}
# a submodule's own name is public too and maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
