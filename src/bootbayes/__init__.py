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
# loads it, so this must run before the first import below that loads numpy;
# it does nothing for a process that loaded numpy before bootbayes.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .version import __version__

from .expfam import (CapabilityMissing, FamilyModel, NumericalFailure,
                     chol_logdet, cubic_delta_approx)
from .families import (GammaScaleFamily, MvNormalFamily, MvnParam,
                       NormalTranslationFamily, Statistic,
                       correlation_statistic, eigenratio_statistic,
                       family_from_meta, log_prior_inverse_wishart,
                       statistic_correlation, statistic_eigenratio)
from .glm import (GlmFit, GlmPoint, PoissonGlmFamily, aic, aic_profiles,
                  fdr_statistic, glm_fit, polynomial_basis, residual_deviance,
                  select_degrees, statistic_fdr)
from .fisher import (fisher_density, fisher_exact_ci, fisher_log_density,
                     log_correlation_bab_multipliers, log_correlation_weights)
from .sampler import (BootstrapRun, NONPARAM_STREAM_OFFSET,
                      OUTER_STREAM_OFFSET, PREDICTIVE_STREAM_OFFSET,
                      Substreams, load_store, nonparametric_resample,
                      run_bootstrap, run_expanded_bootstrap, save_store,
                      store_digest, substream)
from .posterior import (GridSpec, Interval, Prior, RbdResult, WeightVector,
                        credible_interval, importance_weights,
                        internal_cv, log_conversion, posterior_expectation,
                        posterior_predictive, posterior_probability, rbd,
                        weighted_density, weighted_quantile, weights_from_log)
from .bca import (BcaConstants, bca_interval, bca_prior, bca_weights,
                  family_skew_acceleration, jackknife_acceleration, z0_estimate)
from .accuracy import (AccuracyReport, bab_standard_error, bab_standard_errors,
                       jackknife_standard_error)
from .studies import (BinSpec, ScoresDataset, bin_zvalues, load_scores,
                      load_zvalues, study_correlation, study_eigenratio,
                      study_prostate, write_report)

__all__ = [name for name in dir() if not name.startswith("_")]
