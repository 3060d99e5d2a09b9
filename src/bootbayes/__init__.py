"""Bayes posteriors from reweighted parametric-bootstrap replications.

Sample B replications of the MLE once, then obtain the posterior of any
statistic under any prior by reweighting: w_i proportional to
pi(beta_i) xi_i exp(delta_i).  The same table also yields BCa-style
frequentist intervals and bootstrap-after-bootstrap accuracy estimates for
every posterior quantity.
"""

from .version import __version__

from .expfam import (CapabilityMissing, FamilyModel, MlePoint, NumericalFailure,
                     chol_logdet, cubic_delta_approx)
from .families import (GammaScaleFamily, MvNormalFamily, MvnParam,
                       NormalTranslationFamily, Statistic,
                       correlation_statistic, eigenratio_statistic,
                       family_from_meta, log_prior_inverse_wishart,
                       log_prior_jeffreys_correlation, statistic_correlation,
                       statistic_eigenratio)
from .glm import (GlmFit, GlmPoint, PoissonGlmFamily, aic, aic_profile,
                  aic_profiles, fdr_statistic, glm_fit, glm_fit_sufficient,
                  polynomial_basis, residual_deviance, select_degree,
                  select_degrees, selected_degree_statistic, statistic_fdr)
from .fisher import (fisher_density, fisher_exact_ci, fisher_log_density,
                     log_correlation_bab_multipliers, log_correlation_weights)
from .sampler import (BootstrapRun, NONPARAM_STREAM_OFFSET,
                      OUTER_STREAM_OFFSET, PREDICTIVE_STREAM_OFFSET,
                      load_store, nonparametric_resample,
                      run_bootstrap, run_expanded_bootstrap, save_store,
                      store_digest, substream)
from .posterior import (GridSpec, Interval, Prior, RbdResult, WeightVector,
                        credible_interval, ess, importance_weights,
                        internal_cv, log_conversion, posterior_expectation,
                        posterior_predictive, posterior_probability, rbd,
                        weighted_density, weighted_quantile, weights_from_log)
from .bca import (BcaConstants, bca_interval, bca_prior, bca_weights,
                  family_skew_acceleration, jackknife_acceleration, z0_estimate)
from .accuracy import (AccuracyReport, bab_standard_error, bab_weights,
                       jackknife_standard_error)
from .studies import (BinSpec, ModelSelectionTable, ScoresDataset,
                      ZValueDataset, bin_zvalues, load_scores, load_zvalues,
                      study_correlation, study_eigenratio, study_prostate,
                      write_report)

__all__ = [name for name in dir() if not name.startswith("_")]
