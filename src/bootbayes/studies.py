"""Three worked case studies and their datasets.

Each study function is deterministic given (B, K, seed): reports embed that
triple plus the package version and contain no timestamps, so reruns are
byte-identical.  Default seeds are fixed, documented constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .accuracy import bab_standard_error
from .bca import (BcaConstants, bca_interval, bca_weights,
                  family_skew_acceleration, jackknife_acceleration,
                  z0_estimate)
from .expfam import NumericalFailure
from .families import (MvNormalFamily, Statistic, correlation_statistic,
                       eigenratio_statistic, log_prior_inverse_wishart,
                       statistic_eigenratio)
from .fisher import fisher_exact_ci, log_correlation_weights
from .glm import (PoissonGlmFamily, aic, aic_profiles, fdr_statistic, glm_fit,
                  polynomial_basis, select_degrees, statistic_fdr)
from .posterior import (GridSpec, Prior, credible_interval, importance_weights,
                        internal_cv, rbd, weighted_density, weights_from_log)
from .sampler import nonparametric_resample, run_bootstrap, save_store
from .version import __version__

__all__ = [
    "ScoresDataset",
    "load_scores",
    "BinSpec",
    "ZValueDataset",
    "load_zvalues",
    "bin_zvalues",
    "ModelSelectionTable",
    "study_correlation",
    "study_eigenratio",
    "study_prostate",
    "write_report",
    "CORRELATION_SEED",
    "EIGENRATIO_SEED",
    "PROSTATE_SEED",
]

# documented default master seeds; reports always record the seed in use
CORRELATION_SEED = 7
EIGENRATIO_SEED = 15
PROSTATE_SEED = 11

_SCORES_MECH = [7, 44, 49, 59, 34, 46, 0, 32, 49, 52, 44,
                36, 42, 5, 22, 18, 41, 48, 31, 42, 46, 63]
_SCORES_VEC = [51, 69, 41, 70, 42, 40, 40, 45, 57, 64, 61,
               59, 60, 30, 58, 51, 63, 38, 42, 69, 49, 63]


@dataclass(frozen=True)
class ScoresDataset:
    """Paired exam scores for n students (mechanics, vectors)."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def mech(self) -> np.ndarray:
        return self.matrix[:, 0]

    @property
    def vec(self) -> np.ndarray:
        return self.matrix[:, 1]


def load_scores(path=None) -> ScoresDataset:
    """The built-in 22-student fixture, or a CSV with header mech,vec."""
    if path is None:
        return ScoresDataset(np.column_stack([_SCORES_MECH, _SCORES_VEC]).astype(float))
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if [h.strip().lower() for h in header] != ["mech", "vec"]:
            raise ValueError(f"{path}: expected header 'mech,vec', got {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] < 3 or data.shape[1] != 2:
        raise ValueError(f"{path}: need at least three mech,vec rows")
    return ScoresDataset(data.astype(float))


@dataclass(frozen=True)
class BinSpec:
    """Equal-width histogram bins described by their centers."""

    lo: float = -4.4
    hi: float = 5.2
    width: float = 0.2

    @property
    def centers(self) -> np.ndarray:
        k = int(round((self.hi - self.lo) / self.width)) + 1
        return self.lo + self.width * np.arange(k)

    @property
    def count(self) -> int:
        return self.centers.size


@dataclass(frozen=True)
class ZValueDataset:
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size


def load_zvalues(path) -> ZValueDataset:
    """One z-value per line."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from None
    if not values:
        raise ValueError(f"{path}: no z-values found")
    return ZValueDataset(np.asarray(values, dtype=float))


def _bin_index(values, spec: BinSpec) -> np.ndarray:
    """Bin of each value; out-of-range values go to the overflow bin
    ``spec.count``."""
    values = np.asarray(values, dtype=float)
    half = spec.width / 2.0
    edges = np.concatenate([spec.centers - half, [spec.hi + half]])
    idx = np.searchsorted(edges, values, side="right") - 1
    idx[values == edges[-1]] = spec.count - 1
    idx[(idx < 0) | (idx >= spec.count)] = spec.count
    return idx


def bin_zvalues(values, spec: BinSpec = BinSpec()) -> tuple[np.ndarray, int]:
    """Counts per bin and the number of out-of-range values.

    Bins are half-open [center - w/2, center + w/2), except the last which
    also includes its upper edge.
    """
    counts = np.bincount(_bin_index(values, spec), minlength=spec.count + 1)
    return counts[:-1].astype(float), int(counts[-1])


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj]
    return obj


def write_report(report: dict, path) -> None:
    """Deterministic JSON: sorted keys, no timestamps."""
    with open(path, "w") as fh:
        json.dump(_jsonify(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_density(path, centers, density):
    with open(path, "w") as fh:
        fh.write("grid,density\n")
        for c, d in zip(centers, density):
            fh.write("%.17g,%.17g\n" % (c, d))


def _score_study(stat: Statistic, weigh, row_statistic, grid: GridSpec,
                 B: int, seed: int, scores: ScoresDataset, level: float,
                 out_dir, extras) -> dict:
    """Shared body of the score studies: one MvN run of ``stat`` at the scores'
    MLE, its posterior under ``weigh(run, theta_hat)`` and a BCa interval with
    the jackknife acceleration of ``row_statistic``.  ``extras(run, report,
    constants, out_dir)`` adds the study's own report fields and files."""
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    theta_hat = float(stat(mle))
    run = run_bootstrap(family, mle, B, seed, [stat])
    t = run.statistic_values(stat.id)

    weights = weigh(run, theta_hat)
    jeffreys_ci = credible_interval(run, weights, stat.id, level)

    z0 = z0_estimate(run, stat.id, theta_hat)
    a = jackknife_acceleration(scores.matrix, row_statistic)
    constants = BcaConstants(z0, a, "jackknife_a")
    bca_ci = bca_interval(run, stat.id, constants, level)

    shift = rbd(run, weights, stat.id)
    report = {
        "study": stat.id,
        "version": __version__,
        "B": B,
        "seed": seed,
        "n": scores.n,
        "level": level,
        "theta_hat": theta_hat,
        "jeffreys_ci": [jeffreys_ci.lo, jeffreys_ci.hi],
        "bca_ci": [bca_ci.lo, bca_ci.hi],
        "z0": z0,
        "a": a,
        "a_source": "jackknife_a",
        "posterior_mean": float(weights.w @ t),
        "bootstrap_mean": float(t.mean()),
        "bootstrap_sd": float(t.std(ddof=1)),
        "rbd": {"rbd": shift.rbd, "correlation": shift.correlation, "cv": shift.cv},
        "cv_internal": internal_cv(run, weights, stat.id),
        "ess": weights.ess,
    }
    if out_dir is not None:
        out_dir = _ensure_dir(out_dir)
    extras(run, report, constants, out_dir)
    if out_dir is not None:
        flat = weights_from_log(run, np.zeros(B), "bootstrap")
        for name, wv in [("raw", flat), ("jeffreys", weights)]:
            centers, density = weighted_density(run, wv, stat.id, grid)
            _write_density(out_dir / f"density_{name}.csv", centers, density)
        save_store(run, out_dir / "store.csv")
        write_report(report, out_dir / "report.json")
    return report


def study_correlation(B: int = 10000, seed: int = CORRELATION_SEED,
                      scores: ScoresDataset | None = None, level: float = 0.95,
                      out_dir=None) -> dict:
    """Student-score correlation: exact interval, reweighted posterior, BCa.

    The posterior pathway works on the one-dimensional law of the sample
    correlation: replications are drawn from the bivariate-normal family, and
    the weights use the exact correlation density ratio with the 1/(1-t^2)
    prior.
    """
    scores = scores or load_scores()
    grid = GridSpec(-0.2, 1.0, 120)

    def weigh(run, theta_hat):
        thetas = run.statistic_values("correlation")
        return weights_from_log(
            run, log_correlation_weights(thetas, theta_hat, scores.n), "jeffreys")

    def extras(run, report, constants, out_dir):
        report["exact_ci"] = list(
            fisher_exact_ci(report["theta_hat"], scores.n, coverage=level))
        if out_dir is not None:
            bca = bca_weights(run, "correlation", constants)
            _write_density(out_dir / "density_bca.csv",
                           *weighted_density(run, bca, "correlation", grid))

    return _score_study(
        correlation_statistic(), weigh,
        lambda rows: np.corrcoef(rows[:, 0], rows[:, 1])[0, 1],
        grid, B, seed, scores, level, out_dir, extras)


def study_eigenratio(B: int = 10000, seed: int = EIGENRATIO_SEED,
                     scores: ScoresDataset | None = None, level: float = 0.95,
                     include_inverse_wishart: bool = True,
                     out_dir=None) -> dict:
    """Largest-eigenvalue share of the score covariance matrix.

    Weights come from the full five-parameter family conversion factor; the
    same run is optionally reweighted under an inverse-Wishart x flat prior.
    """

    def extras(run, report, constants, out_dir):
        if not include_inverse_wishart:
            return
        iw = importance_weights(
            run, Prior.from_log_density("inverse_wishart",
                                        log_prior_inverse_wishart))
        iw_ci = credible_interval(run, iw, "eigenratio", level)
        report["inverse_wishart_ci"] = [iw_ci.lo, iw_ci.hi]
        report["inverse_wishart_mean"] = float(
            iw.w @ run.statistic_values("eigenratio"))

    return _score_study(
        eigenratio_statistic(),
        lambda run, theta_hat: importance_weights(run, Prior.jeffreys()),
        lambda rows: statistic_eigenratio(np.cov(rows.T, ddof=0)),
        GridSpec(0.5, 1.0, 120), B, seed, scores or load_scores(), level,
        out_dir, extras)


@dataclass(frozen=True)
class ModelSelectionTable:
    """Per-degree comparison of fit, selection frequency and uncertainty."""

    degrees: tuple[int, ...]
    deviance: tuple[float, ...]
    aic: tuple[float, ...]
    boot_pct: tuple[float, ...]
    bayes_pct: tuple[float, ...]
    bab_se_pct: tuple[float, ...]
    nonparam_pct: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "degrees": list(self.degrees),
            "deviance": list(self.deviance),
            "aic": list(self.aic),
            "boot_pct": list(self.boot_pct),
            "bayes_pct": list(self.bayes_pct),
            "bab_se_pct": list(self.bab_se_pct),
        }
        if self.nonparam_pct is not None:
            out["nonparam_pct"] = list(self.nonparam_pct)
        return out

    def rows(self):
        for j, m in enumerate(self.degrees):
            yield (m, self.deviance[j], self.aic[j], self.boot_pct[j],
                   self.bayes_pct[j], self.bab_se_pct[j],
                   None if self.nonparam_pct is None else self.nonparam_pct[j])


def study_prostate(zfile=None, zvalues: ZValueDataset | None = None,
                   B: int = 4000, K: int = 200, seed: int = PROSTATE_SEED,
                   level: float = 0.95, degree: int = 8,
                   fdr_threshold: float = 3.0, bins: BinSpec = BinSpec(),
                   out_dir=None) -> dict:
    """False discovery rate at z = 3 and AIC model selection on binned counts.

    Fits polynomial Poisson models of degree 2..degree, reports the fdr
    posterior under the chosen degree-4 model, selection percentages under the
    full model, their bootstrap-after-bootstrap standard errors, and a
    nonparametric-resampling cross-check.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if zvalues is None:
        if zfile is None:
            raise ValueError("either zfile or zvalues is required")
        zvalues = load_zvalues(zfile)
    y, out_of_range = bin_zvalues(zvalues.values, bins)
    centers = bins.centers
    degrees = tuple(range(2, degree + 1))
    basis_full = polynomial_basis(centers, degree)

    table_dev, table_aic = [], []
    for m in degrees:
        f = glm_fit(basis_full[:, : m + 1], y)
        table_dev.append(f.deviance)
        table_aic.append(aic(f.deviance, m))

    fd = fdr_statistic(fdr_threshold, centers)
    fdr_id = fd.id

    # posterior for fdr under the chosen moderate model
    family4 = PoissonGlmFamily.from_basis(centers, 4)
    mle4 = family4.fit(y)
    theta_hat = statistic_fdr(mle4.mu, fdr_threshold, centers)
    run4 = run_bootstrap(family4, mle4, B, seed, [fd])
    w4 = importance_weights(run4, Prior.jeffreys())
    ci4 = credible_interval(run4, w4, fdr_id, level)
    z0 = z0_estimate(run4, fdr_id, theta_hat)
    a = family_skew_acceleration(
        family4, mle4,
        lambda b: statistic_fdr(family4.unflatten(b).mu, fdr_threshold, centers))
    constants = BcaConstants(z0, a, "family_skew_a")
    ci4_bca = bca_interval(run4, fdr_id, constants, level)
    fdr_bab = bab_standard_error(run4, Prior.jeffreys(), fdr_id, K, seed)

    # full-model run drives both the fdr sensitivity check and model selection
    family8 = PoissonGlmFamily.from_basis(centers, degree)
    mle8 = family8.fit(y)
    run8 = run_bootstrap(family8, mle8, B, seed, [fd])
    w8 = importance_weights(run8, Prior.jeffreys())
    ci8 = credible_interval(run8, w8, fdr_id, level)

    selected = select_degrees(aic_profiles(basis_full, run8.params, degrees),
                              degrees).astype(float)
    indicators = {f"deg_{m}": (selected == m).astype(float) for m in degrees}
    run8 = replace(run8, t={**run8.t, "aic_degree": selected, **indicators})
    boot_pct = [100.0 * float(np.mean(selected == m)) for m in degrees]
    bayes_pct = [100.0 * float(w8.w @ indicators[f"deg_{m}"]) for m in degrees]
    bab_se_pct = []
    for m in degrees:
        rep = bab_standard_error(run8, w8, f"deg_{m}", K, seed)
        bab_se_pct.append(100.0 * rep.standard_error)

    # each z-value is binned once; a resample only counts its drawn bins
    nonparam = nonparametric_resample(
        _bin_index(zvalues.values, bins), B, seed,
        lambda idx: np.bincount(idx, minlength=bins.count + 1)[:-1])
    np_selected = select_degrees(
        aic_profiles(basis_full, nonparam @ basis_full, degrees), degrees)
    np_pct = [100.0 * float(np.mean(np_selected == m)) for m in degrees]

    table = ModelSelectionTable(degrees, tuple(table_dev), tuple(table_aic),
                                tuple(boot_pct), tuple(bayes_pct),
                                tuple(bab_se_pct), tuple(np_pct))
    report = {
        "study": "prostate",
        "version": __version__,
        "B": B,
        "K": K,
        "seed": seed,
        "level": level,
        "n_zvalues": zvalues.n,
        "out_of_range": out_of_range,
        "bins": bins.count,
        "fdr_threshold": fdr_threshold,
        "fdr_hat_m4": theta_hat,
        "fdr_boot_sd_m4": float(run4.statistic_values(fdr_id).std(ddof=1)),
        "fdr_jeffreys_ci_m4": [ci4.lo, ci4.hi],
        "fdr_bca_ci_m4": [ci4_bca.lo, ci4_bca.hi],
        "fdr_posterior_mean_m4": float(w4.w @ run4.statistic_values(fdr_id)),
        "fdr_bab_se_m4": fdr_bab.standard_error,
        "fdr_hat_m8": statistic_fdr(mle8.mu, fdr_threshold, centers),
        "fdr_jeffreys_ci_m8": [ci8.lo, ci8.hi],
        "z0": z0,
        "a": a,
        "a_source": "family_skew_a",
        "model_table": table.to_dict(),
    }
    if out_dir is not None:
        out_dir = _ensure_dir(out_dir)
        save_store(run4, out_dir / "store_m4.csv")
        save_store(run8, out_dir / "store_m8.csv")
        write_report(report, out_dir / "report.json")
        with open(out_dir / "model_table.csv", "w") as fh:
            fh.write("degree,deviance,aic,boot_pct,bayes_pct,bab_se_pct,nonparam_pct\n")
            for m, dev, a_, bp, yp, se, npp in table.rows():
                fh.write(f"{m},{dev:.6f},{a_:.6f},{bp:.2f},{yp:.2f},{se:.3f},{npp:.2f}\n")
    return report


def _ensure_dir(out_dir):
    from pathlib import Path
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p
