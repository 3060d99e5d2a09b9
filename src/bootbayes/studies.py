"""Three worked case studies and their datasets.

Each study function is deterministic given (B, K, seed): reports embed that
triple plus the package version and contain no timestamps, so reruns are
byte-identical.  Default seeds are fixed, documented constants.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .bca import (BcaConstants, bca_weights, family_skew_acceleration,
                  jackknife_acceleration, z0_estimate)
from .expfam import _whole, write_report
from .families import (MvNormalFamily, Statistic, correlation_statistic,
                       eigenratio_statistic, log_prior_inverse_wishart)
from .posterior import (GridSpec, Prior, importance_weights, summarize,
                        weighted_density, weights_from_log)
from .sampler import nonparametric_resample, run_bootstrap, save_store
from .version import __version__

__all__ = [
    "ScoresDataset",
    "load_scores",
    "BinSpec",
    "load_zvalues",
    "bin_zvalues",
    "study_correlation",
    "study_eigenratio",
    "study_prostate",
    "CORRELATION_SEED",
    "EIGENRATIO_SEED",
    "PROSTATE_SEED",
    "FDR_THRESHOLD",
]

# documented default master seeds; reports always record the seed in use
CORRELATION_SEED = 7
EIGENRATIO_SEED = 15
PROSTATE_SEED = 11
# the prostate study reports the false discovery rate at z = FDR_THRESHOLD
FDR_THRESHOLD = 3.0

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


def load_scores(path=None) -> ScoresDataset:
    """The built-in 22-student fixture, or a CSV with header mech,vec and
    two finite numbers per line; blank lines are skipped."""
    if path is None:
        return ScoresDataset(np.column_stack([_SCORES_MECH, _SCORES_VEC]).astype(float))
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if [h.strip().lower() for h in header] != ["mech", "vec"]:
            raise ValueError(f"{path}: expected header 'mech,vec', got {header}")
        data = _finite_rows(path, fh, width=2, first_lineno=2)
    if data.shape[0] < 3:
        raise ValueError(f"{path}: need at least three mech,vec rows")
    return ScoresDataset(data)


def _finite_rows(path, lines, width: int, first_lineno: int = 1) -> np.ndarray:
    """(n, width) array of the non-blank ``lines``, each holding ``width``
    comma-separated finite numbers; a bad line raises ValueError naming
    ``path:line``."""
    rows = []
    for lineno, line in enumerate(lines, first_lineno):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            row = [math.nan]
        if len(row) != width or not all(map(math.isfinite, row)):
            raise ValueError(
                f"{path}:{lineno}: expected {width} finite value(s), got {line!r}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, width)


@dataclass(frozen=True)
class BinSpec:
    """``count`` histogram bins of width ``width`` on one fixed grid, the
    first centered at ``lo``."""

    lo: ClassVar[float] = -4.4
    width: ClassVar[float] = 0.2
    count: int = 49

    def __post_init__(self):
        _whole("bin count", self.count, 1)

    @property
    def centers(self) -> np.ndarray:
        return self.lo + self.width * np.arange(self.count)


def load_zvalues(path) -> np.ndarray:
    """One finite z-value per line; blank lines are skipped."""
    with open(path) as fh:
        values = _finite_rows(path, fh, width=1)[:, 0]
    if not values.size:
        raise ValueError(f"{path}: no z-values found")
    return values


def _bin_index(values, spec: BinSpec) -> np.ndarray:
    """Bin of each value; out-of-range values go to the overflow bin
    ``spec.count``."""
    values = np.asarray(values, dtype=float)
    half = spec.width / 2.0
    centers = spec.centers
    edges = np.concatenate([centers - half, [centers[-1] + half]])
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


def _write_density(path, centers, density):
    with open(path, "w") as fh:
        fh.write("grid,density\n")
        for c, d in zip(centers, density):
            fh.write("%.17g,%.17g\n" % (c, d))


def _score_study(stat: Statistic, weigh, grid: GridSpec, B: int, seed: int,
                 scores: ScoresDataset, level: float, out_dir, extras) -> dict:
    """Shared body of the score studies: one MvN run of ``stat`` at the scores'
    MLE, its posterior under ``weigh(run, theta_hat)`` and a BCa interval with
    the jackknife acceleration of ``stat`` over leave-one-out refits.
    ``extras(run, report, bca, out_dir)``, given the BCa weight vector, adds
    the study's own report fields and files."""
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    theta_hat = float(stat(mle))
    run = run_bootstrap(family, mle, B, seed, [stat])
    t = run.statistic_values(stat.id)

    weights = weigh(run, theta_hat)
    jeffreys = summarize(run, weights, stat.id, level)

    z0 = z0_estimate(run, stat.id, theta_hat)
    a = jackknife_acceleration(scores.matrix,
                               lambda rows: stat(family.mle_from_data(rows)))
    bca = bca_weights(run, stat.id, BcaConstants(z0, a))
    bca_ci = summarize(run, bca, stat.id, level).interval

    shift = jeffreys.rbd
    report = {
        "study": stat.id,
        "version": __version__,
        "B": B,
        "seed": seed,
        "n": scores.n,
        "level": level,
        "theta_hat": theta_hat,
        "jeffreys_ci": list(jeffreys.interval),
        "bca_ci": list(bca_ci),
        "z0": z0,
        "a": a,
        "a_source": "jackknife_a",
        "posterior_mean": jeffreys.mean,
        "bootstrap_mean": float(t.mean()),
        "bootstrap_sd": float(t.std(ddof=1)),
        "rbd": {"rbd": shift.rbd, "correlation": shift.correlation, "cv": shift.cv},
        "cv_internal": jeffreys.cv_internal,
        "ess": jeffreys.ess,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    extras(run, report, bca, out_dir)
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
    # here, so the other commands do not load fisher and numpy.polynomial
    from .fisher import fisher_exact_ci, log_correlation_weights

    scores = scores or load_scores()
    grid = GridSpec(-0.2, 1.0, 120)

    def weigh(run, theta_hat):
        thetas = run.statistic_values("correlation")
        return weights_from_log(
            run, log_correlation_weights(thetas, theta_hat, scores.n), "jeffreys")

    def extras(run, report, bca, out_dir):
        report["exact_ci"] = list(
            fisher_exact_ci(report["theta_hat"], scores.n, coverage=level))
        if out_dir is not None:
            _write_density(out_dir / "density_bca.csv",
                           *weighted_density(run, bca, "correlation", grid))

    return _score_study(correlation_statistic(), weigh, grid, B, seed, scores,
                        level, out_dir, extras)


def study_eigenratio(B: int = 10000, seed: int = EIGENRATIO_SEED,
                     scores: ScoresDataset | None = None, level: float = 0.95,
                     out_dir=None) -> dict:
    """Largest-eigenvalue share of the score covariance matrix.

    Weights come from the full five-parameter family conversion factor; the
    same run is also reweighted under an inverse-Wishart x flat prior.
    """

    def extras(run, report, bca, out_dir):
        iw = importance_weights(
            run, Prior.from_log_density("inverse_wishart",
                                        log_prior_inverse_wishart))
        iw_post = summarize(run, iw, "eigenratio", level)
        report["inverse_wishart_ci"] = list(iw_post.interval)
        report["inverse_wishart_mean"] = iw_post.mean

    return _score_study(
        eigenratio_statistic(),
        lambda run, theta_hat: importance_weights(run, Prior.jeffreys()),
        GridSpec(0.5, 1.0, 120), B, seed, scores or load_scores(), level,
        out_dir, extras)


def _nonparametric_degrees(bin_index, slots: int, B: int, seed: int,
                           basis_full, degrees) -> np.ndarray:
    """AIC-selected degree of each of B nonparametric resamples of the
    z-values, given as their bin indices (``slots - 1`` is the overflow)."""
    from .glm import aic_profiles, select_degrees

    # each z-value is binned once; a resample only counts its drawn bins
    counts = nonparametric_resample(
        bin_index, B, seed, lambda idx: np.bincount(idx, minlength=slots)[:-1])
    return select_degrees(aic_profiles(basis_full, counts @ basis_full, degrees),
                          degrees)


@contextmanager
def _in_child(fn, *args):
    """Start ``fn(*args)`` in a forked child process and yield a function
    that returns its result.

    The child sends its pickled result, or the exception it raised, through a
    pipe and leaves through ``os._exit``, so it flushes none of the parent's
    buffers and runs none of its exit handlers.  Collecting the result reaps
    the child and re-raises its exception; a child that exits without a
    result raises RuntimeError naming its exit status.  Leaving the block
    before collecting kills and reaps the child, so none outlives the block.
    Where ``os.fork`` does not exist, or cannot start a process, collecting
    calls ``fn`` inline.
    """
    import pickle  # here, so only the prostate study loads it

    pid = None
    if hasattr(os, "fork"):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        yield lambda: fn(*args)
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, fn(*args))
            except Exception as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    running = True

    def collect():
        nonlocal running
        data = reader.read()
        _, wait_status = os.waitpid(pid, 0)
        running = False
        if not data:
            raise RuntimeError(
                f"child process {pid} exited with status "
                f"{os.waitstatus_to_exitcode(wait_status)} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    with open(read_fd, "rb") as reader:
        try:
            yield collect
        finally:
            if running:
                import signal  # here, so no CLI start pays for importing it
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _degree4_analysis(centers, y, fd, B: int, K: int, seed: int,
                      level: float):
    """The fdr posterior, BCa interval and BaB standard error under the
    chosen moderate degree-4 model: its report fields and its run.

    The model is fitted on its own QR basis: the first five degree-8 columns
    differ from it by round-off.  The run comes back without the BaB terms it
    cached, so a child sends 0.42 MB through its pipe, not 0.58 MB.
    """
    from .accuracy import bab_standard_error
    from .glm import PoissonGlmFamily

    family4 = PoissonGlmFamily.from_basis(centers, 4)
    mle4 = family4.points(y)
    theta_hat = float(fd(mle4))
    run4 = run_bootstrap(family4, mle4, B, seed, [fd])
    w4 = importance_weights(run4, Prior.jeffreys())
    post4 = summarize(run4, w4, fd.id, level)
    z0 = z0_estimate(run4, fd.id, theta_hat)
    a = family_skew_acceleration(family4, mle4, fd)
    ci4_bca = summarize(run4, bca_weights(run4, fd.id, BcaConstants(z0, a)),
                        fd.id, level).interval
    fdr_bab = bab_standard_error(run4, w4, fd.id, K, seed)
    fields = {
        "fdr_hat_m4": theta_hat,
        "fdr_jeffreys_ci_m4": list(post4.interval),
        "fdr_bca_ci_m4": [ci4_bca.lo, ci4_bca.hi],
        "fdr_posterior_mean_m4": post4.mean,
        "fdr_bab_se_m4": fdr_bab.standard_error,
        "z0": z0,
        "a": a,
    }
    return fields, replace(run4)


def study_prostate(zvalues, B: int = 4000, K: int = 200, seed: int = PROSTATE_SEED,
                   level: float = 0.95, degree: int = 8,
                   bins: BinSpec = BinSpec(), out_dir=None) -> dict:
    """False discovery rate at z = 3 and AIC model selection on binned counts.

    Fits polynomial Poisson models of degree 2..degree to the binned
    ``zvalues``, reports the fdr posterior under the chosen degree-4 model,
    selection percentages under the full model, their
    bootstrap-after-bootstrap standard errors, and a nonparametric-resampling
    cross-check.

    One forked child process, started before the deviance fits, runs the
    degree-4 analysis and then the cross-check while this process runs the
    degree-8 analysis and model selection.  Every draw comes from a
    substream fixed by the seed and its index alone, so the report and files
    are byte-identical to an inline run, which is what runs, when the
    child's result is collected, where ``os.fork`` does not exist or fails.
    An exception in the child is re-raised here with its type and message
    after the degree-8 branch, so an exception in that branch wins; the
    child never outlives the call.  On 2 vCPUs, against the cross-check
    alone in the child, this took a paper-size run (B=4000, K=200) from
    43.2 to 41.85 MB of peak resident memory, the parent's, and its wall time
    down by 2-9% at flat CPU time.

    Bins whose last center lies below z = 3 raise ValueError before any
    work: no fit over them has an fdr.
    """
    # here, so the other commands do not load the GLM and BaB modules
    from .accuracy import bab_standard_errors
    from .glm import (PoissonGlmFamily, _fdr_bins, aic, aic_profiles, fdr_statistic,
                      glm_fit, polynomial_basis, select_degrees)

    if degree < 2:
        raise ValueError("degree must be at least 2")
    centers = bins.centers
    # on bins that all lie below the threshold no fit has an fdr: refuse them
    # before the fork and the fits
    if _fdr_bins(FDR_THRESHOLD, centers)[0].all():
        raise ValueError(
            f"the last bin center, {centers[-1]:.4g}, lies below the fdr threshold "
            f"z={FDR_THRESHOLD:g}, so the fdr is undefined; use more bins")
    zvalues = np.asarray(zvalues, dtype=float)
    y, out_of_range = bin_zvalues(zvalues, bins)
    degrees = tuple(range(2, degree + 1))
    basis_full = polynomial_basis(centers, degree)
    fd = fdr_statistic(FDR_THRESHOLD, centers)
    fdr_id = fd.id

    # the degree-4 analysis and the cross-check need nothing the full-model
    # run computes, so a forked child runs them while this process runs it
    def independent_branches():
        return (_degree4_analysis(centers, y, fd, B, K, seed, level),
                _nonparametric_degrees(_bin_index(zvalues, bins), bins.count + 1,
                                       B, seed, basis_full, degrees))

    with _in_child(independent_branches) as collect:
        fits = [glm_fit(basis_full[:, : m + 1], y) for m in degrees]

        # the full-model run, at the largest deviance fit, drives both the fdr
        # sensitivity check and model selection
        family8 = PoissonGlmFamily.from_basis(centers, degree)
        mle8 = fits[-1]
        run8 = run_bootstrap(family8, mle8, B, seed, [fd])
        w8 = importance_weights(run8, Prior.jeffreys())
        ci8 = summarize(run8, w8, fdr_id, level).interval

        selected = select_degrees(aic_profiles(basis_full, run8.params, degrees),
                                  degrees).astype(float)
        indicators = {f"deg_{m}": (selected == m).astype(float) for m in degrees}
        run8 = replace(run8, t={**run8.t, "aic_degree": selected, **indicators})
        bab8 = bab_standard_errors(run8, w8, list(indicators), K, seed)

        (m4, run4), np_selected = collect()

    # the CSV columns follow this order
    table = {
        "degrees": list(degrees),
        "deviance": [f.deviance for f in fits],
        "aic": [aic(f.deviance, m) for f, m in zip(fits, degrees)],
        "boot_pct": [100.0 * float(np.mean(selected == m)) for m in degrees],
        "bayes_pct": [100.0 * summarize(run8, w8, f"deg_{m}", level).mean
                      for m in degrees],
        "bab_se_pct": [100.0 * bab8[f"deg_{m}"].standard_error for m in degrees],
        "nonparam_pct": [100.0 * float(np.mean(np_selected == m)) for m in degrees],
    }
    report = {
        "study": "prostate",
        "version": __version__,
        "B": B,
        "K": K,
        "seed": seed,
        "level": level,
        "n_zvalues": zvalues.size,
        "out_of_range": out_of_range,
        "bins": bins.count,
        "fdr_threshold": FDR_THRESHOLD,
        **m4,
        "fdr_boot_sd_m4": float(run4.statistic_values(fdr_id).std(ddof=1)),
        "fdr_hat_m8": float(fd(mle8)),
        "fdr_jeffreys_ci_m8": list(ci8),
        "a_source": "family_skew_a",
        "model_table": table,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_store(run4, out_dir / "store_m4.csv")
        save_store(run8, out_dir / "store_m8.csv")
        write_report(report, out_dir / "report.json")
        with open(out_dir / "model_table.csv", "w") as fh:
            fh.write("degree,deviance,aic,boot_pct,bayes_pct,bab_se_pct,nonparam_pct\n")
            for row in zip(*table.values()):
                fh.write("%d,%.6f,%.6f,%.2f,%.2f,%.3f,%.2f\n" % row)
    return report
