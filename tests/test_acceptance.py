"""Acceptance gate: every numbered target prints one PASS/FAIL line.

Each test evaluates one acceptance target at its stated tolerance, records
`ACCEPTANCE n: PASS|FAIL|SKIPPED - detail`, then asserts.  The recorded
lines are replayed once, uncaptured, in the terminal summary (see conftest).
"""

import math

import numpy as np
import pytest

from bootbayes import (BcaConstants, GammaScaleFamily, MvNormalFamily,
                       MvnParam, NormalTranslationFamily, Prior,
                       bab_standard_error, bca_weights, eigenratio_statistic,
                       importance_weights, run_bootstrap, summarize)
from bootbayes.studies import (PROSTATE_SEED, load_scores, load_zvalues,
                              study_prostate)

import conftest
from conftest import find_prostate_zfile, identity_statistic, one_row


def _report(criterion: int, status: str, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    conftest.ACCEPTANCE_LINES[criterion] = line
    print(line)


def _finish(criterion: int, checks) -> None:
    bad = [name for name, ok in checks if not ok]
    if bad:
        _report(criterion, "FAIL", "; ".join(bad))
    else:
        _report(criterion, "PASS", f"{len(checks)} checks hold")
    assert not bad


def _window(name: str, got: float, target: float, tol: float):
    return (f"{name} {got:.4f} vs {target:g}+/-{tol:g}",
            abs(got - target) <= tol)


def test_acceptance_1_exact_correlation_interval(correlation_report):
    lo, hi = correlation_report["exact_ci"]
    _finish(1, [_window("exact lower", lo, 0.093, 0.002),
                _window("exact upper", hi, 0.741, 0.002)])


def test_acceptance_2_reweighted_correlation_intervals(correlation_report):
    j_lo, j_hi = correlation_report["jeffreys_ci"]
    b_lo, b_hi = correlation_report["bca_ci"]
    _finish(2, [_window("jeffreys lower", j_lo, 0.095, 0.01),
                _window("jeffreys upper", j_hi, 0.748, 0.01),
                _window("bca lower", b_lo, 0.074, 0.015),
                _window("bca upper", b_hi, 0.748, 0.015)])


def test_acceptance_3_correlation_shift_diagnostics(correlation_report):
    z0 = correlation_report["z0"]
    shift = correlation_report["rbd"]
    gap = abs(shift["rbd"] - shift["correlation"] * shift["cv"])
    _finish(3, [_window("z0", z0, -0.068, 0.02),
                _window("rbd", shift["rbd"], -0.101, 0.03),
                (f"rbd factorization gap {gap:.2e} <= 1e-12", gap <= 1e-12)])


def test_acceptance_4_eigenratio_study(eigenratio_report):
    rep = eigenratio_report
    j_lo, j_hi = rep["jeffreys_ci"]
    b_lo, b_hi = rep["bca_ci"]
    cv = rep["cv_internal"]
    _finish(4, [
        (f"theta_hat {rep['theta_hat']:.6f} rounds to 0.793",
         round(rep["theta_hat"], 3) == 0.793),
        _window("jeffreys lower", j_lo, 0.650, 0.015),
        _window("jeffreys upper", j_hi, 0.908, 0.015),
        _window("bca lower", b_lo, 0.598, 0.02),
        _window("bca upper", b_hi, 0.890, 0.02),
        _window("z0", rep["z0"], -0.222, 0.02),
        (f"internal cv {cv:.5f} within factor 2 of 0.002",
         0.001 <= cv <= 0.004),
        _window("posterior mean", rep["posterior_mean"], 0.799, 0.005),
    ])


def test_acceptance_5_gamma_cubic_skew_law():
    zgrid = np.linspace(-2.0, 2.0, 81)

    def max_err(n: int) -> float:
        family = GammaScaleFamily(n=n)
        mle = family.mle(1.0)
        root = math.sqrt(n)
        return max(abs(family.delta(*one_row(family, np.array([1.0 + z / root]),
                                            mle))[0]
                       - z**3 / (3.0 * root))
                   for z in zgrid)

    c = 25.0 * max_err(25)
    e100, e400 = max_err(100), max_err(400)
    _finish(5, [
        (f"n=100 cubic error {e100:.4f} <= {c / 100.0:.4f}", e100 <= c / 100.0),
        (f"n=400 cubic error {e400:.4f} <= {c / 400.0:.4f}", e400 <= c / 400.0),
    ])


def test_acceptance_6_mvn_delta_two_deviance_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        family = MvNormalFamily(d=d, n=int(rng.integers(d + 2, 40)))

        def random_param():
            a = rng.normal(size=(d, d))
            return MvnParam(rng.normal(size=d), a @ a.T + 0.5 * np.eye(d))

        pt, mle = random_param(), random_param()
        direct = family.delta(*one_row(family, pt, mle))[0]
        two_dev = 0.5 * (family.deviance(pt, mle) - family.deviance(mle, pt))
        worst = max(worst, abs(direct - two_dev) / max(1.0, abs(direct)))
    _finish(6, [(f"max relative gap {worst:.2e} <= 1e-10 over 1000 draws",
                 worst <= 1e-10)])


def test_acceptance_7_prostate_study():
    zfile = find_prostate_zfile()
    if zfile is None:
        _report(7, "SKIPPED",
                "no z-value file; set BOOTBAYES_PROSTATE_ZFILE or add "
                "data/prostate_zvalues.txt")
        pytest.skip("prostate z-value file not available")
    rep = study_prostate(load_zvalues(zfile), B=4000, K=200, seed=PROSTATE_SEED)
    table = rep["model_table"]
    dev, boot, bayes = table["deviance"], table["boot_pct"], table["bayes_pct"]
    m4_lo, m4_hi = rep["fdr_jeffreys_ci_m4"]
    m8_lo, m8_hi = rep["fdr_jeffreys_ci_m8"]
    checks = [
        _window("M2 deviance", dev[0], 138.6, 0.5),
        _window("M4 deviance", dev[2], 65.3, 0.5),
        _window("M8 deviance", dev[6], 59.6, 0.5),
        _window("fdr(3) estimate", rep["fdr_hat_m4"], 0.192, 0.005),
        _window("M4 fdr lower", m4_lo, 0.154, 0.01),
        _window("M4 fdr upper", m4_hi, 0.241, 0.01),
        _window("M8 fdr lower", m8_lo, 0.141, 0.01),
        _window("M8 fdr upper", m8_hi, 0.239, 0.01),
        _window("M4 boot pct", boot[2], 32.0, 4.0),
        _window("M4 bayes pct", bayes[2], 36.0, 4.0),
        _window("M8 boot pct", boot[6], 51.0, 4.0),
        _window("M8 bayes pct", bayes[6], 45.0, 4.0),
        _window("M4 selection se", table["bab_se_pct"][2] / 100.0, 0.20, 0.08),
    ]
    for j, target in zip(range(2, 7), (30.0, 9.0, 4.0, 2.0, 54.0)):
        checks.append(_window(f"M{j + 2} nonparam pct",
                              table["nonparam_pct"][j], target, 4.0))
    _finish(7, checks)


def test_acceptance_8_degenerate_exactness():
    gamma = GammaScaleFamily(n=20)
    gamma_mle = gamma.mle(1.0)
    at_hat = np.array([1.0])
    scores = load_scores()
    mvn = MvNormalFamily(d=2, n=scores.n)
    mvn_mle = mvn.mle_from_data(scores.matrix)

    run = run_bootstrap(gamma, gamma_mle, B=400, master_seed=2,
                        statistics=[identity_statistic()])
    translation = NormalTranslationFamily(sigma=2.0)
    trun = run_bootstrap(translation, translation.mle(3.0), B=500,
                         master_seed=1, statistics=[identity_statistic()])
    flat_w = importance_weights(trun, Prior.flat())

    jeffreys = importance_weights(run, Prior.jeffreys())
    rep = bab_standard_error(
        run, jeffreys, "identity", K=16, master_seed=5,
        multiplier=lambda g: gamma.log_bab_multipliers(run, gamma_mle))
    pe = summarize(run, jeffreys, "identity").mean
    bca_w = bca_weights(run, "identity", BcaConstants(0.0, 0.0))
    prior = Prior.from_log_density("p", lambda pt: -pt[..., 0])

    gamma_row = one_row(gamma, at_hat, gamma_mle)
    mvn_row = one_row(mvn, mvn_mle, mvn_mle)

    _finish(8, [
        ("gamma delta at the estimate == 0", gamma.delta(*gamma_row)[0] == 0.0),
        ("gamma xi at the estimate == 1", gamma.log_xi(*gamma_row)[0] == 0.0),
        ("mvn delta at the estimate == 0", mvn.delta(*mvn_row)[0] == 0.0),
        ("mvn xi at the estimate == 1", mvn.log_xi(*mvn_row)[0] == 0.0),
        ("flat translation weights exactly uniform",
         np.array_equal(flat_w.w, np.full(500, 1.0 / 500.0))),
        ("outer draws at the original estimate reproduce the posterior mean",
         bool(np.all(rep.q_values == pe))),
        ("BCa(0,0) weights exactly uniform",
         np.array_equal(bca_w.w, np.full(400, 1.0 / 400.0))),
        ("prior rescaling bit-exact",
         np.array_equal(importance_weights(run, prior).w,
                        importance_weights(run, prior.scaled(17.0)).w)),
    ])


def test_acceptance_9_internal_cv_calibration(scores):
    """The mean internal cv over 50 seeds against the seed-to-seed spread of
    the posterior mean.  Since cv = ``mc_se`` / |mean|, this is also the
    calibration of ``PosteriorSummary.mc_se``."""
    def calibration_ratio(family, mle, statistic, stat_id):
        means, cvs = [], []
        for seed in range(50):
            run = run_bootstrap(family, mle, B=2000, master_seed=seed,
                                statistics=[statistic])
            w = importance_weights(run, Prior.jeffreys())
            post = summarize(run, w, stat_id)
            means.append(post.mean)
            cvs.append(post.cv_internal)
        means = np.asarray(means)
        empirical = means.std(ddof=1) / abs(means.mean())
        return float(np.mean(cvs) / empirical)

    gamma = GammaScaleFamily(n=20)
    r_gamma = calibration_ratio(gamma, gamma.mle(1.0), identity_statistic(),
                                "identity")
    mvn = MvNormalFamily(d=2, n=scores.n)
    r_eig = calibration_ratio(mvn, mvn.mle_from_data(scores.matrix),
                              eigenratio_statistic(), "eigenratio")
    _finish(9, [
        (f"gamma cv ratio {r_gamma:.3f} in [0.7, 1.4]",
         0.7 <= r_gamma <= 1.4),
        (f"eigenratio cv ratio {r_eig:.3f} in [0.7, 1.4]",
         0.7 <= r_eig <= 1.4),
    ])
