import json
import os
from pathlib import Path

import numpy as np
import pytest

from bootbayes import (MvNormalFamily, Statistic, correlation_statistic,
                       eigenratio_statistic, run_bootstrap)
from bootbayes.studies import (CORRELATION_SEED, EIGENRATIO_SEED, load_scores,
                               study_correlation, study_eigenratio)


ACCEPTANCE_LINES: dict = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # replay acceptance verdicts after capture ends, one line per criterion
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for criterion in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[criterion])


def one_row(family, point, mle):
    """Arguments of ``family.delta`` and ``family.log_xi`` for a single point:
    its one-row params and alphas tables, then the estimate."""
    alpha = family.alpha_of(point)
    return (family.flatten(point)[None, :],
            None if alpha is None else np.atleast_1d(alpha)[None, :], mle)


def identity_statistic() -> Statistic:
    return Statistic("identity", lambda b: np.asarray(b)[..., 0])


def drop_store_entry(path, name, out):
    """Copy the store at ``path`` to ``out`` without its metadata key or
    column ``name``; returns ``out``."""
    first, header, *rows = Path(path).read_text().splitlines()
    meta = json.loads(first[1:])
    if name in meta:
        del meta[name]
        first = "# " + json.dumps(meta)
    else:
        k = header.split(",").index(name)
        header, *rows = [",".join(v for j, v in enumerate(line.split(",")) if j != k)
                         for line in [header, *rows]]
    Path(out).write_text("\n".join([first, header, *rows]) + "\n")
    return out


def numpy_substream(seed, index):
    """numpy's own generator for substream ``index`` of a master seed, built
    without the package's seeding code."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def fresh_env(**extra):
    """Environment of a fresh interpreter that imports the package from
    ``src``: no inherited variables except ``PYTHONDONTWRITEBYTECODE`` when
    the caller set it, so a test run that asked for no bytecode cache writes
    none into the checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    keep = {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE",)
            if k in os.environ}
    return {**keep, "PYTHONPATH": str(src), "PATH": "", **extra}


def find_prostate_zfile():
    """Path to a real z-value file if one is available, else None.

    Checked in order: the BOOTBAYES_PROSTATE_ZFILE environment variable, then
    a couple of conventional repository locations.
    """
    env = os.environ.get("BOOTBAYES_PROSTATE_ZFILE")
    if env and Path(env).is_file():
        return Path(env)
    root = Path(__file__).resolve().parent.parent
    for cand in (root / "data" / "prostate_zvalues.txt",
                 root / "data" / "prostate_z.txt"):
        if cand.is_file():
            return cand
    return None


@pytest.fixture(scope="session")
def scores():
    return load_scores()


@pytest.fixture(scope="session")
def correlation_report():
    # the full-size run behind most of the correlation-study assertions
    return study_correlation(B=10_000, seed=CORRELATION_SEED)


@pytest.fixture(scope="session")
def eigenratio_report():
    return study_eigenratio(B=10_000, seed=EIGENRATIO_SEED)


@pytest.fixture(scope="session")
def correlation_run(scores):
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    return run_bootstrap(family, mle, B=10_000, master_seed=CORRELATION_SEED,
                         statistics=[correlation_statistic()])


@pytest.fixture(scope="session")
def eigenratio_run(scores):
    family = MvNormalFamily(d=2, n=scores.n)
    mle = family.mle_from_data(scores.matrix)
    return run_bootstrap(family, mle, B=10_000, master_seed=EIGENRATIO_SEED,
                         statistics=[eigenratio_statistic()])


@pytest.fixture(scope="session")
def synthetic_zvalues():
    # prostate-like z-values: a null bulk plus a shifted component
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.normal(0.0, 1.05, 5500), rng.normal(3.2, 1.0, 250)])
    return z[(z > -4.4) & (z < 5.2)]
