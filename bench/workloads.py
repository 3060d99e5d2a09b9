"""The benchmark's three workloads: generated inputs, set-up and one pass.

A pass is one closed-loop unit of user work.  CLI steps run as users run
them, ``python -m bootbayes.cli ...`` in a fresh process; the library steps
of ``mvn_reuse`` run in the benchmark process.  The same step lists drive the
traced run, which executes CLI steps in-process through
``bootbayes.cli.main(argv)`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# --seed 0 selects the paper's seeds; any other value derives fresh ones
DEFAULT_SEED = 0
PAPER_SEEDS = {"correlation": 7, "eigenratio": 15, "prostate": 11, "zvalues": 4}


def workload_seeds(seed: int) -> dict[str, int]:
    if seed == DEFAULT_SEED:
        return dict(PAPER_SEEDS)
    state = np.random.SeedSequence(seed).generate_state(len(PAPER_SEEDS))
    return {name: int(v % 2**31) for name, v in zip(PAPER_SEEDS, state)}


@dataclass(frozen=True)
class Sizes:
    B_mvn: int = 10000
    B_prostate: int = 4000
    K: int = 200


PAPER_SIZES = Sizes()
SMOKE_SIZES = Sizes(B_mvn=400, B_prostate=400, K=24)


@dataclass(frozen=True)
class CliStep:
    """One ``bootbayes`` invocation; its stdout goes to ``<name>.stdout``."""

    name: str
    argv: list[str]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class LibStep:
    """In-process library queries; ``run(out_dir, ops)`` makes each query
    through ``ops`` so attempted queries are counted even if one raises."""

    name: str
    run: Callable[[Path, "Counter"], None]
    outputs: tuple[str, ...]


class Counter:
    """Operations attempted by a library step."""

    def __init__(self):
        self.attempted = 0

    def query(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)


def zvalues(seed: int) -> np.ndarray:
    """Synthetic prostate-like z-values: null bulk plus a shifted component."""
    rng = np.random.default_rng(seed)
    z = np.concatenate([rng.normal(0.0, 1.05, 5500), rng.normal(3.2, 1.0, 250)])
    return z[(z > -4.4) & (z < 5.2)]


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes = PAPER_SIZES):
        self.seed = seed
        self.seeds = workload_seeds(seed)
        self.sizes = sizes

    def setup_steps(self, work: Path) -> list[CliStep]:
        """CLI steps that prepare inputs; run before every set-up check."""
        return []

    def prepare(self, work: Path) -> None:
        """Set-up work done in the benchmark process after setup_steps."""

    def steps(self, work: Path, out: Path) -> list:
        raise NotImplementedError


class MvnStudies(Workload):
    """Fresh draws: correlation then eigenratio, each in a new process."""

    name = "mvn_studies"

    def steps(self, work, out):
        b = str(self.sizes.B_mvn)
        return [
            CliStep("correlation",
                    ["correlation", "--B", b, "--seed",
                     str(self.seeds["correlation"]), "--out", str(out / "correlation")],
                    ("correlation/report.json",)),
            CliStep("eigenratio",
                    ["eigenratio", "--B", b, "--seed",
                     str(self.seeds["eigenratio"]), "--out", str(out / "eigenratio")],
                    ("eigenratio/report.json",)),
        ]


class MvnReuse(Workload):
    """One stored eigenratio run serves a new prior, an attached statistic,
    BaB and the jackknife; no inner replication is drawn."""

    name = "mvn_reuse"

    def setup_steps(self, work):
        return [CliStep("store", ["eigenratio", "--B", str(self.sizes.B_mvn),
                                  "--seed", str(self.seeds["eigenratio"]),
                                  "--out", str(work / "store")], ())]

    def prepare(self, work):
        # the family spec takes its family and MLE from the store's metadata
        with open(work / "store" / "store.csv") as fh:
            meta = json.loads(fh.readline()[1:])
        spec = {"family": meta["family_meta"], "mle": meta["mle"],
                "statistics": ["eigenratio", "correlation"]}
        (work / "spec.json").write_text(json.dumps(spec, sort_keys=True) + "\n")

    def steps(self, work, out):
        seed = self.seeds["eigenratio"]
        store = work / "store" / "store.csv"

        def queries(out_dir: Path, ops: Counter) -> None:
            import bootbayes
            run = ops.query(bootbayes.sampler.load_store, store)
            weights = ops.query(bootbayes.posterior.importance_weights, run,
                                bootbayes.posterior.Prior.jeffreys())
            reports = {}
            for label, quantity in (("bab_mean", "mean"),
                                    ("bab_q975", ("quantile", 0.975))):
                reports[label] = ops.query(
                    bootbayes.accuracy.bab_standard_error, run, weights,
                    "eigenratio", self.sizes.K, seed, quantity=quantity).to_dict()
            rows = bootbayes.studies.load_scores().matrix
            reports["jackknife_mean"] = ops.query(
                bootbayes.accuracy.jackknife_standard_error, run, weights,
                "eigenratio", rows).to_dict()
            reports["jeffreys_ess"] = weights.ess
            (out_dir / "reuse_se.json").write_text(
                json.dumps(reports, sort_keys=True, indent=1) + "\n")

        return [
            CliStep("run", ["run", "--family-spec", str(work / "spec.json"),
                            "--prior", "inverse-wishart", "--B",
                            str(self.sizes.B_mvn), "--seed", str(seed),
                            "--store", str(store)],
                    ("run.stdout",)),
            LibStep("queries", queries, ("reuse_se.json",)),
        ]


class Prostate(Workload):
    """The IRLS-heavy prostate study on synthetic z-values."""

    name = "prostate"

    def prepare(self, work):
        z = zvalues(self.seeds["zvalues"])
        (work / "zvalues.txt").write_text("".join("%.17g\n" % v for v in z))

    def steps(self, work, out):
        return [CliStep("prostate",
                        ["prostate", "--zfile", str(work / "zvalues.txt"),
                         "--B", str(self.sizes.B_prostate), "--K", str(self.sizes.K),
                         "--seed", str(self.seeds["prostate"]),
                         "--out", str(out / "prostate")],
                        ("prostate/report.json", "prostate/model_table.csv"))]


WORKLOADS = {w.name: w for w in (MvnStudies, MvnReuse, Prostate)}
