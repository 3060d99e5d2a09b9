"""Command line front end.

Exit codes: 0 success, 2 invalid configuration or input, 3 numerical failure
(non-convergence, singular matrices, degenerate weights).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bca import BcaConstants, bca_weights, family_skew_acceleration, z0_estimate
from .expfam import CapabilityMissing, NumericalFailure
from .families import (Statistic, correlation_statistic, eigenratio_statistic,
                       family_from_meta, log_prior_inverse_wishart,
                       MvNormalFamily)
from .posterior import Prior, importance_weights, summarize
from .sampler import load_store, run_bootstrap, save_store, store_digest
from .studies import (BinSpec, CORRELATION_SEED, EIGENRATIO_SEED, PROSTATE_SEED,
                      load_scores, load_zvalues, study_correlation,
                      study_eigenratio, study_prostate, write_report)
from .version import __version__

PRIORS = ("jeffreys", "flat", "bca", "inverse-wishart")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootbayes",
        description="Bayes posteriors and accuracy diagnostics from "
                    "reweighted parametric-bootstrap replications")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed, b):
        p.add_argument("--B", type=int, default=b, help="bootstrap replications")
        p.add_argument("--seed", type=int, default=seed, help="master seed")
        p.add_argument("--level", type=float, default=0.95, help="interval level")
        p.add_argument("--out", type=Path, default=None,
                       help="directory for report, store and density files")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout format of the report")

    p = sub.add_parser("correlation", help="student-score correlation study")
    common(p, CORRELATION_SEED, 10000)
    p.add_argument("--scores", type=Path, default=None,
                   help="CSV with header mech,vec (default: built-in data)")

    p = sub.add_parser("eigenratio", help="score covariance eigenratio study")
    common(p, EIGENRATIO_SEED, 10000)
    p.add_argument("--scores", type=Path, default=None)

    p = sub.add_parser("prostate", help="fdr and model selection on z-values")
    common(p, PROSTATE_SEED, 4000)
    p.add_argument("--zfile", type=Path, required=True,
                   help="text file, one z-value per line")
    p.add_argument("--K", type=int, default=200, help="outer accuracy replications")
    p.add_argument("--degree", type=int, default=8, help="largest polynomial degree")
    p.add_argument("--bins", type=int, default=49, help="number of z bins")

    p = sub.add_parser("run", help="generic run over a family spec file")
    p.add_argument("--family-spec", type=Path, required=True,
                   help="JSON file with family, mle and statistics")
    p.add_argument("--B", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prior", choices=PRIORS, default="jeffreys")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--truncate", type=float, default=None,
                   help="weight truncation quantile in (0, 1]")
    p.add_argument("--store", type=Path, default=None,
                   help="replication store: reused if present, written otherwise")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _validate(args, parser):
    if getattr(args, "B", 1) < 1:
        parser.error("--B must be at least 1")
    if not 0.0 < getattr(args, "level", 0.5) < 1.0:
        parser.error("--level must be in (0, 1)")
    if getattr(args, "K", 2) < 2:
        parser.error("--K must be at least 2")
    if getattr(args, "truncate", None) is not None and not 0.0 < args.truncate <= 1.0:
        parser.error("--truncate must be in (0, 1]")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    else:
        for key, value in sorted(_flatten(report).items()):
            sys.stdout.write(f"{key},{value}\n")


def _flatten(obj, prefix=""):
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for j, v in enumerate(obj):
            flat.update(_flatten(v, f"{prefix}{j}."))
    else:
        flat[prefix[:-1]] = obj
    return flat


def _stat_builder(name: str, family) -> Statistic:
    if name == "identity":
        if family.param_dim != 1:
            raise ValueError("identity statistic needs a one-dimensional family")
        return Statistic("identity", lambda pts: family.flatten(pts)[..., 0])
    if name.startswith("coord:"):
        text = name.split(":", 1)[1]
        if not (text.isdecimal() and int(text) < family.param_dim):
            raise ValueError(f"statistic {name!r}: coordinate must be in "
                             f"0..{family.param_dim - 1}")
        j = int(text)
        return Statistic(f"coord_{j}", lambda pts: family.flatten(pts)[..., j])
    if name == "correlation":
        return correlation_statistic()
    if name == "eigenratio":
        return eigenratio_statistic()
    if name.startswith("fdr:"):
        from .glm import fdr_statistic
        if getattr(family, "centers", None) is None:
            raise ValueError("fdr statistic needs a binned-count family")
        return fdr_statistic(float(name.split(":", 1)[1]), family.centers)
    raise ValueError(f"unknown statistic {name!r}")


def cmd_run(args, parser) -> dict:
    spec = json.loads(args.family_spec.read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"family spec must be a JSON object, got {spec!r}")
    for key in ("family", "mle", "statistics"):
        if key not in spec:
            raise ValueError(f"family spec is missing the {key!r} entry")
    names = spec["statistics"]
    if not isinstance(names, list) or not names:
        raise ValueError("family spec 'statistics' must be a non-empty list of "
                         f"statistic names, got {names!r}")
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"family spec 'statistics' entry {name!r} is not a name")
    for key in ("family", "mle"):
        if not isinstance(spec[key], dict):
            raise ValueError(f"family spec {key!r} must be a JSON object, "
                             f"got {spec[key]!r}")
    try:
        family = family_from_meta(spec["family"])
        mle = family.mle_from_meta(spec["mle"])
    except KeyError as exc:
        raise ValueError(f"malformed family spec, no {exc.args[0]!r}") from None
    stats = [_stat_builder(name, family) for name in names]

    run = None
    reused = False
    if args.store is not None and args.store.exists():
        run = load_store(args.store)
        if run.family.family_id != family.family_id:
            raise ValueError(
                f"store holds {run.family.family_id}, spec asks for {family.family_id}")
        if run.B != args.B or run.master_seed != args.seed:
            raise ValueError(
                f"store holds B={run.B} seed={run.master_seed}, requested "
                f"B={args.B} seed={args.seed}")
        if not np.array_equal(run.family.flatten(run.mle), family.flatten(mle)):
            raise ValueError(
                "store holds replications drawn at another estimate than the "
                "spec's mle")
        missing = [s.id for s in stats if s.id not in run.t]
        for s in stats:
            if s.id in missing:
                run = run.with_statistic(s)
        reused = True
        print(f"reusing store {args.store} (sha256 {store_digest(args.store)})",
              file=sys.stderr)
    if run is None:
        run = run_bootstrap(family, mle, args.B, args.seed, stats)
        if args.store is not None:
            save_store(run, args.store)
            print(f"wrote store {args.store} (sha256 {store_digest(args.store)})",
                  file=sys.stderr)

    summaries = []
    for s in stats:
        summaries.append(_summarize(run, s, args.prior, args.level, args.truncate))
    report = {
        "version": __version__,
        "B": args.B,
        "seed": args.seed,
        "family": run.family.family_id,
        "prior": args.prior,
        "store_reused": reused,
        "summaries": summaries,
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_report(report, args.out / "report.json")
    return report


def _summarize(run, stat: Statistic, prior_name: str, level: float,
               truncate) -> dict:
    extra = {}
    if prior_name == "bca":
        theta_hat = float(stat(run.mle))
        z0 = z0_estimate(run, stat.id, theta_hat)
        try:
            a = family_skew_acceleration(run.family, run.mle, stat)
            source = "family_skew_a"
        except CapabilityMissing:
            a, source = 0.0, "fixed"
            print(f"warning: {run.family.family_id} has no skewness map; "
                  "using a=0", file=sys.stderr)
        weights = bca_weights(run, stat.id, BcaConstants(z0, a), truncate)
        extra = {"z0": z0, "a": a, "a_source": source}
    else:
        if prior_name == "inverse-wishart":
            if not isinstance(run.family, MvNormalFamily):
                raise ValueError(
                    "inverse-wishart prior applies only to the mvnormal family")
            prior = Prior.from_log_density("inverse_wishart",
                                           log_prior_inverse_wishart)
        elif prior_name == "jeffreys":
            prior = Prior.jeffreys()
        else:
            prior = Prior.flat()
        weights = importance_weights(run, prior, truncate)
    post = summarize(run, weights, stat.id, level)
    return {
        "statistic": stat.id,
        "prior": prior_name,
        "estimate": post.mean,
        "ci": list(post.interval),
        "level": level,
        "cv_internal": post.cv_internal,
        "ess": post.ess,
        "B": run.B,
        "seed": run.master_seed,
        **extra,
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        if args.command == "correlation":
            report = study_correlation(B=args.B, seed=args.seed,
                                       scores=args.scores and load_scores(args.scores),
                                       level=args.level, out_dir=args.out)
        elif args.command == "eigenratio":
            report = study_eigenratio(B=args.B, seed=args.seed,
                                      scores=args.scores and load_scores(args.scores),
                                      level=args.level, out_dir=args.out)
        elif args.command == "prostate":
            bins = _binspec_for(args.bins)
            report = study_prostate(load_zvalues(args.zfile), B=args.B, K=args.K,
                                    seed=args.seed, level=args.level,
                                    degree=args.degree, bins=bins,
                                    out_dir=args.out)
        else:
            report = cmd_run(args, parser)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so this arm must come first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return 0


def _binspec_for(count: int) -> BinSpec:
    default = BinSpec()
    if count == default.count:
        return default
    if count < 8:
        raise ValueError("need at least 8 bins")
    return BinSpec(lo=default.lo,
                   hi=default.lo + default.width * (count - 1),
                   width=default.width)


if __name__ == "__main__":
    sys.exit(main())
