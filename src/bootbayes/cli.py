"""Command line front end.

Exit codes: 0 success, 2 invalid configuration or input, 3 numerical failure
(non-convergence, singular matrices, degenerate weights, a NaN or infinite
report value).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

# only what `bootbayes run` needs; each other module is imported where it is
# used, so a command loads only the modules it runs
from .expfam import (CapabilityMissing, NumericalFailure, _json_entry,
                     _reading_meta, _report_text, write_report)
from .families import (Statistic, correlation_statistic, eigenratio_statistic,
                       family_from_meta, log_prior_inverse_wishart,
                       MvNormalFamily)
from .posterior import Prior, importance_weights, summarize
from .sampler import _unique_ids, load_store, run_bootstrap, save_store, store_digest
from .version import __version__

# --prior's choices; bca's prior is built per statistic from its BCa weights
PRIORS = {"jeffreys": Prior.jeffreys(), "flat": Prior.flat(), "bca": None,
          "inverse-wishart": Prior.from_log_density("inverse_wishart",
                                                    log_prior_inverse_wishart)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootbayes",
        description="Bayes posteriors and accuracy diagnostics from "
                    "reweighted parametric-bootstrap replications")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # a study option left out of argv is left out of the study call too, so
    # its default is the one in the study function's signature
    def common(p):
        p.add_argument("--B", type=int, default=argparse.SUPPRESS,
                       help="bootstrap replications")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="master seed")
        p.add_argument("--level", type=float, default=argparse.SUPPRESS,
                       help="interval level")
        p.add_argument("--out", type=Path, default=None,
                       help="directory for report, store and density files")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="stdout format of the report")

    p = sub.add_parser("correlation", help="student-score correlation study")
    common(p)
    p.add_argument("--scores", type=Path, default=None,
                   help="CSV with header mech,vec (default: built-in data)")

    p = sub.add_parser("eigenratio", help="score covariance eigenratio study")
    common(p)
    p.add_argument("--scores", type=Path, default=None)

    p = sub.add_parser("prostate", help="fdr and model selection on z-values")
    common(p)
    p.add_argument("--zfile", type=Path, required=True,
                   help="text file, one z-value per line")
    p.add_argument("--K", type=int, default=argparse.SUPPRESS,
                   help="outer accuracy replications")
    p.add_argument("--degree", type=int, default=argparse.SUPPRESS,
                   help="largest polynomial degree")
    p.add_argument("--bins", type=int, default=argparse.SUPPRESS,
                   help="number of z bins, at least 38 so that the last "
                        "bin center reaches the fdr threshold z=3")

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
    if name in ("correlation", "eigenratio"):
        if not isinstance(family, MvNormalFamily):
            raise ValueError(f"{name} statistic needs the mvnormal family")
        if name == "eigenratio":
            return eigenratio_statistic()
        if family.d != 2:
            raise ValueError("correlation statistic needs a bivariate mvnormal "
                             f"family, got d={family.d}")
        return correlation_statistic()
    if name.startswith("fdr:"):
        from .glm import fdr_statistic
        if getattr(family, "centers", None) is None:
            raise ValueError("fdr statistic needs a binned-count family")
        try:
            z = float(name.split(":", 1)[1])
        except ValueError:
            z = math.nan
        if not math.isfinite(z):
            raise ValueError(f"statistic {name!r}: threshold must be a finite number")
        return fdr_statistic(z, family.centers)
    raise ValueError(f"unknown statistic {name!r}")


def cmd_run(args, parser) -> dict:
    """Summarize each statistic of a family spec under ``--prior``.  With
    ``--store``, a store that exists is reused, after its family, B, seed and
    estimate are checked against the request, and gains any statistic it
    lacks; otherwise the run is drawn and, with ``--store``, written.  A spec
    entry that is missing, of the wrong JSON type or invalid, or a statistic
    id named twice, raises ValueError naming the spec file."""
    with _reading_meta(f"{args.family_spec}: malformed family spec"):
        spec = json.loads(args.family_spec.read_text())
        if not isinstance(spec, dict):
            raise ValueError(f"must be a JSON object, got {spec!r}")
        names = _json_entry(spec, "statistics", list)
        if not names:
            raise ValueError("'statistics' names no statistic")
        family = family_from_meta(_json_entry(spec, "family"))
        mle = family.mle_from_meta(_json_entry(spec, "mle"))
        stats = [_stat_builder(name, family) for name in names]
        _unique_ids(s.id for s in stats)
    if args.prior == "inverse-wishart" and not isinstance(family, MvNormalFamily):
        raise ValueError("inverse-wishart prior applies only to the mvnormal family")

    reused = args.store is not None and args.store.exists()
    if reused:
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
        for s in stats:
            if s.id not in run.t:
                run = run.with_statistic(s)
        print(f"reusing store {args.store} (sha256 {store_digest(args.store)})",
              file=sys.stderr)
    else:
        run = run_bootstrap(family, mle, args.B, args.seed, stats)
        if args.store is not None:
            save_store(run, args.store)
            print(f"wrote store {args.store} (sha256 {store_digest(args.store)})",
                  file=sys.stderr)

    summaries = [_summarize(run, s, args.prior, args.level, args.truncate)
                 for s in stats]
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
    prior, extra = PRIORS[prior_name], {}
    if prior is None:
        # bca: the prior implied by the statistic's own BCa weights
        from .bca import (BcaConstants, bca_prior, family_skew_acceleration,
                          z0_estimate)
        theta_hat = float(stat(run.mle))
        z0 = z0_estimate(run, stat.id, theta_hat)
        try:
            a = family_skew_acceleration(run.family, run.mle, stat)
            source = "family_skew_a"
        except CapabilityMissing:
            a, source = 0.0, "fixed"
            print(f"warning: {run.family.family_id} has no skewness map; "
                  "using a=0", file=sys.stderr)
        prior = bca_prior(run, stat.id, BcaConstants(z0, a))
        extra = {"z0": z0, "a": a, "a_source": source}
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
        report = (cmd_run(args, parser) if args.command == "run"
                  else _study(args))
        text = _report_text(report, args.format)
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so this arm must come first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _study(args) -> dict:
    """Run the study subcommand ``args.command`` with the options given."""
    from . import studies

    given = {k: v for k, v in vars(args).items()
             if k in ("B", "seed", "level", "K", "degree")}
    if args.command == "prostate":
        if "bins" in vars(args):
            given["bins"] = studies.BinSpec(args.bins)
        return studies.study_prostate(studies.load_zvalues(args.zfile),
                                      out_dir=args.out, **given)
    study = (studies.study_correlation if args.command == "correlation"
             else studies.study_eigenratio)
    return study(scores=args.scores and studies.load_scores(args.scores),
                 out_dir=args.out, **given)


if __name__ == "__main__":
    sys.exit(main())
