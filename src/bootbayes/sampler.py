"""Bootstrap replication tables: generation, substreams, persistence.

Replication i is fully determined by (master_seed, i): each replication gets
its own generator spawned from the master seed, so runs are reproducible and
any single replication can be regenerated in isolation.  The substream serves
only the draw of one raw row; points, coordinates, statistics and conversion
terms are then computed once over the whole (B, r) table.  Other consumers of
random bits use disjoint substream blocks so that no two share a stream at the
same master seed:

    [0, 2**61)          inner replications of a run
    [2**61, 2**62)      posterior-predictive draws (PREDICTIVE_STREAM_OFFSET)
    [2**62, 2**63)      nonparametric resampling (NONPARAM_STREAM_OFFSET)
    [2**63, ...)        outer bootstrap-after-bootstrap draws (OUTER_STREAM_OFFSET)
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .expfam import CapabilityMissing, FamilyModel, NumericalFailure
from .families import Statistic, family_from_meta

__all__ = [
    "OUTER_STREAM_OFFSET",
    "NONPARAM_STREAM_OFFSET",
    "PREDICTIVE_STREAM_OFFSET",
    "substream",
    "BootstrapRun",
    "run_bootstrap",
    "run_expanded_bootstrap",
    "nonparametric_resample",
    "save_store",
    "load_store",
    "store_digest",
]

OUTER_STREAM_OFFSET = 2**63
NONPARAM_STREAM_OFFSET = 2**62
PREDICTIVE_STREAM_OFFSET = 2**61

STORE_FORMAT = "bootbayes-store-v1"


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replication of a run."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


@dataclass
class BootstrapRun:
    """Immutable-by-convention table of B parametric bootstrap replications.

    params holds the flat replication coordinates, alphas the canonical
    coordinates where the family has them, t one column per statistic.
    log_prop_corr is present only for non-standard proposals and shifts the
    log weights so the downstream formulas are proposal-agnostic.
    """

    family: object
    mle: object
    B: int
    master_seed: int
    proposal_tag: str
    params: np.ndarray
    alphas: np.ndarray | None
    delta: np.ndarray
    log_xi: np.ndarray
    t: dict[str, np.ndarray]
    log_prop_corr: np.ndarray | None = None
    rejected: int = 0

    @property
    def run_id(self) -> str:
        key = f"{self.family.family_id}|{self.B}|{self.master_seed}|{self.proposal_tag}"
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def statistic_values(self, statistic_id: str) -> np.ndarray:
        try:
            return self.t[statistic_id]
        except KeyError:
            known = ", ".join(sorted(self.t)) or "(none)"
            raise ValueError(
                f"unknown statistic {statistic_id!r}; run has: {known}") from None

    def points(self):
        """All stored replications as one stacked point."""
        return self.family.unflatten(self.params)

    def with_statistic(self, stat: Statistic) -> "BootstrapRun":
        """Evaluate one more statistic over the stored replications."""
        return replace(self, t={**self.t, stat.id: stat.column(self.points(), self.B)})


def _tabulate(family, mle, B: int, master_seed: int, statistics, draw, points_of):
    """Tables of B replications, each raw row drawn by ``draw`` from its own
    substream.

    ``points_of`` turns the (B, r) raw table into one stacked point; params,
    alphas (None when the family has no canonical coordinates), each
    statistic column, delta and log_xi then come from one call each.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    stats = list(statistics)
    ids = [s.id for s in stats]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate statistic ids: {ids}")
    points = points_of(np.array([draw(substream(master_seed, i)) for i in range(B)]))
    params = family.flatten(points)
    alphas = family.alpha_of(points)
    t = {s.id: s.column(points, B) for s in stats}
    return (params, alphas, family.delta(params, alphas, mle),
            family.log_xi(params, alphas, mle), t)


def run_bootstrap(family, mle, B: int, master_seed: int,
                  statistics=()) -> BootstrapRun:
    """Draw B replications from the family at its MLE and tabulate them."""
    tables = _tabulate(family, mle, B, master_seed, statistics,
                       lambda rng: family.sample_replication(mle, rng), family.points)
    return BootstrapRun(family, mle, B, master_seed, "standard", *tables)


def _proposal_cov(pilot: BootstrapRun, h):
    if pilot.B < 2:
        raise ValueError("pilot run too small to estimate a proposal covariance")
    cov = np.atleast_2d(np.cov(pilot.params.T, ddof=1))
    expanded = h(cov) if callable(h) else float(h) * cov
    return np.asarray(expanded, dtype=float)


def run_expanded_bootstrap(family, mle, B: int, master_seed: int,
                           pilot: BootstrapRun, h=4.0, h_tag: str | None = None,
                           statistics=(), max_reject_frac: float = 0.5) -> BootstrapRun:
    """Replications from a widened normal proposal instead of the family itself.

    The proposal is N(pilot mean, h * pilot covariance); draws falling outside
    the expectation space are redrawn from the same substream.  The stored
    per-replication correction makes the downstream weight formulas identical
    to the standard-proposal case.
    """
    if not isinstance(family, FamilyModel):
        raise CapabilityMissing("expanded proposals need a canonical family")
    center = pilot.params.mean(axis=0)
    cov = _proposal_cov(pilot, h)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("proposal covariance not positive definite") from exc
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    p = family.param_dim
    rejected = 0

    def draw(rng):
        nonlocal rejected
        for _ in range(1000):
            x = center + chol @ rng.standard_normal(p)
            if family.in_expectation_space(x):
                return x
            rejected += 1
        raise NumericalFailure(
            "proposal rarely lands in the expectation space; shrink h")

    params, alphas, delta, log_xi, t = _tabulate(
        family, mle, B, master_seed, statistics, draw, family.unflatten)
    if rejected > max_reject_frac * (B + rejected):
        raise NumericalFailure(
            f"proposal rejection rate {rejected / (B + rejected):.0%} exceeds "
            f"{max_reject_frac:.0%}; the expansion h is too aggressive")

    corr = np.empty(B)
    for i, x in enumerate(params):
        z = np.linalg.solve(chol, x - center)
        log_g = -0.5 * (p * np.log(2.0 * np.pi) + logdet + z @ z)
        corr[i] = -family.deviance(x, mle) / 2.0 - log_xi[i] - log_g

    tag = f"expanded({h_tag if h_tag is not None else _h_label(h)})"
    return BootstrapRun(family, mle, B, master_seed, tag, params, alphas,
                        delta, log_xi, t, log_prop_corr=corr, rejected=rejected)


def _h_label(h) -> str:
    return getattr(h, "__name__", None) or f"{float(h):g}"


def nonparametric_resample(values, B: int, master_seed: int, binner,
                           stream_offset: int = NONPARAM_STREAM_OFFSET) -> np.ndarray:
    """B rows of resampled-with-replacement counts, binned by ``binner``.

    binner maps a value vector to a count vector; the values may already be
    bin indices, so their dtype is kept.  Rows use the common substream
    convention but from their own offset block, so a parametric run at the
    same master seed shares no random bits with the resampling.
    """
    values = np.asarray(values)
    n = values.size
    if n == 0:
        raise ValueError("cannot resample an empty dataset")
    first = np.asarray(binner(values), dtype=float)
    out = np.empty((B, first.size))
    for i in range(B):
        rng = substream(master_seed, stream_offset + i)
        out[i] = binner(values[rng.integers(0, n, n)])
    return out


# store format ---------------------------------------------------------------


def _blocks(run: BootstrapRun) -> list[tuple[list[str], np.ndarray]]:
    """(column names, values) of each stored block, in file order."""
    p = run.params.shape[1]
    blocks = [([f"beta_{j+1}" for j in range(p)], run.params)]
    if run.alphas is not None:
        blocks.append(([f"alpha_{j+1}" for j in range(p)], run.alphas))
    blocks += [(["delta"], run.delta[:, None]), (["log_xi"], run.log_xi[:, None])]
    if run.log_prop_corr is not None:
        blocks.append((["log_prop_corr"], run.log_prop_corr[:, None]))
    return blocks + [([f"t_{sid}"], v[:, None]) for sid, v in run.t.items()]


def save_store(run: BootstrapRun, path) -> None:
    """Write a run as a self-describing CSV with a JSON metadata comment."""
    meta = {
        "format": STORE_FORMAT,
        "family_id": run.family.family_id,
        "family_meta": run.family.meta(),
        "mle": run.family.mle_meta(run.mle),
        "B": run.B,
        "master_seed": run.master_seed,
        "proposal_tag": run.proposal_tag,
        "statistics": list(run.t),
        "rejected": run.rejected,
    }
    blocks = _blocks(run)
    table = np.hstack([values for _, values in blocks])

    buf = io.StringIO()
    buf.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    buf.write(",".join(["rep"] + [c for names, _ in blocks for c in names]) + "\n")
    for i in range(run.B):
        row = ",".join("%.17g" % v for v in table[i])
        buf.write(f"{i},{row}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_store(path, family=None) -> BootstrapRun:
    """Rebuild a run from a store file; the family is reconstructed from
    metadata unless an instance is supplied."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: not a run store (missing metadata line)")
        meta = json.loads(first[1:].strip())
        if meta.get("format") != STORE_FORMAT:
            raise ValueError(f"{path}: unsupported store format {meta.get('format')!r}")
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)

    if family is None:
        family = family_from_meta(meta["family_meta"])
    if family.family_id != meta["family_id"]:
        raise ValueError(
            f"store family {meta['family_id']} does not match {family.family_id}")
    mle = family.mle_from_meta(meta["mle"])
    B = int(meta["B"])
    if data.shape[0] != B:
        raise ValueError(f"{path}: expected {B} rows, found {data.shape[0]}")

    col = {name: j for j, name in enumerate(header)}
    p = family.param_dim
    params = data[:, [col[f"beta_{j+1}"] for j in range(p)]]
    alphas = None
    if "alpha_1" in col:
        alphas = data[:, [col[f"alpha_{j+1}"] for j in range(p)]]
    delta = data[:, col["delta"]]
    log_xi = data[:, col["log_xi"]]
    corr = data[:, col["log_prop_corr"]] if "log_prop_corr" in col else None
    t = {sid: data[:, col[f"t_{sid}"]] for sid in meta["statistics"]}
    return BootstrapRun(family, mle, B, int(meta["master_seed"]),
                        meta["proposal_tag"], params, alphas, delta, log_xi,
                        t, log_prop_corr=corr, rejected=int(meta.get("rejected", 0)))


def store_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]
