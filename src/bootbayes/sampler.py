"""Bootstrap replication tables: generation, substreams, persistence.

Replication i is fully determined by (master_seed, i): each replication gets
its own generator spawned from the master seed, so runs are reproducible and
any single replication can be regenerated in isolation.  The generators are
numpy's own, ``default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,)))``;
their seeds are hashed a block of indices at a time with SeedSequence's fixed
algorithm (NEP 19), which gives the same generators at a fraction of the cost.
The substream serves only the random draw of one raw row (for the multivariate
normal, the n drawn observations): a family's ``sample_replication`` takes
``Substreams``, which makes one generator at a time, and returns the (B, r)
table; points, coordinates, statistics and conversion terms are then computed
once over the whole table.  Other consumers of random bits use disjoint
substream blocks so that no two share a stream at the same master seed:

    [0, 2**61)          inner replications of a run
    [2**61, 2**62)      posterior-predictive draws (PREDICTIVE_STREAM_OFFSET)
    [2**62, 2**63)      nonparametric resampling (NONPARAM_STREAM_OFFSET)
    [2**63, ...)        outer bootstrap-after-bootstrap draws (OUTER_STREAM_OFFSET)
"""

from __future__ import annotations

import hashlib
import io
import json
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .expfam import CapabilityMissing, FamilyModel, NumericalFailure, rowdot
from .families import Statistic, family_from_meta

__all__ = [
    "OUTER_STREAM_OFFSET",
    "NONPARAM_STREAM_OFFSET",
    "PREDICTIVE_STREAM_OFFSET",
    "substream",
    "Substreams",
    "BootstrapRun",
    "run_bootstrap",
    "run_expanded_bootstrap",
    "nonparametric_resample",
    "save_store",
    "load_store",
    "store_digest",
    "MAX_REJECT_FRAC",
]

OUTER_STREAM_OFFSET = 2**63
NONPARAM_STREAM_OFFSET = 2**62
PREDICTIVE_STREAM_OFFSET = 2**61

# an expanded proposal fails once more than this share of its draws fell
# outside the expectation space and were redrawn
MAX_REJECT_FRAC = 0.5

STORE_FORMAT = "bootbayes-store-v1"


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replication of a run: the generator of
    ``default_rng(SeedSequence(entropy=master_seed, spawn_key=(index,)))``,
    seeded from state words hashed a block of indices at a time."""
    master_seed, index = operator.index(master_seed), operator.index(index)
    if master_seed < 0 or index < 0:
        raise ValueError("expected non-negative integer")
    words = _block_state(master_seed, index >> _BLOCK_BITS)[index & _BLOCK_MASK]
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


class Substreams:
    """The generators of substreams ``offset``, ..., ``offset + count - 1`` of
    a master seed, made one at a time as they are iterated; ``len`` gives the
    count, so a family can size its table before the first draw."""

    __slots__ = ("master_seed", "count", "offset")

    def __init__(self, master_seed: int, count: int, offset: int = 0):
        self.master_seed, self.count, self.offset = master_seed, count, offset

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for i in range(self.offset, self.offset + self.count):
            yield substream(self.master_seed, i)


# SeedSequence's pool mixing (NEP 19), a fixed algorithm on 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# 2**32 is a multiple of the block, so all indices of a block have the same
# 32-bit words above the lowest
_BLOCK_BITS = 12
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first; 0 is [0]."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


# The hash works on Python ints and on uint64 arrays alike: every product
# of two 32-bit values fits in 64 bits and is masked back to 32.
def _hashmix(value, hc: int, mult: int = _MULT_A):
    """(hashed value, next hash constant)."""
    value = value ^ hc
    hc = hc * mult & _MASK32
    value = value * hc & _MASK32
    return value ^ value >> 16, hc


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _mix_in(pool: list, hc: int, words) -> tuple[list, int]:
    """Mix entropy words beyond the pool size into every pool word."""
    for word in words:
        for dst in range(_POOL_SIZE):
            value, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], value)
    return pool, hc


def _seed_pool(master_seed: int) -> tuple[list, int]:
    """Pool and hash constant once the master seed's words are mixed in: the
    part of the hash shared by every index.  With a spawn key present, the
    seed's words are padded with zeros to the pool size."""
    words = _uint32_words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool, hc = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        value, hc = _hashmix(word, hc)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], value)
    return _mix_in(pool, hc, words[_POOL_SIZE:])


@lru_cache(maxsize=16)
def _block_state(master_seed: int, block: int) -> np.ndarray:
    """(2**_BLOCK_BITS, 4) uint64 PCG64 seed words of one aligned block of
    substream indices: the spawn key's words mixed into the seed's pool, then
    ``generate_state(4, np.uint64)``."""
    # registered at the first draw: importing bit_generator at package import
    # would load numpy.random there
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_StateWords)
    first = block << _BLOCK_BITS
    low = np.arange(1 << _BLOCK_BITS, dtype=np.uint64) + (first & _MASK32)
    pool, _ = _mix_in(*_seed_pool(master_seed), [low] + _uint32_words(first)[1:])
    state, hc = [], _INIT_B
    for k in range(8):
        value, hc = _hashmix(pool[k % _POOL_SIZE], hc, _MULT_B)
        state.append(value)
    words = np.stack([state[2 * k] | state[2 * k + 1] << 32 for k in range(4)], axis=1)
    words.flags.writeable = False
    return words


class _StateWords:
    """A SeedSequence stand-in that hands PCG64 its precomputed state words;
    PCG64 asks for exactly these, ``generate_state(4, np.uint64)``.
    ``_block_state`` registers it as an ``ISeedSequence``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


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
        """All stored replications as one stacked point, built once per run."""
        return self._points

    @cached_property
    def _points(self):
        return self.family.unflatten(self.params)

    @cached_property
    def bab_run_terms(self):
        """(alpha_i - alpha_hat, beta_hat), the outer-draw-free terms of the
        family's BaB multipliers (``family.bab_run_terms(run)``), built once
        per run."""
        return self.family.bab_run_terms(self)

    def with_statistic(self, stat: Statistic) -> "BootstrapRun":
        """Evaluate one more statistic over the stored replications."""
        return replace(self, t={**self.t, stat.id: stat.column(self.points(), self.B)})


def _tabulate(family, mle, B: int, master_seed: int, statistics, draw, points_of):
    """Tables of B replications: ``draw`` takes the run's ``Substreams`` and
    returns the (B, r) raw table, each row drawn from its own substream.

    ``points_of`` turns the raw table into one stacked point; params, alphas
    (None when the family has no canonical coordinates), each statistic
    column, delta and log_xi then come from one call each.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    stats = list(statistics)
    ids = [s.id for s in stats]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate statistic ids: {ids}")
    points = points_of(draw(Substreams(master_seed, B)))
    params = family.flatten(points)
    alphas = family.alpha_of(points)
    t = {s.id: s.column(points, B) for s in stats}
    return (params, alphas, family.delta(params, alphas, mle),
            family.log_xi(params, alphas, mle), t)


def run_bootstrap(family, mle, B: int, master_seed: int,
                  statistics=()) -> BootstrapRun:
    """Draw B replications from the family at its MLE and tabulate them."""
    tables = _tabulate(family, mle, B, master_seed, statistics,
                       lambda rngs: family.sample_replication(mle, rngs), family.points)
    return BootstrapRun(family, mle, B, master_seed, "standard", *tables)


def run_expanded_bootstrap(family, mle, B: int, master_seed: int,
                           pilot: BootstrapRun, h: float = 4.0,
                           statistics=()) -> BootstrapRun:
    """Replications from a widened normal proposal instead of the family itself.

    The proposal is N(pilot mean, h * pilot covariance); draws falling outside
    the expectation space are redrawn from the same substream.  The stored
    per-replication correction makes the downstream weight formulas identical
    to the standard-proposal case.  The run's proposal tag is ``expanded(h)``.
    """
    if not isinstance(family, FamilyModel):
        raise CapabilityMissing("expanded proposals need a canonical family")
    if pilot.B < 2:
        raise ValueError("pilot run too small to estimate a proposal covariance")
    center = pilot.params.mean(axis=0)
    cov = float(h) * np.atleast_2d(np.cov(pilot.params.T, ddof=1))
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
        family, mle, B, master_seed, statistics,
        lambda rngs: np.array([draw(rng) for rng in rngs]), family.unflatten)
    if rejected > MAX_REJECT_FRAC * (B + rejected):
        raise NumericalFailure(
            f"proposal rejection rate {rejected / (B + rejected):.0%} exceeds "
            f"{MAX_REJECT_FRAC:.0%}; the expansion h is too aggressive")

    # one solve and one dot product per row over the whole table: the LAPACK
    # and BLAS calls of a single row, with its bits
    z = np.linalg.solve(chol, (params - center)[..., None])[..., 0]
    log_g = -0.5 * (p * np.log(2.0 * np.pi) + logdet + rowdot(z, z))
    corr = -family.deviance(params, mle) / 2.0 - log_xi - log_g
    return BootstrapRun(family, mle, B, master_seed, f"expanded({float(h):g})", params,
                        alphas, delta, log_xi, t, log_prop_corr=corr, rejected=rejected)


def nonparametric_resample(values, B: int, master_seed: int, binner) -> np.ndarray:
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
        rng = substream(master_seed, NONPARAM_STREAM_OFFSET + i)
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
    row = "%d," + ",".join(["%.17g"] * table.shape[1]) + "\n"
    for i, values in enumerate(table.tolist()):
        buf.write(row % (i, *values))
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def load_store(path, family=None) -> BootstrapRun:
    """Rebuild a run from a store file; the family is reconstructed from
    metadata unless an instance is supplied.  A missing metadata key or
    column raises ValueError naming the file and the entry."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path}: not a run store (missing metadata line)")
        meta = json.loads(first[1:].strip())
        fmt = meta.get("format") if isinstance(meta, dict) else None
        if fmt != STORE_FORMAT:
            raise ValueError(f"{path}: unsupported store format {fmt!r}")
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {len(header)} column names, {data.shape[1]} columns")

    try:
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
                            meta["proposal_tag"], params, alphas, delta, log_xi, t,
                            log_prop_corr=corr, rejected=int(meta.get("rejected", 0)))
    except KeyError as exc:
        raise ValueError(f"{path}: malformed store, no {exc.args[0]!r}") from None


def store_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]
