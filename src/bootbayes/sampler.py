"""Bootstrap replication tables: generation, substreams, persistence.

Replication i is fully determined by (master_seed, i): each replication gets
its own generator spawned from the master seed, so runs are reproducible and
any single replication can be regenerated in isolation.  Every stored column
of row i depends on (master_seed, i) alone, not on its block, so a run of B
rows is a prefix of every longer run at the same seed.  The generators are
numpy's own, ``default_rng(SeedSequence(entropy=master_seed, spawn_key=(i,)))``;
their seeds are hashed a block of indices at a time with SeedSequence's fixed
algorithm (NEP 19), which gives the same generators at a fraction of the cost.
The substream serves only the random draw of one raw row (for the multivariate
normal, the n drawn observations): a family's ``sample_replication`` takes
``Substreams``, which makes one generator at a time, and returns a table of
raw rows.  A run is built one block of rows at a time, expfam's _ROW_BLOCK
(256), the one block size of every pass over a table: a block's raw rows
are drawn, then its points, coordinates, statistics and conversion terms
come from one call each, so the working memory is one block's raw rows and
temporaries plus the (B, p) tables kept; a store is written a block of rows
at a time too.  Other consumers of random bits use disjoint substream blocks
so that no two share a stream at the same master seed:

    [0, 2**61)          inner replications of a run
    [2**61, 2**62)      unused
    [2**62, 2**63)      nonparametric resampling (NONPARAM_STREAM_OFFSET)
    [2**63, ...)        outer bootstrap-after-bootstrap draws (OUTER_STREAM_OFFSET)

Because the blocks are disjoint, work on different blocks can run in any
order or in separate processes and give bit-identical results; the prostate
study runs its nonparametric resampling in a forked child on that ground.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .expfam import (_ROW_BLOCK, NumericalFailure, _RowFailure, _json_entry,
                     _reading_meta, _whole, rowdot)
from .families import Statistic, family_from_meta

__all__ = [
    "OUTER_STREAM_OFFSET",
    "NONPARAM_STREAM_OFFSET",
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

# an expanded proposal fails once more than this share of its draws fell
# outside the expectation space and were redrawn
MAX_REJECT_FRAC = 0.5

STORE_FORMAT = "bootbayes-store-v1"


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replication of a run: the generator of
    ``default_rng(SeedSequence(entropy=master_seed, spawn_key=(index,)))``,
    seeded from state words hashed a block of indices at a time.  Both are
    whole numbers of at least 0; a float or bool raises ValueError."""
    master_seed, index = _whole("master_seed", master_seed, 0), _whole("index", index, 0)
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

    # the estimate is in the key, so weights of a run at another estimate fail
    @property
    def run_id(self) -> str:
        key = (f"{self.family.family_id}|{self.B}|{self.master_seed}|{self.proposal_tag}"
               f"|{self.family.flatten(self.mle).tolist()}")
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def statistic_values(self, statistic_id: str) -> np.ndarray:
        try:
            return self.t[statistic_id]
        except KeyError:
            known = ", ".join(sorted(self.t)) or "(none)"
            raise ValueError(
                f"unknown statistic {statistic_id!r}; run has: {known}") from None

    def points(self):
        """All stored replications as one stacked point, built once per run
        from its stored tables by ``family.stored_points``."""
        return self._points

    @cached_property
    def _points(self):
        return self.family.stored_points(self.params, self.alphas)

    @cached_property
    def bab_run_terms(self):
        """(alpha_i - alpha_hat) of every replication, from its points where no
        alphas are stored, and beta_hat: the run's terms of the BaB multipliers."""
        fam = self.family
        alphas = self.alphas if self.alphas is not None else fam.canonical_of(self.points())
        return alphas - fam.canonical_of(self.mle), fam.mean_of(self.mle)

    def with_statistic(self, stat: Statistic) -> "BootstrapRun":
        """Evaluate one more statistic over the stored replications; an id
        the run already holds raises ValueError."""
        _unique_ids([*self.t, stat.id])
        return replace(self, t={**self.t, stat.id: stat.column(self.points(), self.B)})


def _unique_ids(ids) -> list[str]:
    """Statistic ids as a list; one that repeats raises ValueError."""
    ids = list(ids)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate statistic ids: {ids}")
    return ids


def _tabulate(family, mle, B: int, master_seed: int, statistics, draw, points_of):
    """Tables of B replications, built expfam's _ROW_BLOCK rows at a time:
    ``draw`` takes the block's ``Substreams`` and returns its raw rows, each
    drawn from its own substream.

    ``points_of`` turns a block's raw rows into one stacked point; params,
    alphas (None when the family has no canonical coordinates), each
    statistic column, delta and log_xi of the block then come from one call
    each, and the blocks are joined at the end.  A row failure is renumbered
    by its block's offset, so it names the row of the whole run.
    """
    stats = list(statistics)
    ids = _unique_ids(s.id for s in stats)
    blocks = []
    for lo in range(0, B, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, B - lo)
        try:
            points = points_of(draw(Substreams(master_seed, rows, lo)))
            t = [s.column(points, rows) for s in stats]
            blocks.append((family.flatten(points), family.alpha_of(points),
                           family.delta(points, mle), family.log_xi(points, mle), *t))
        except _RowFailure as exc:
            exc.shift(lo)
            raise
    params, alphas, delta, log_xi, *t = (
        None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks))
    return params, alphas, delta, log_xi, dict(zip(ids, t))


def run_bootstrap(family, mle, B: int, master_seed: int,
                  statistics=()) -> BootstrapRun:
    """Draw B replications from the family at its MLE and tabulate them."""
    B, master_seed = _whole("B", B, 1), _whole("master_seed", master_seed, 0)
    tables = _tabulate(family, mle, B, master_seed, statistics,
                       lambda rngs: family.sample_replication(mle, rngs), family.points)
    return BootstrapRun(family, mle, B, master_seed, "standard", *tables)


def run_expanded_bootstrap(family, mle, B: int, master_seed: int,
                           pilot: BootstrapRun, h: float = 4.0,
                           statistics=()) -> BootstrapRun:
    """Replications from a widened normal proposal instead of the family itself.

    The proposal is N(pilot mean, h * pilot covariance); draws falling outside
    the expectation space are redrawn from the same substream and counted in
    ``rejected``.  The stored per-replication correction, from ``deviance``,
    ``stored_points`` and ``log_xi``, makes the downstream weight formulas
    identical to the standard-proposal case.  The run's proposal tag is
    ``expanded(h)``.
    """
    B, master_seed = _whole("B", B, 1), _whole("master_seed", master_seed, 0)
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
    corr = (-family.deviance(family.stored_points(params, alphas), mle) / 2.0
            - log_xi - log_g)
    return BootstrapRun(family, mle, B, master_seed, f"expanded({float(h):g})", params,
                        alphas, delta, log_xi, t, log_prop_corr=corr, rejected=rejected)


def nonparametric_resample(values, B: int, master_seed: int, binner) -> np.ndarray:
    """B rows of resampled-with-replacement counts, binned by ``binner``.

    binner maps a value vector to a count vector; the values may already be
    bin indices, so their dtype is kept.  Rows use the common substream
    convention but from their own offset block, so a parametric run at the
    same master seed shares no random bits with the resampling.  B is a
    whole number of at least 1; a float or bool raises ValueError.
    """
    B = _whole("B", B, 1)
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
    """Write a run as a self-describing CSV with a JSON metadata comment,
    formatted and written expfam's _ROW_BLOCK rows at a time.  A statistic
    id that cannot be read back as one header column raises ValueError
    before the file is opened."""
    for sid in run.t:
        if any(c in sid for c in ",\n\r") or sid != sid.rstrip():
            raise ValueError(
                f"statistic id {sid!r} cannot name a store column: it may not "
                "contain a comma or a line break, or end in whitespace")
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
    columns = [c for names, _ in blocks for c in names]
    row = "%d," + ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(["rep"] + columns) + "\n")
        for lo in range(0, run.B, _ROW_BLOCK):
            table = np.hstack([values[lo:lo + _ROW_BLOCK] for _, values in blocks])
            fh.write("".join(row % (lo + i, *values)
                             for i, values in enumerate(table.tolist())))


def load_store(path) -> BootstrapRun:
    """Rebuild a run from a store file, its family from the store's metadata.
    A metadata line that is not JSON, a cell that is not a number, a row
    with a missing column, a metadata entry that is missing, of the wrong
    JSON type or invalid, a missing column or a row count other than B
    raises ValueError naming the file."""
    with _reading_meta(f"{path}: malformed store"):
        with open(path) as fh:
            first = fh.readline()
            if not first.startswith("#"):
                raise ValueError("not a run store (missing metadata line)")
            meta = json.loads(first[1:].strip())
            fmt = meta.get("format") if isinstance(meta, dict) else None
            if fmt != STORE_FORMAT:
                raise ValueError(f"unsupported store format {fmt!r}")
            header = fh.readline().strip().split(",")
            # one contiguous row per column: numpy sums a dot product over a
            # strided column in another order than over the run's own arrays
            data = np.loadtxt(fh, delimiter=",", ndmin=2).T.copy()
        if data.shape[0] != len(header):
            raise ValueError(f"{len(header)} column names, {data.shape[0]} columns")
        col = dict(zip(header, data))
        family = family_from_meta(_json_entry(meta, "family_meta"))
        if family.family_id != meta["family_id"]:
            raise ValueError(
                f"store family {meta['family_id']} does not match {family.family_id}")
        mle = family.mle_from_meta(_json_entry(meta, "mle"))
        B = _whole("'B'", meta["B"], 1)
        if data.shape[1] != B:
            raise ValueError(f"expected {B} rows, found {data.shape[1]}")
        p = family.param_dim
        params = np.column_stack([col[f"beta_{j+1}"] for j in range(p)])
        alphas = None
        if "alpha_1" in col:
            alphas = np.column_stack([col[f"alpha_{j+1}"] for j in range(p)])
        t = {sid: col[f"t_{sid}"] for sid in _json_entry(meta, "statistics", list)}
        seed = _whole("'master_seed'", meta["master_seed"], 0)
        rejected = _whole("'rejected'", meta.get("rejected", 0), 0)
        return BootstrapRun(family, mle, B, seed, _json_entry(meta, "proposal_tag", str),
                            params, alphas, col["delta"], col["log_xi"], t,
                            log_prop_corr=col.get("log_prop_corr"), rejected=rejected)


def store_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]
