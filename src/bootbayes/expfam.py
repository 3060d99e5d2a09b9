"""Exponential-family machinery.

A family is described by maps of its points (beta vectors, fitted
GlmPoints or (mu, sigma) pairs): the canonical parameter ``canonical_of``
(alpha), the expectation parameter ``mean_of`` (beta, the mean of the
sufficient statistic), the normalizer ``psi_of`` and the covariance
``covariance_of`` (V) of the sufficient statistic.  All the reweighting
logic downstream reduces to a handful of formulas over these maps:

* ``delta(points, at)``            exponent of the conversion factor
* ``log_xi(points, at)``           Jacobian-like volume ratio sqrt(|V|/|V_hat|)
* ``deviance(p1, p2)``             twice the KL divergence between members
* ``log_density_ratio``            log f_{p1}(t) - log f_{p2}(t) at a statistic t

The conversion factor R = xi * exp(delta) turns bootstrap sampling density
into posterior density; a Jeffreys prior cancels xi exactly, which is why the
sampler records delta and log_xi separately.  Both terms take a point or a
stacked point and the estimate ``at``, a point of its own, and give one value
per point; the sampler passes the stacked point of a block of a run's rows.
Each row goes through the per-row arithmetic of a single point, so its value
does not depend on the rows beside it, and a row equal to the estimate gets
exactly 0.

Every family map takes one point or a stack (..., p) and gives one value or
row per point, and so does the random draw: ``sample_replication(at, rngs)``
takes a sized iterable of generators, one per replication, and returns the
(b, r) table of raw rows, each drawn from its own generator: the sufficient
vector of a canonical family, the counts for the Poisson model and the n
drawn observations for the multivariate normal.  Terms that depend only on
``at`` are computed once per table, and a one-row table is a list of one
generator.  ``points`` turns a raw table into one stacked point, and
``stored_points`` the tables a run stored, without fitting again.
"""

from __future__ import annotations

import abc
import contextlib
import json
import math

import numpy as np

__all__ = [
    "NumericalFailure",
    "CapabilityMissing",
    "FamilyModel",
    "chol_logdet",
    "write_report",
]

# Rows per block of every pass over a table: a run is tabulated and a store
# written _ROW_BLOCK rows at a time, the Poisson model fits a table
# _ROW_BLOCK rows per IRLS call, and aic_profiles climbs its whole degree
# ladder in one block before the next.  Each row's values depend on the row
# alone, so the block sets only the working memory: a whole 4,000-row table
# at once needs about 20 MB more peak memory and is no faster.  The one
# exception is aic_profiles, whose GEMM steps round a row's sums
# differently with the number of rows in the product, so its values keep
# their bits only while the block stays as it is.
_ROW_BLOCK = 256


class NumericalFailure(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


class _RowFailure(NumericalFailure):
    """The failure of one row of a table, named ``row N, <what>``; a caller
    that passed in a block of a larger table renumbers it with ``shift``."""

    def __init__(self, row: int, what: str):
        super().__init__(f"row {row}, {what}")
        self.row, self.what = row, what

    def shift(self, offset: int) -> None:
        self.row += offset
        self.args = (f"row {self.row}, {self.what}",)


class CapabilityMissing(NotImplementedError):
    """The family does not provide this optional capability."""


def chol_logdet(mat: np.ndarray):
    """Log determinant of a symmetric positive definite matrix, or one per
    matrix of a stack (..., p, p).

    Raises NumericalFailure instead of LinAlgError so callers can map the
    condition to a diagnostic exit path.
    """
    try:
        c = np.linalg.cholesky(np.asarray(mat, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"matrix not positive definite: {exc}") from exc
    return 2.0 * np.log(np.diagonal(c, axis1=-2, axis2=-1)).sum(axis=-1)


class _EntryError(ValueError):
    """A metadata entry of the wrong type or range, named by its key."""


def _whole(what: str, value, least: int) -> int:
    """An integer entry of at least ``least``; a float or bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise _EntryError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


_JSON_KINDS = {dict: "a JSON object", str: "a string", list: "a list of strings"}


def _json_entry(meta: dict, key: str, kind: type = dict):
    """``meta[key]``, checked to be a JSON object (dict), a string (str) or a
    list of strings (list)."""
    value = meta[key]
    # a JSON object's keys and a string's characters are strings too
    if not (isinstance(value, kind) and all(isinstance(v, str) for v in value)):
        raise _EntryError(f"{key!r} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


@contextlib.contextmanager
def _reading_meta(where: str):
    """Errors while objects are read from JSON metadata, as one ValueError:
    ``<where>, no '<key>'`` for a missing key, ``<where>, <entry error>`` and
    ``<where>: <message>`` for any other.  A LinAlgError passes unchanged."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}, no {exc.args[0]!r}") from None
    except _EntryError as exc:
        raise ValueError(f"{where}, {exc}") from None
    except np.linalg.LinAlgError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _flatten(obj, prefix=""):
    """Each value of a nested report by its dotted key, ``summaries.0.ci.0``."""
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


def _report_text(report: dict, fmt: str = "json") -> str:
    """A report as text: JSON with sorted keys, indent 2 and a trailing
    newline, or with ``fmt="csv"`` one ``key,value`` line per flattened value
    in key order.  A NaN or infinite value, which no JSON reader takes, raises
    NumericalFailure naming the first such key."""
    flat = sorted(_flatten(report).items())
    for key, value in flat:
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalFailure(f"report value {key} is not finite")
    if fmt == "csv":
        return "".join(f"{key},{value}\n" for key, value in flat)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    """Write a report's JSON text to ``path``; nothing is written for a report
    with a non-finite value.  Reports hold no timestamps, so reruns are
    byte-identical."""
    text = _report_text(report)
    with open(path, "w") as fh:
        fh.write(text)


def matvec(a, v):
    """a @ v for a vector v or each row of a stack, one matrix-vector product
    per row: a GEMM over the rows would sum in another order."""
    return (a @ v[..., None])[..., 0]


def rowdot(u, v):
    """u . v for two vectors or each row of two stacks, one dot product per
    row, summed as for a single pair."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


class FamilyModel(abc.ABC):
    """Exponential family with an explicit parameterization.

    A point is a beta vector (gamma, normal translation), a fitted GlmPoint
    (Poisson) or an MvnParam pair (multivariate normal), or a stack of B of
    them; ``flatten`` and ``unflatten`` map points to and from the flat
    coordinates a run stores.  Every map of the family takes a point or a
    stack (..., p) and gives one value or row per point: ``canonical_of``
    (alpha) and ``psi_of`` (psi), which every family defines, ``mean_of``
    (beta), which defaults to ``flatten``, and ``covariance_of`` (V) and
    ``third_cumulant_of`` (U in a direction), which a family that lacks them
    leaves raising CapabilityMissing.  The canonical formulas are written
    here once, over these maps; ``delta`` and ``log_xi`` take a point or a
    stack and the estimate, and give one value per point.
    """

    @property
    @abc.abstractmethod
    def family_id(self) -> str: ...

    @property
    @abc.abstractmethod
    def param_dim(self) -> int: ...

    @abc.abstractmethod
    def sample_replication(self, at, rngs) -> np.ndarray:
        """Raw rows drawn at a point, one per generator of the sized iterable
        ``rngs``, as a (len(rngs), r) table."""

    @abc.abstractmethod
    def canonical_of(self, point):
        """alpha of a point, shape (..., p)."""

    def mean_of(self, point):
        """beta of a point, shape (..., p)."""
        return self.flatten(point)

    @abc.abstractmethod
    def psi_of(self, point):
        """psi of a point, shape (...)."""

    def covariance_of(self, point):
        """Covariance V of the sufficient statistic at a point, shape
        (..., p, p)."""
        raise CapabilityMissing(f"{self.family_id} has no covariance map")

    def third_cumulant_of(self, point, direction) -> float:
        """Directional third cumulant U^(v) of the sufficient statistic at
        one point."""
        raise CapabilityMissing(f"{self.family_id} has no third-cumulant map")

    def in_expectation_space(self, beta) -> bool:
        return bool(np.all(np.isfinite(beta)))

    # run surface -----------------------------------------------------------

    def mle(self, beta_hat):
        """The point of an estimate given as a beta vector of param_dim
        entries, or as a point, checked to lie in the expectation space."""
        beta_hat = self.flatten(beta_hat)
        if beta_hat.shape != (self.param_dim,):
            raise ValueError(f"estimate {beta_hat.tolist()} of {self.family_id} "
                             f"needs {self.param_dim} entries")
        if not self.in_expectation_space(beta_hat):
            raise ValueError(
                f"estimate {beta_hat} outside the expectation space of {self.family_id}")
        return self.unflatten(beta_hat)

    def points(self, raw) -> np.ndarray:
        """The stacked point of a (B, p) table of raw rows, or one point."""
        return self.unflatten(raw)

    def flatten(self, point) -> np.ndarray:
        return np.atleast_1d(np.asarray(point, dtype=float))

    unflatten = flatten

    def alpha_of(self, point):
        """The canonical coordinates a run stores for a point, or None when
        it stores none."""
        return self.canonical_of(point)

    def stored_points(self, params, alphas):
        """The stacked point of a run's stored params and alphas tables."""
        return self.unflatten(params)

    def deviance(self, point1, point2):
        """D(p1, p2) = 2 E_{p1} log(f_{p1}/f_{p2}), always >= 0, for one pair
        or each row of a stacked argument."""
        return 2.0 * self.log_density_ratio(point1, point2, point1)

    def delta(self, points, at):
        """Half the deviance difference [D(b, b_hat) - D(b_hat, b)] / 2."""
        return (self.deviance(points, at) - self.deviance(at, points)) / 2.0

    def log_xi(self, points, at):
        """log sqrt(|V(b)| / |V(b_hat)|)."""
        return 0.5 * (chol_logdet(self.covariance_of(points))
                      - chol_logdet(self.covariance_of(at)))

    def log_density_ratio(self, point_num, point_den, at):
        """log f_{num}(t)/f_{den}(t) at the sufficient statistic t of the
        point ``at``, (alpha_num - alpha_den)'t - (psi_num - psi_den), for
        one pair or each row of a stacked point."""
        return (rowdot(self.canonical_of(point_num) - self.canonical_of(point_den),
                       self.mean_of(at))
                - (self.psi_of(point_num) - self.psi_of(point_den)))

    def log_bab_multipliers(self, run, gamma_point) -> np.ndarray:
        """Per-replication log reweighting multipliers toward an outer MLE.

        The density ratio collapses to the inner product
        (alpha_i - alpha_hat)'(beta(gamma) - beta_hat).
        """
        d_alpha, beta_hat = run.bab_run_terms
        return d_alpha @ (self.mean_of(gamma_point) - beta_hat)

    def meta(self) -> dict:
        """JSON-safe description sufficient to rebuild the family."""
        raise CapabilityMissing(f"{self.family_id} does not serialize")

    def mle_meta(self, mle) -> dict:
        return {"beta_hat": self.flatten(mle).tolist()}

    def mle_from_meta(self, obj: dict) -> np.ndarray:
        return self.mle(obj["beta_hat"])

