"""Environmental covariates: thermal time, piecewise summaries, and
environment-by-environment similarity.

Daily weather goes to features in one pass: every record is checked once
(a failure is a ``DataError`` naming the environment and the day), then each
environment's accumulated heat units are binned once and every variable is
regressed on them with a piecewise-constant model (one intercept, the bin's
mean, per fixed-width window), giving a feature matrix with one column per
environment and one row per variable-window pair.  Rows are standardized to
mean zero and unit population variance, after which

    Chat = X^T X / q          (q = number of feature rows)

is the environment correlation estimate and

    D_ij = sum_k (X_ki - X_kj)^2

is the squared Euclidean distance driving Gaussian kernels.  Distances and
correlations are tied through D_ij = q * (Chat_ii + Chat_jj - 2 Chat_ij).

Chat, D and the kinship K (:class:`~gxe_reml.reml_core.RelationshipMatrix`)
share one contract, ``_LabeledMatrix``: checked once on construction, then
read-only.  A permuted (``in_order``) or blended matrix is built anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    DataError,
    EmptyBinError,
    GxeRemlError,
    InvalidInputError,
    NumericalError,
    ZeroVarianceError,
)

# Development thresholds of gdd_daily, Fahrenheit.
_GDD_BASE = 50.0
_GDD_CEILING = 86.0
_STANDARDIZED_TOL = 1e-8


@dataclass(frozen=True)
class DailyWeatherRecord:
    """One day of weather for one environment.

    Attributes:
        environment: Environment label.
        day: Day index within the season; must increase strictly within an
            environment.
        t_min: Daily minimum temperature (Fahrenheit).
        t_max: Daily maximum temperature (Fahrenheit).
        covariates: Additional named daily measurements.
    """

    environment: str
    day: int
    t_min: float
    t_max: float
    covariates: Mapping[str, float] = field(default_factory=dict)


@dataclass
class EnvFeatureMatrix:
    """Row-standardized feature matrix, one column per environment."""

    values: np.ndarray
    variable_labels: list[str]
    environment_labels: list[str]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InvalidInputError("feature matrix must be two-dimensional")
        q, p = self.values.shape
        if len(self.variable_labels) != q or len(self.environment_labels) != p:
            raise InvalidInputError(
                f"feature matrix is {q}x{p} but has {len(self.variable_labels)} "
                f"row labels and {len(self.environment_labels)} column labels"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("feature matrix contains non-finite entries")

    @property
    def q(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def check_standardized(self) -> None:
        """Raise unless every row has mean 0 and population sd 1 within 1e-8."""
        means = self.values.mean(axis=1)
        sds = self.values.std(axis=1)
        if np.max(np.abs(means), initial=0.0) > _STANDARDIZED_TOL or np.max(
            np.abs(sds - 1.0), initial=0.0
        ) > _STANDARDIZED_TOL:
            raise InvalidInputError(
                "feature matrix rows are not standardized to mean 0, sd 1"
            )


@dataclass(frozen=True)
class _LabeledMatrix:
    """A validated, read-only square matrix with one label per row.

    Construction checks, in this order, that ``values`` is square, has one
    label per row, no repeated label, only finite entries and asymmetry of
    at most 1e-8, each failure raising the subclass's ``_error`` naming
    ``_what``.  It then symmetrizes, runs the subclass's own ``_checked``
    and stores the result read-only; the fields cannot be reassigned, so
    anything derived from ``values`` stays valid.
    """

    values: np.ndarray
    labels: list[str]

    _what: ClassVar[str]
    _error: ClassVar[type[GxeRemlError]] = InvalidInputError

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        labels = list(self.labels)
        what, error = self._what, self._error
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise error(f"{what} must be square, got shape {values.shape}")
        if len(labels) != values.shape[0]:
            raise error(f"{what} has {values.shape[0]} rows but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            raise error(f"{what} labels contain duplicates")
        if not np.all(np.isfinite(values)):
            raise error(f"{what} contains non-finite entries")
        gap = float(np.max(np.abs(values - values.T), initial=0.0))
        if gap > 1e-8:
            raise error(f"{what} is asymmetric beyond tolerance (max gap {gap:.3e})")
        values = self._checked(0.5 * (values + values.T))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def _checked(self, values: np.ndarray) -> np.ndarray:
        """The subclass's own checks on the symmetrized ``values``, which it
        may change in place; returns the values to store."""
        return values

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays are writeable (a CV worker's copy, say), as are
        # those of cached properties such as a kinship's contrast basis.
        for value in state.values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
        self.__dict__.update(state)

    def in_order(self, labels: Sequence[str]):
        """This matrix with rows and columns permuted into the order of
        ``labels``, which must be its own labels in some order."""
        labels = list(labels)
        if labels == self.labels:
            return self
        if sorted(labels) != sorted(self.labels):
            raise self._error(
                f"{self._what} labels {self.labels} are not a permutation of {labels}"
            )
        order = [self.labels.index(lab) for lab in labels]
        return type(self)(self.values[np.ix_(order, order)], labels)


def _psd_eigh(values: np.ndarray, what: str, error: type[GxeRemlError],
              vectors: bool = False):
    """Ascending eigenvalues of the symmetric ``values`` (with eigenvectors,
    as ``(eigs, vecs)``, if ``vectors``) on SciPy's LAPACK, by the one-pool
    rule.  The package's one PSD rule, for the kinship, the correlation and
    the simulated truth: raises ``error`` naming ``what`` if the smallest
    eigenvalue is below -1e-8 times the largest."""
    out = scipy.linalg.eigh(values, eigvals_only=not vectors, driver="evd",
                            check_finite=False)
    eigs = out[0] if vectors else out
    if eigs[0] < -1e-8 * max(float(eigs[-1]), 1e-300):
        raise error(
            f"{what} is not positive semidefinite "
            f"(min eigenvalue {eigs[0]:.3e}, max {eigs[-1]:.3e})"
        )
    return out


def _eigen_root(values: np.ndarray, what: str) -> np.ndarray:
    """F with F F^T = ``values`` from :func:`_psd_eigh`, round-off negative
    eigenvalues set to 0; NumericalError names ``what`` if not PSD."""
    eigs, vecs = _psd_eigh(values, what, NumericalError, vectors=True)
    return vecs * np.sqrt(np.clip(eigs, 0.0, None))


class EnvCorrelationMatrix(_LabeledMatrix):
    """Symmetric environment correlation estimate with labels, whose
    diagonal need not be 1 (:func:`env_correlation`'s is not)."""

    _what = "correlation matrix"

    @property
    def p(self) -> int:
        return self.values.shape[0]


class EnvDistanceMatrix(_LabeledMatrix):
    """Symmetric squared-distance matrix with zero diagonal and labels;
    round-off within 1e-10, on the diagonal or below 0, is set to 0."""

    _what = "distance matrix"

    def _checked(self, values: np.ndarray) -> np.ndarray:
        if np.max(np.abs(np.diag(values)), initial=0.0) > 1e-10:
            raise InvalidInputError("distance matrix diagonal must be zero")
        if values.min(initial=0.0) < -1e-10:
            raise InvalidInputError("distance matrix contains negative entries")
        np.clip(values, 0.0, None, out=values)
        np.fill_diagonal(values, 0.0)
        return values

    @property
    def p(self) -> int:
        return self.values.shape[0]


def gdd_daily(t_min: float, t_max: float) -> float:
    """Daily heat units from min/max temperature.

    The minimum is floored at the lower development threshold, base = 50,
    and the maximum capped at the upper one, ceiling = 86, before averaging;
    the value may be negative on cold days (no flooring of the result).

    Args:
        t_min: Daily minimum temperature.
        t_max: Daily maximum temperature.

    Returns:
        ((max(t_min, base) + min(t_max, ceiling)) / 2) - base.
    """
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise InvalidInputError("temperatures must be finite")
    if t_min > t_max:
        raise InvalidInputError(f"t_min {t_min} exceeds t_max {t_max}")
    return (max(t_min, _GDD_BASE) + min(t_max, _GDD_CEILING)) / 2.0 - _GDD_BASE


def gdd_accumulate(pairs: Iterable[tuple[float, float]]) -> np.ndarray:
    """Cumulative heat units over a season.

    Args:
        pairs: Daily (t_min, t_max) tuples in chronological order.

    Returns:
        Array of running totals, one per day.
    """
    daily = [gdd_daily(lo, hi) for lo, hi in pairs]
    if not daily:
        raise InvalidInputError("at least one day of weather is required")
    return np.cumsum(daily)


def piecewise_intercepts(
    points: Iterable[tuple[float, float]],
    interval: float = 100.0,
    window: tuple[float, float] = (0.0, 2000.0),
) -> np.ndarray:
    """Piecewise-constant regression of a covariate on accumulated heat units.

    The window [lo, hi) is cut into bins of equal width ``interval`` and the
    fitted intercept for each bin is the mean of the covariate values whose
    position falls in it.  Points outside the window are discarded.

    Args:
        points: (position, value) pairs.
        interval: Bin width; must divide the window evenly.
        window: (lo, hi) with lo < hi.

    Returns:
        One mean per bin, in increasing bin order.

    Raises:
        EmptyBinError: If some bin receives no points.
    """
    pairs = np.array(list(points), dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pairs)):
        raise InvalidInputError("points must be finite")
    return _bin_means(pairs[:, 0], pairs[:, 1:], interval, window)[0]


def _bin_means(positions: np.ndarray, values: np.ndarray, interval: float,
               window: tuple[float, float], where: str = "") -> np.ndarray:
    """Means of each column of ``values`` (one row per position) over
    :func:`piecewise_intercepts`' bins, one row per column, summed in
    position order.  An empty bin's ``EmptyBinError`` starts with ``where``."""
    lo, hi = float(window[0]), float(window[1])
    if not np.isfinite(interval) or interval <= 0:
        raise InvalidInputError(f"interval must be finite and positive, got {interval}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise InvalidInputError(f"window must be finite with lo < hi, got ({lo}, {hi})")
    span = (hi - lo) / interval
    n_bins = int(round(span))
    if n_bins < 1 or abs(span - n_bins) > 1e-9:
        raise InvalidInputError(
            f"window width {hi - lo} is not a whole number of intervals {interval}"
        )
    inside = (positions >= lo) & (positions < hi)
    bins = ((positions[inside] - lo) // interval).astype(int)
    kept = bins < n_bins
    bins, values = bins[kept], values[inside][kept]
    counts = np.bincount(bins, minlength=n_bins)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        k = int(empty[0])
        raise EmptyBinError(
            f"{where}bin [{lo + k * interval:g}, {lo + (k + 1) * interval:g}) "
            "contains no observations"
        )
    return np.array([np.bincount(bins, column, n_bins) for column in values.T]) / counts


def standardize_rows(
    raw: np.ndarray,
    variable_labels: Sequence[str] | None = None,
    environment_labels: Sequence[str] | None = None,
) -> EnvFeatureMatrix:
    """Center and scale each row to mean 0 and unit population variance.

    Args:
        raw: q x p matrix, one row per variable-window pair.
        variable_labels: Optional row labels; defaults to v0..v{q-1}.
        environment_labels: Optional column labels; defaults to e0..e{p-1}.

    Raises:
        ZeroVarianceError: If some row is constant.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise InvalidInputError("feature matrix must be two-dimensional")
    q, p = raw.shape
    if p < 2:
        raise InvalidInputError(f"at least two environments are required, got {p}")
    if not np.all(np.isfinite(raw)):
        raise InvalidInputError("feature matrix contains non-finite entries")
    if variable_labels is None:
        variable_labels = [f"v{i}" for i in range(q)]
    if environment_labels is None:
        environment_labels = [f"e{j}" for j in range(p)]
    sds = raw.std(axis=1)
    dead = np.nonzero(sds == 0.0)[0]
    if dead.size:
        raise ZeroVarianceError(
            f"feature row {variable_labels[int(dead[0])]!r} is constant"
        )
    values = (raw - raw.mean(axis=1, keepdims=True)) / sds[:, None]
    return EnvFeatureMatrix(values, list(variable_labels), list(environment_labels))


def env_correlation(features: EnvFeatureMatrix) -> EnvCorrelationMatrix:
    """Environment correlation estimate Chat = X^T X / q.

    Rows of ``features`` must already be standardized; the diagonal of the
    result is close to, but not exactly, 1 while its trace equals p exactly.
    """
    features.check_standardized()
    x = features.values
    return EnvCorrelationMatrix(x.T @ x / features.q, features.environment_labels)


def env_distance(features: EnvFeatureMatrix) -> EnvDistanceMatrix:
    """Squared Euclidean distance between environment columns.

    Standardized input is the caller's responsibility; the tie
    D = 2q(J - Chat) holds only when rows are standardized.
    """
    x = features.values
    sq = np.einsum("ij,ij->j", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    return EnvDistanceMatrix(d, features.environment_labels)


def blend_correlation(
    corr: EnvCorrelationMatrix,
    noise: EnvCorrelationMatrix,
    lam: float,
) -> EnvCorrelationMatrix:
    """Convex combination (1 - lam) * corr + lam * noise.

    Args:
        corr: Base correlation matrix.
        noise: Matrix to blend toward (same labels and size).
        lam: Mixing weight in [0, 1]; 0 returns ``corr`` unchanged.
    """
    if not np.isfinite(lam) or lam < 0.0 or lam > 1.0:
        raise InvalidInputError(f"lambda must lie in [0, 1], got {lam}")
    if corr.labels != noise.labels:
        raise InvalidInputError("blended matrices must share environment labels")
    # In double precision (1 - lam) + lam rounds to exactly 1 for every lam
    # in [0, 1], so unit diagonals on both inputs stay exact.
    lam = float(lam)
    return EnvCorrelationMatrix((1.0 - lam) * corr.values + lam * noise.values, corr.labels)


def correlation_from_covariance(
    sigma: np.ndarray, labels: Sequence[str] | None = None
) -> EnvCorrelationMatrix:
    """Rescale a covariance matrix to unit diagonal."""
    sigma = np.asarray(sigma, dtype=float)
    d = np.sqrt(np.diag(sigma))
    if np.any(d <= 0.0):
        raise InvalidInputError("covariance has a non-positive diagonal entry")
    c = sigma / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    if labels is None:
        labels = [f"e{j}" for j in range(sigma.shape[0])]
    return EnvCorrelationMatrix(c, list(labels))


def random_correlation(p: int, seed: int, labels: Sequence[str] | None = None) -> EnvCorrelationMatrix:
    """Random correlation matrix from a rescaled Wishart-style draw.

    A p x p standard normal matrix A is drawn from
    ``numpy.random.default_rng(seed)`` (PCG64), B = A A^T is formed, and B is
    rescaled to unit diagonal.  The result is positive semidefinite with
    exact ones on the diagonal.
    """
    if p < 2:
        raise InvalidInputError(f"at least two environments are required, got {p}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    b = a @ a.T
    return correlation_from_covariance(0.5 * (b + b.T), labels)


def weather_to_features(
    records: Sequence[DailyWeatherRecord],
    variables: Sequence[str],
    interval: float = 100.0,
    window: tuple[float, float] = (0.0, 2000.0),
) -> tuple[np.ndarray, list[str], list[str]]:
    """Raw per-environment piecewise summaries of daily weather, in one pass.

    ``variables`` must be distinct (``InvalidInputError``).  Every record
    is checked before any binning: days increase within an environment,
    ``t_min <= t_max``, and both temperatures and each requested variable
    (``t_min``, ``t_max`` or a covariate) are present and finite; a failure
    is a ``DataError`` naming the environment, the day and any variable.
    Each environment's heat units (:func:`gdd_accumulate`) are
    then binned once, as in :func:`piecewise_intercepts`, and every variable
    averaged over the bins; an empty bin is an ``EmptyBinError`` naming the
    environment and the bin.

    Returns:
        (raw matrix with one row per variable-bin and one column per
        environment, row labels ``var@binstart``, environment labels in
        first-appearance order).
    """
    if not records:
        raise DataError("no weather records supplied")
    if not variables:
        raise InvalidInputError("at least one variable is required")
    for i, var in enumerate(variables):
        if var in variables[:i]:
            raise InvalidInputError(f"variable {var!r} is repeated")
    grouped: dict[str, list[DailyWeatherRecord]] = {}
    tables: dict[str, list[list[float]]] = {}
    for rec in records:
        where = f"environment {rec.environment!r}, day {rec.day}"
        recs = grouped.setdefault(rec.environment, [])
        if recs and rec.day <= recs[-1].day:
            raise DataError(f"{where}: day indices must increase strictly "
                            f"(previous day {recs[-1].day})")
        if not (math.isfinite(rec.t_min) and math.isfinite(rec.t_max)):
            raise DataError(f"{where}: temperatures must be finite, got "
                            f"t_min {rec.t_min}, t_max {rec.t_max}")
        if rec.t_min > rec.t_max:
            raise DataError(f"{where}: t_min {rec.t_min} exceeds t_max {rec.t_max}")
        row = []
        for var in variables:
            value = (getattr(rec, var) if var in ("t_min", "t_max")
                     else rec.covariates.get(var))
            if value is None:
                raise DataError(f"{where}: missing covariate {var!r}")
            if not math.isfinite(value):
                raise DataError(f"{where}: {var!r} must be finite, got {value}")
            row.append(value)
        recs.append(rec)
        tables.setdefault(rec.environment, []).append(row)
    raw = np.column_stack([
        _bin_means(gdd_accumulate([(r.t_min, r.t_max) for r in recs]),
                   np.array(tables[env], dtype=float), interval, window,
                   f"environment {env!r}: ").ravel()
        for env, recs in grouped.items()
    ])
    lo, n_bins = float(window[0]), raw.shape[0] // len(variables)
    row_labels = [
        f"{var}@{lo + k * interval:g}"
        for var in variables
        for k in range(n_bins)
    ]
    return raw, row_labels, list(grouped)


def process_weather(
    records: Sequence[DailyWeatherRecord],
    variables: Sequence[str],
    interval: float = 100.0,
    window: tuple[float, float] = (0.0, 2000.0),
) -> tuple[EnvFeatureMatrix, EnvCorrelationMatrix, EnvDistanceMatrix]:
    """Full pipeline from daily weather to similarity matrices."""
    raw, row_labels, env_labels = weather_to_features(
        records, variables, interval, window
    )
    features = standardize_rows(raw, row_labels, env_labels)
    return features, env_correlation(features), env_distance(features)
