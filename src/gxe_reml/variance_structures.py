"""Environment-side covariance structures Sigma(kappa) and their gradients.

The genetic effects of one genotype across p environments carry covariance
Sigma(kappa), a p x p matrix parameterized by a short positive vector kappa.
Every structure answers the three questions the likelihood asks, so new
structures plug into the fitting loop without touching it: ``sigma(kappa)``
at each trial point, for kappa >= 0 (zero components are legitimate when
simulating), and the derivatives dSigma/dkappa_i, ``derivs(kappa)``, and
``curvature(kappa, m)`` at each accepted point, for kappa > 0 strictly
because the multi-variance derivatives contain 1/s_i factors.

A new structure is one subclass declaring its ``kind`` tag and the input it
is built from, ``needs``: ``"p"`` (environment count or labels), ``"corr"``
or ``"dist"`` (the matrix its constructor takes).  Listed in
``_STRUCTURES``, it reaches :func:`build_structure`, the CLI and CV.  For a
kind of the S * B form below, that declaration is the whole class.

Every kind but ``ka`` has the form Sigma = S(var) * B(theta), taken
entrywise, over two axes:

* the scale S is var * J (all-ones J) for one variance (``main``, ``cor1``,
  ``kern1``), or outer(s, s) with s_i = sqrt(var_i) and diagonal var_i for
  one variance per environment (``diag``, ``corP``, ``kernP``);
* the base B is J (``main``), the identity I (``diag``), a fixed
  correlation matrix C (``cor1``, ``corP``), or the Gaussian kernel
  K = exp(-theta * D) over squared distances D, whose bandwidth theta comes
  first in kappa (``kern1``, ``kernP``).

``ka`` averages kernels over a fixed bandwidth grid,
Sigma = sum_m var_m * exp(-theta_m * D); the weights are variances of
independent summed effects, so the implied total variance is sum_m var_m
and the implied correlation is their convex combination of kernels.
Bandwidth limits connect the families: K tends entrywise to J as
theta -> 0+ (recovering ``main``) and to I as theta -> infinity
(recovering ``diag``).

A new kind of the S * B form is one subclass of ``_ScaledBase``, which
differentiates by the product rule,

    d Sigma / d var_i = dS/dvar_i * B,    d Sigma / d theta = S * dB/dtheta,

with dB/dtheta = -D * K and dS/dvar = J for one variance; per environment,
dS/dvar_i has (i, i) entry 1 and (i, j) = (j, i) entry 0.5 * s_j / s_i.

The fit also needs second derivatives, contracted with a symmetric p x p
matrix m: ``curvature(kappa, m)`` returns the k x k matrix
C_ij = sum_ab (d2 Sigma / dkappa_i dkappa_j)_ab m_ab.  By the product rule
d2 Sigma = d2S * B + dS * dB + dB * dS + S * d2B, with d2B/dtheta2 =
D^2 * K.  d2S vanishes for var * J; per environment its (i, j) and (j, i)
entries are 0.25 / (s_i s_j) for var_i, var_j (i != j), and its (i, b) and
(b, i) entries are -0.25 * s_b / s_i^3 for var_i twice (b != i).  C is
zero for ``main``, ``diag``, ``cor1`` and ``ka``, which are linear in kappa.
"""

from __future__ import annotations

import abc
import logging
from typing import ClassVar, Sequence

import numpy as np

from .env_features import EnvCorrelationMatrix, EnvDistanceMatrix, _psd_eigh
from .errors import InvalidInputError

logger = logging.getLogger(__name__)

def gaussian_kernel(dist: EnvDistanceMatrix | np.ndarray, theta: float) -> np.ndarray:
    """Entrywise Gaussian kernel exp(-theta * D) over squared distances.

    The diagonal is exactly 1 because D has an exactly zero diagonal.
    """
    values = dist.values if isinstance(dist, EnvDistanceMatrix) else np.asarray(dist, dtype=float)
    if not np.isfinite(theta) or theta < 0.0:
        raise InvalidInputError(f"bandwidth must be finite and >= 0, got {theta}")
    return np.exp(-theta * values)


def mean_offdiag(dist: EnvDistanceMatrix | np.ndarray) -> float:
    """Mean off-diagonal squared distance, the natural bandwidth scale."""
    values = dist.values if isinstance(dist, EnvDistanceMatrix) else np.asarray(dist, dtype=float)
    p = values.shape[0]
    if p < 2:
        raise InvalidInputError("at least two environments are required")
    mean = float(values.sum()) / (p * (p - 1))
    if mean <= 0.0:
        raise InvalidInputError(
            "distance matrix has no positive off-diagonal entry, so it sets no "
            "bandwidth scale")
    return mean


def _validated_correlation(corr: EnvCorrelationMatrix) -> np.ndarray:
    """Read-only correlation values, or a copy clipped to the PSD cone."""
    c = corr.values
    w, v = _psd_eigh(c, "correlation matrix", InvalidInputError, vectors=True)
    if w[0] < 0.0:
        c = (v * np.clip(w, 0.0, None)) @ v.T
        c = 0.5 * (c + c.T)
        logger.warning(
            "correlation matrix clipped to positive semidefinite "
            "(smallest eigenvalue was %.3e)", float(w[0]),
        )
    return c


class VarianceStructure(abc.ABC):
    """Base class for the Sigma(kappa) plugin contract."""

    kind: ClassVar[str]
    needs: ClassVar[str]
    takes_grid: ClassVar[bool] = False

    def __init__(self, p: int, param_names: list[str], env_labels: list[str] | None):
        if p < 1:
            raise InvalidInputError(f"need at least one environment, got {p}")
        self.p = p
        self._param_names = param_names
        self.env_labels = env_labels

    @property
    def n_params(self) -> int:
        return len(self._param_names)

    def param_names(self) -> list[str]:
        """Names of the entries of kappa, in layout order."""
        return list(self._param_names)

    def _check_kappa(self, kappa: np.ndarray, strict: bool) -> np.ndarray:
        kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
        if kappa.shape != (self.n_params,):
            raise InvalidInputError(
                f"{self.kind} expects {self.n_params} parameters "
                f"({', '.join(self._param_names)}), got shape {kappa.shape}"
            )
        if not np.all(np.isfinite(kappa)):
            raise InvalidInputError(f"{self.kind} parameters must be finite")
        bad = np.nonzero(kappa <= 0.0 if strict else kappa < 0.0)[0]
        if bad.size:
            i = int(bad[0])
            bound = "positive" if strict else "nonnegative"
            raise InvalidInputError(
                f"{self.kind} parameter {self._param_names[i]!r} must be "
                f"{bound}, got {kappa[i]}"
            )
        return kappa

    def sigma(self, kappa: np.ndarray) -> np.ndarray:
        """Sigma(kappa) alone; kappa >= 0 entrywise is accepted."""
        return self._sigma(self._check_kappa(kappa, strict=False))

    def derivs(self, kappa: np.ndarray) -> list[np.ndarray]:
        """dSigma/dkappa_i for each parameter, in layout order; kappa > 0."""
        return self._derivs(self._check_kappa(kappa, strict=True))

    @abc.abstractmethod
    def _sigma(self, kappa: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _derivs(self, kappa: np.ndarray) -> list[np.ndarray]: ...

    def curvature(self, kappa: np.ndarray, m: np.ndarray) -> np.ndarray:
        """k x k matrix sum_ab (d2 Sigma / dkappa_i dkappa_j)_ab m_ab for a
        symmetric p x p ``m`` at kappa > 0; zero for kinds linear in kappa."""
        return np.zeros((self.n_params, self.n_params))

    @abc.abstractmethod
    def initial_params(self, y_variance: float) -> np.ndarray:
        """Reasonable starting kappa given the phenotypic variance."""


class _ScaledBase(VarianceStructure):
    """Sigma = S(var) * B(theta) entrywise, differentiated by the product rule.

    S is ``var * J`` or, with ``per_env``, outer(s, s) with diagonal var.
    The one constructor builds B from the input ``needs`` names, so a kind's
    declaration is its whole class: from p, B is J for one variance and I
    per environment; from a correlation matrix, B is that matrix; from a
    distance matrix D, B is exp(-theta * D) with theta leading the parameter
    layout.  A matrix's labels label the environments.
    """

    per_env: ClassVar[bool]

    def __init__(self, source: int | EnvCorrelationMatrix | EnvDistanceMatrix,
                 env_labels: Sequence[str] | None = None):
        p = source
        if self.needs != "p":
            if env_labels is not None:
                raise InvalidInputError(
                    f"structure {self.kind!r} takes its environment labels from its matrix")
            p, env_labels = source.p, source.labels
        env_labels = list(env_labels) if env_labels else None
        names = [f"var[{lab}]" for lab in env_labels or range(p)] if self.per_env else ["var"]
        if self.needs == "dist":
            names = ["bandwidth"] + names
        super().__init__(p, names, env_labels)
        self.dist = source.values if self.needs == "dist" else None
        if self.needs == "p":
            self.base = np.eye(p) if self.per_env else np.ones((p, p))
        else:
            self.base = _validated_correlation(source) if self.needs == "corr" else None

    def _split(self, kappa):
        """(B, var) at kappa."""
        if self.dist is None:
            return self.base, kappa
        return gaussian_kernel(self.dist, kappa[0]), kappa[1:]

    def _scale(self, var):
        if not self.per_env:
            return np.full((self.p, self.p), var[0])
        s = np.sqrt(var)
        scale = np.outer(s, s)
        np.fill_diagonal(scale, var)
        return scale

    def _scale_derivs(self, var):
        """dS / dvar_i for each variance."""
        if not self.per_env:
            return [np.ones((self.p, self.p))]
        s = np.sqrt(var)
        derivs = []
        for i in range(self.p):
            ds = np.zeros((self.p, self.p))
            ds[i] = ds[:, i] = 0.5 * s / s[i]
            ds[i, i] = 1.0
            derivs.append(ds)
        return derivs

    def _sigma(self, kappa):
        base, var = self._split(kappa)
        return self._scale(var) * base

    def _derivs(self, kappa):
        base, var = self._split(kappa)
        derivs = [ds * base for ds in self._scale_derivs(var)]
        if self.dist is None:
            return derivs
        return [-self._scale(var) * self.dist * base] + derivs  # S * dB/dtheta

    def curvature(self, kappa, m):
        base, var = self._split(kappa)
        s = np.sqrt(var)
        c = np.zeros((self.n_params, self.n_params))
        if self.per_env:  # d2S * B; d2S vanishes for var * J
            bm = base * m
            vv = 0.5 * bm / np.outer(s, s)
            np.fill_diagonal(vv, -0.5 * (bm @ s - bm.diagonal() * s) / s**3)
            c[-self.p:, -self.p:] = vv
        if self.dist is not None:
            dkm = self.dist * base * m  # -dB/dtheta * m
            c[0, 0] = np.sum(self._scale(var) * self.dist * dkm)  # S * d2B/dtheta2
            # dS * dB/dtheta, where D's zero diagonal drops dS's diagonal
            c[0, 1:] = c[1:, 0] = -(dkm @ s) / s if self.per_env else -dkm.sum()
        return c

    def initial_params(self, y_variance):
        start = np.full(self.p if self.per_env else 1, 0.5 * y_variance)
        if self.dist is None:
            return start
        return np.concatenate([[1.0 / mean_offdiag(self.dist)], start])


class MainEffect(_ScaledBase):
    """Single genotype main effect: Sigma = var * J."""

    kind = "main"
    needs = "p"
    per_env = False


class DiagonalVariance(_ScaledBase):
    """Independent environments: Sigma = diag(var_1..var_p)."""

    kind = "diag"
    needs = "p"
    per_env = True


class CorrSingleVar(_ScaledBase):
    """Fixed correlation, one variance: Sigma = var * C."""

    kind = "cor1"
    needs = "corr"
    per_env = False


class CorrMultiVar(_ScaledBase):
    """Fixed correlation, per-environment variances: Sigma = outer(s,s)*C."""

    kind = "corP"
    needs = "corr"
    per_env = True


class KernelSingleVar(_ScaledBase):
    """Gaussian kernel, one variance: Sigma = var * exp(-theta * D)."""

    kind = "kern1"
    needs = "dist"
    per_env = False


class KernelMultiVar(_ScaledBase):
    """Gaussian kernel, per-environment variances: Sigma = outer(s,s)*K."""

    kind = "kernP"
    needs = "dist"
    per_env = True


class KernelAveraging(VarianceStructure):
    """Weighted sum of Gaussian kernels over a fixed bandwidth grid.

    Sigma = sum_m var_m * exp(-theta_m * D), the covariance of summed
    independent effects, one per grid bandwidth.  The implied total variance
    is sum_m var_m and the implied correlation matrix is the
    variance-weighted average of the kernels.
    """

    kind = "ka"
    needs = "dist"
    takes_grid = True

    def __init__(self, dist: EnvDistanceMatrix, grid: Sequence[float] | None = None):
        if grid is None:
            scale = 1.0 / mean_offdiag(dist.values)
            grid = np.geomspace(0.1 * scale, 10.0 * scale, 7)
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise InvalidInputError("bandwidth grid must be a non-empty vector")
        if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
            raise InvalidInputError("grid bandwidths must be finite and positive")
        if np.any(np.diff(grid) <= 0.0):
            raise InvalidInputError("grid bandwidths must increase strictly")
        super().__init__(dist.p, [f"weight[{t:g}]" for t in grid], list(dist.labels))
        self.grid = grid
        self.dist = dist.values
        self.kernels = [gaussian_kernel(self.dist, t) for t in grid]

    def _combine(self, kappa: np.ndarray) -> tuple[float, np.ndarray]:
        """Implied (total variance, averaged correlation) at kappa."""
        total = float(kappa.sum())
        if total <= 0.0:
            raise InvalidInputError("kernel-averaging weights sum to zero")
        c = np.zeros((self.p, self.p))
        for w, kern in zip(kappa, self.kernels):
            c += (w / total) * kern
        np.fill_diagonal(c, 1.0)
        return total, c

    def _sigma(self, kappa):
        # Weights that overflow their sum give a non-finite Sigma, which fit rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            if float(kappa.sum()) == 0.0:
                return np.zeros((self.p, self.p))
            total, c = self._combine(kappa)
            return total * c

    def _derivs(self, kappa):
        return [kern.copy() for kern in self.kernels]

    def initial_params(self, y_variance):
        return np.full(self.grid.size, 0.5 * y_variance / self.grid.size)


def average_kernel(
    kappa: np.ndarray, structure: "KernelAveraging"
) -> tuple[float, np.ndarray]:
    """Total variance and averaged correlation implied by KA weights.

    Returns (sum_m var_m, sum_m var_m / total * exp(-theta_m * D)); their
    product reconstructs Sigma(kappa) exactly, bit for bit, because
    ``sigma`` builds it through the same combination.
    """
    if not isinstance(structure, KernelAveraging):
        raise InvalidInputError(
            f"average_kernel requires a kernel-averaging structure, "
            f"got kind {getattr(structure, 'kind', type(structure).__name__)!r}"
        )
    kappa = structure._check_kappa(kappa, strict=False)
    return structure._combine(kappa)


_STRUCTURES: dict[str, type[VarianceStructure]] = {
    cls.kind: cls
    for cls in (
        MainEffect, DiagonalVariance, CorrSingleVar, CorrMultiVar,
        KernelSingleVar, KernelMultiVar, KernelAveraging,
    )
}
STRUCTURE_KINDS = tuple(_STRUCTURES)


def structure_class(kind: str) -> type[VarianceStructure]:
    """The class registered under ``kind``; InvalidInputError if none is."""
    try:
        return _STRUCTURES[kind]
    except KeyError:
        raise InvalidInputError(
            f"unknown structure kind {kind!r}; choose from {', '.join(STRUCTURE_KINDS)}"
        ) from None


def build_structure(
    kind: str,
    *,
    p: int | None = None,
    env_labels: Sequence[str] | None = None,
    corr: EnvCorrelationMatrix | None = None,
    dist: EnvDistanceMatrix | None = None,
    grid: Sequence[float] | None = None,
) -> VarianceStructure:
    """Construct a structure by kind tag from the input its class needs.

    ``corr`` or ``dist`` when the class needs that matrix; otherwise ``p``
    or ``env_labels`` (labels win and set p).  Given ``env_labels``, the
    matrix must carry them, in any order, and is permuted into theirs, so
    matrices read in different orders serve one dataset.  Inputs the kind
    does not need are ignored, as is ``grid`` for kinds without a bandwidth
    grid.
    """
    cls = structure_class(kind)
    if cls.needs == "p":
        if env_labels is not None:
            p = len(env_labels)
        if p is None:
            raise InvalidInputError(
                f"structure {kind!r} requires the number of environments"
            )
        return cls(p, env_labels)
    matrix, what = (corr, "correlation") if cls.needs == "corr" else (dist, "distance")
    if matrix is None:
        raise InvalidInputError(f"structure {kind!r} requires a {what} matrix")
    if env_labels is not None:
        matrix = matrix.in_order(env_labels)
    return cls(matrix, grid) if cls.takes_grid else cls(matrix)
