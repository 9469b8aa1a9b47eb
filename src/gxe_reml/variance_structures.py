"""Environment-side covariance structures Sigma(kappa) and their gradients.

The genetic effects of one genotype across p environments carry covariance
Sigma(kappa), a p x p matrix parameterized by a short positive vector kappa.
Every structure provides Sigma itself plus the per-parameter derivative
matrices dSigma/dkappa_i consumed by the average-information updates, so new
structures plug into the fitting loop without touching it.

A new structure is one subclass declaring its ``kind`` tag and the input it
is built from, ``needs``: ``"p"`` (environment count or labels), ``"corr"``
or ``"dist"`` (the matrix its constructor takes).  Listed in
``_STRUCTURES``, it reaches :func:`build_structure`, the CLI and CV.

Available parameterizations (kind tags in parentheses):

* ``main`` -- one shared variance, Sigma = var * J (all-ones J); genotype
  effects are perfectly correlated across environments.
* ``diag`` -- independent environments, Sigma = diag(var_1..var_p).
* ``cor1`` -- fixed correlation matrix C scaled by one variance,
  Sigma = var * C.
* ``corP`` -- fixed C with per-environment variances,
  Sigma = outer(s, s) * C where s_i = sqrt(var_i).
* ``kern1`` -- Gaussian kernel with estimated bandwidth,
  Sigma = var * exp(-theta * D) taken entrywise over squared distances D.
* ``kernP`` -- Gaussian kernel with bandwidth plus per-environment
  variances, Sigma = outer(s, s) * exp(-theta * D).
* ``ka`` -- kernel averaging over a fixed bandwidth grid,
  Sigma = sum_m var_m * exp(-theta_m * D); the weights are variances of
  independent summed effects, so the implied total variance is
  sum_m var_m and the implied correlation is their convex combination of
  kernels.

Bandwidth limits connect the families: exp(-theta * D) tends entrywise to
the all-ones matrix as theta -> 0+ (recovering ``main``) and to the identity
as theta -> infinity (recovering ``diag``).

Derivatives follow from the parameterizations directly.  For the
multi-variance forms, with s_i = sqrt(var_i) and entrywise products,

    d Sigma / d var_i  has (i, i) entry C_ii, and (i, j) = (j, i) entry
    0.5 * s_j / s_i * C_ij for j != i,

with C replaced by exp(-theta * D) in the kernel case, and

    d Sigma / d theta = -outer(s, s) * D * exp(-theta * D).

The fit also needs second derivatives, contracted with a symmetric p x p
matrix m: ``curvature(kappa, m)`` returns the k x k matrix
C_ij = sum_ab (d2 Sigma / dkappa_i dkappa_j)_ab m_ab.  It is zero for
``main``, ``diag``, ``cor1`` and ``ka``, which are linear in kappa.  With
K = exp(-theta * D) and B the fixed base (C for ``corP``, K for ``kernP``),
the nonzero forms are

    kern1:        C_theta,theta = var * sum(D^2 * K * m),
                  C_theta,var   = -sum(D * K * m),    C_var,var = 0;
    corP, kernP:  C_var_i,var_j = 0.5 * B_ij m_ij / (s_i s_j)   (i != j),
                  C_var_i,var_i = -0.5 * sum_{b != i} s_b B_ib m_ib / s_i^3;
    kernP:        C_theta,theta = sum(outer(s, s) * D^2 * K * m),
                  C_theta,var_i = -sum_b (s_b / s_i) D_ib K_ib m_ib.

``sigma(kappa)`` accepts kappa >= 0 (covariance only; zero components are
legitimate when simulating), while ``evaluate(kappa)`` requires kappa > 0
strictly because the multi-variance derivatives contain 1/s_i factors.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .env_features import EnvCorrelationMatrix, EnvDistanceMatrix, in_label_order
from .errors import InvalidInputError

logger = logging.getLogger(__name__)

@dataclass
class CovarianceWithDerivatives:
    """Sigma(kappa) together with dSigma/dkappa_i for each parameter."""

    sigma: np.ndarray
    derivs: list[np.ndarray]


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
    total = float(values.sum())
    n_off = p * (p - 1)
    if n_off == 0:
        raise InvalidInputError("at least two environments are required")
    return total / n_off


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


def _validated_correlation(corr: EnvCorrelationMatrix) -> np.ndarray:
    """Copy of a correlation matrix, clipped to the PSD cone if needed."""
    c = corr.values.copy()
    eigs = np.linalg.eigvalsh(c)
    tol = 1e-8 * max(1.0, float(eigs[-1]))
    if eigs[0] < -tol:
        raise InvalidInputError(
            f"correlation matrix is not positive semidefinite "
            f"(smallest eigenvalue {eigs[0]:.3e})"
        )
    if eigs[0] < 0.0:
        w, v = np.linalg.eigh(c)
        c = (v * np.clip(w, 0.0, None)) @ v.T
        c = 0.5 * (c + c.T)
        logger.warning(
            "correlation matrix clipped to positive semidefinite "
            "(smallest eigenvalue was %.3e)", float(eigs[0]),
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

    def evaluate(self, kappa: np.ndarray) -> CovarianceWithDerivatives:
        """Sigma(kappa) and all dSigma/dkappa_i; kappa must be > 0."""
        kappa = self._check_kappa(kappa, strict=True)
        return CovarianceWithDerivatives(self._sigma(kappa), self._derivs(kappa))

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


class MainEffect(VarianceStructure):
    """Single genotype main effect: Sigma = var * J."""

    kind = "main"
    needs = "p"

    def __init__(self, p: int, env_labels: Sequence[str] | None = None):
        super().__init__(p, ["var"], list(env_labels) if env_labels else None)

    def _sigma(self, kappa):
        return np.full((self.p, self.p), kappa[0])

    def _derivs(self, kappa):
        return [np.ones((self.p, self.p))]

    def initial_params(self, y_variance):
        return np.array([0.5 * y_variance])


class DiagonalVariance(VarianceStructure):
    """Independent environments: Sigma = diag(var_1..var_p)."""

    kind = "diag"
    needs = "p"

    def __init__(self, p: int, env_labels: Sequence[str] | None = None):
        labels = list(env_labels) if env_labels else [str(j) for j in range(p)]
        super().__init__(p, [f"var[{lab}]" for lab in labels],
                         list(env_labels) if env_labels else None)

    def _sigma(self, kappa):
        return np.diag(kappa)

    def _derivs(self, kappa):
        derivs = []
        for i in range(self.p):
            m = np.zeros((self.p, self.p))
            m[i, i] = 1.0
            derivs.append(m)
        return derivs

    def initial_params(self, y_variance):
        return np.full(self.p, 0.5 * y_variance)


class CorrSingleVar(VarianceStructure):
    """Fixed correlation, one variance: Sigma = var * C."""

    kind = "cor1"
    needs = "corr"

    def __init__(self, corr: EnvCorrelationMatrix):
        super().__init__(corr.p, ["var"], list(corr.labels))
        self.corr = _validated_correlation(corr)

    def _sigma(self, kappa):
        return kappa[0] * self.corr

    def _derivs(self, kappa):
        return [self.corr.copy()]

    def initial_params(self, y_variance):
        return np.array([0.5 * y_variance])


def _multi_var_derivs(s: np.ndarray, base: np.ndarray) -> list[np.ndarray]:
    """Derivatives of outer(s, s) * base w.r.t. each var_i = s_i**2.

    Off-diagonal (i, j) entries are 0.5 * s_j / s_i * base_ij; the (i, i)
    entry is base_ii.
    """
    p = s.shape[0]
    derivs = []
    for i in range(p):
        m = np.zeros((p, p))
        row = 0.5 * (s / s[i]) * base[i]
        m[i, :] = row
        m[:, i] = row
        m[i, i] = base[i, i]
        derivs.append(m)
    return derivs


def _multi_var_curvature(s: np.ndarray, base: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Second derivatives of outer(s, s) * base w.r.t. var_i = s_i**2,
    contracted with m (the variance block of the module docstring)."""
    bm = base * m
    c = 0.5 * bm / np.outer(s, s)
    np.fill_diagonal(c, -0.5 * (bm @ s - bm.diagonal() * s) / s**3)
    return c


class CorrMultiVar(VarianceStructure):
    """Fixed correlation, per-environment variances: Sigma = outer(s,s)*C."""

    kind = "corP"
    needs = "corr"

    def __init__(self, corr: EnvCorrelationMatrix):
        super().__init__(corr.p, [f"var[{lab}]" for lab in corr.labels],
                         list(corr.labels))
        self.corr = _validated_correlation(corr)

    def _sigma(self, kappa):
        s = np.sqrt(kappa)
        return np.outer(s, s) * self.corr

    def _derivs(self, kappa):
        return _multi_var_derivs(np.sqrt(kappa), self.corr)

    def curvature(self, kappa, m):
        return _multi_var_curvature(np.sqrt(kappa), self.corr, m)

    def initial_params(self, y_variance):
        return np.full(self.p, 0.5 * y_variance)


class KernelSingleVar(VarianceStructure):
    """Gaussian kernel, one variance: Sigma = var * exp(-theta * D).

    Parameter layout: [theta, var].
    """

    kind = "kern1"
    needs = "dist"

    def __init__(self, dist: EnvDistanceMatrix):
        super().__init__(dist.p, ["bandwidth", "var"], list(dist.labels))
        self.dist = dist.values.copy()

    def _sigma(self, kappa):
        return kappa[1] * np.exp(-kappa[0] * self.dist)

    def _derivs(self, kappa):
        kern = np.exp(-kappa[0] * self.dist)
        return [-kappa[1] * self.dist * kern, kern]

    def curvature(self, kappa, m):
        dkm = self.dist * np.exp(-kappa[0] * self.dist) * m
        c_tv = -float(dkm.sum())
        return np.array([[kappa[1] * float(np.sum(self.dist * dkm)), c_tv], [c_tv, 0.0]])

    def initial_params(self, y_variance):
        return np.array([1.0 / mean_offdiag(self.dist), 0.5 * y_variance])


class KernelMultiVar(VarianceStructure):
    """Gaussian kernel with per-environment variances.

    Parameter layout: [theta, var_1..var_p];
    Sigma = outer(s, s) * exp(-theta * D) with s_i = sqrt(var_i).
    """

    kind = "kernP"
    needs = "dist"

    def __init__(self, dist: EnvDistanceMatrix):
        super().__init__(dist.p, ["bandwidth"] + [f"var[{lab}]" for lab in dist.labels],
                         list(dist.labels))
        self.dist = dist.values.copy()

    def _sigma(self, kappa):
        s = np.sqrt(kappa[1:])
        return np.outer(s, s) * np.exp(-kappa[0] * self.dist)

    def _derivs(self, kappa):
        s = np.sqrt(kappa[1:])
        kern = np.exp(-kappa[0] * self.dist)
        d_theta = -np.outer(s, s) * self.dist * kern
        return [d_theta] + _multi_var_derivs(s, kern)

    def curvature(self, kappa, m):
        s = np.sqrt(kappa[1:])
        kern = np.exp(-kappa[0] * self.dist)
        dkm = self.dist * kern * m
        c = np.empty((self.n_params, self.n_params))
        c[1:, 1:] = _multi_var_curvature(s, kern, m)
        c[0, 0] = float(np.sum(np.outer(s, s) * self.dist * dkm))
        # D has a zero diagonal, so the b = i term of the sum vanishes.
        c[0, 1:] = c[1:, 0] = -(dkm @ s) / s
        return c

    def initial_params(self, y_variance):
        return np.concatenate(
            [[1.0 / mean_offdiag(self.dist)], np.full(self.p, 0.5 * y_variance)]
        )


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
        self.kernels = [np.exp(-t * dist.values) for t in grid]

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
    ``evaluate`` builds Sigma through the same combination.
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
    or ``env_labels`` (labels win and set p).  A matrix whose labels are
    ``env_labels`` in another order is permuted into their order, so
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
        matrix = in_label_order(matrix, env_labels)
    return cls(matrix, grid) if cls.takes_grid else cls(matrix)
