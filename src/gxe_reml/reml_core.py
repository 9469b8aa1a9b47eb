"""REML fitting of the genotype-by-environment linear mixed model.

The model for N observed genotype-environment cells is

    y = X beta + Z u + eps,    u ~ N(0, Sigma(kappa) kron K),
                               eps ~ N(0, resid_var * I_N),

where X codes per-environment means (intercept plus reference-level
environment indicators), K is the n x n genomic relationship matrix, and
Sigma(kappa) is a p x p environment-side covariance supplied by a
:class:`~gxe_reml.variance_structures.VarianceStructure`.  The restricted
log-likelihood is

    l_R = -1/2 * [log|V| + log|X^T V^-1 X| + y^T P y],

    V = Z (Sigma kron K) Z^T + resid_var * I_N,
    P = V^-1 - V^-1 X (X^T V^-1 X)^-1 X^T V^-1.

V is assembled densely at record dimension N through indexed products
V_rs = Sigma[e_r, e_s] * K[g_r, g_s] + resid_var * [r == s]; the Kronecker
product itself is never materialized.  Parameters are updated by
Newton-type steps on log-transformed values (enforcing positivity
smoothly), built from

    score_i = -1/2 * (tr(P Vdot_i) - y^T P Vdot_i P y),
    AI_ij   =  1/2 * y^T P Vdot_i P Vdot_j P y,
    C_ij    =  1/2 * (tr(P Vddot_ij) - y^T P Vddot_ij P y),

with Vdot_i = Z (dSigma/dkappa_i kron K) Z^T for structure parameters,
Vdot = I_N for the residual variance, and Vddot_ij the matching second
derivatives.  All three reduce to p x p aggregates of P and K over
environment pairs, so the per-parameter cost is O(p^2) after one O(N^2 p)
pass.  C, the curvature the average information omits (Gilmour, Thompson
& Cullis 1995; Meyer & Smith 1996), is zero for parameters that enter
Sigma linearly and is contracted by ``VarianceStructure.curvature``.

The step matrix M, on the log scale and the coordinates that move, is the
first positive definite one giving a finite step among AI + C, AI and AI
plus a growing ridge (else the gradient is followed), so every step
ascends; it is clipped to +-5 and halved until l_R does not decrease.  A
fit converges when the last accepted gain and the Newton decrement
g^T M^-1 g (g the log-scale score, before clipping) are both below
``tol``.  ``FitResult.ai_matrix`` stays the plain AI, for standard errors.

Cost per iteration: V is factored once per trial point, and the accepted
trial's factor is reused for the score and AI matrix.  A fit factors once
at the start, once per accepted step and once per rejected step halving.
Two point evaluators do this behind one interface (``loglik``, ``beta``,
``py``, ``sigma``, ``derivatives``), chosen once per dataset:

* ``_PointEvaluation`` serves any record set.  It factors the N x N V;
  potri turns the factor into the lower triangle of P in place, and only
  that triangle is read.
* ``_SpectralPoint`` serves complete trials, where every genotype is
  observed once in every environment.  With C an orthonormal complement
  of 1_n (one Householder reflector) and C^T K C = U D U^T decomposed once,
  the contrasts (I_p kron C U)^T y are REML's error contrasts, and in them
  V is n - 1 blocks B_i = d_i Sigma + resid_var I_p.  Then
  l_R = -1/2 [sum_i log|B_i| + sum_i y_i^T B_i^-1 y_i + p log n], y_i the
  rows of U^T C^T Y for the n x p phenotype grid Y (p log n = log|X^T X|).
  One batched Cholesky call factors the blocks per trial point, and score,
  AI and C reduce to p x p sums over them.  The contrasts also avoid the
  cancellation in log|V| + log|X^T V^-1 X| + y^T P y as resid_var -> 0
  when K 1 = 0 (a centred kinship).

Products with an N-sized operand run on SciPy's BLAS, as the factorization
does: NumPy and SciPy each bundle an OpenBLAS, and switching between their
thread pools left one pool spinning while the other worked.

BLUPs at the fitted parameters are u_hat = (Sigma_hat kron K) Z^T P y,
computed once per fit as the n x p matrix K M Sigma_hat where M scatters
P y over (genotype, environment) cells.  That is the one BLUP path:
``FitResult.blup_matrix`` holds the result and :func:`lookup_cells` reads
cells from it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import (
    DataError,
    DesignError,
    InvalidInputError,
    NumericalError,
    UnknownLabelError,
)
from .variance_structures import VarianceStructure

logger = logging.getLogger(__name__)

_LOG_LOWER_BOUND = -30.0
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class PhenotypeRecord:
    """One observation: a genotype's value in one environment."""

    genotype: str
    environment: str
    value: float


@dataclass
class RelationshipMatrix:
    """Genotype relationship matrix with labels.

    Symmetrized on construction (asymmetry beyond 1e-8 is an error) and
    required to have minimum eigenvalue >= -1e-8 times the maximum.
    """

    values: np.ndarray
    labels: list[str]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        n = values.shape[0]
        if values.ndim != 2 or values.shape != (n, n):
            raise DataError(f"relationship matrix must be square, got {values.shape}")
        if len(self.labels) != n:
            raise DataError(
                f"relationship matrix is {n}x{n} but has {len(self.labels)} labels"
            )
        if len(set(self.labels)) != n:
            raise DataError("relationship matrix labels contain duplicates")
        if not np.all(np.isfinite(values)):
            raise DataError("relationship matrix contains non-finite entries")
        gap = float(np.max(np.abs(values - values.T), initial=0.0))
        if gap > 1e-8:
            raise DataError(
                f"relationship matrix is asymmetric beyond tolerance (max gap {gap:.3e})"
            )
        values = 0.5 * (values + values.T)
        eigs = np.linalg.eigvalsh(values)
        if eigs[0] < -1e-8 * max(float(eigs[-1]), 1e-300):
            raise DataError(
                f"relationship matrix is not positive semidefinite "
                f"(min eigenvalue {eigs[0]:.3e}, max {eigs[-1]:.3e})"
            )
        self.values = values

    @property
    def n(self) -> int:
        return self.values.shape[0]


class Dataset:
    """Phenotype records joined with a relationship matrix and labels.

    Genotype labels come from the relationship matrix (which may cover
    genotypes without records); environment labels are supplied explicitly
    so their order is stable.  Every record's labels must resolve and each
    (genotype, environment) cell may appear at most once.
    """

    def __init__(
        self,
        records: Sequence[PhenotypeRecord],
        kinship: RelationshipMatrix,
        environment_labels: Sequence[str],
    ):
        environment_labels = list(environment_labels)
        if len(set(environment_labels)) != len(environment_labels):
            raise DataError("environment labels contain duplicates")
        if not environment_labels:
            raise DataError("at least one environment label is required")
        self.records: tuple[PhenotypeRecord, ...] = tuple(records)
        self.kinship = kinship
        self.environment_labels = environment_labels
        self.genotype_labels: list[str] = list(kinship.labels)
        self._gen_map = {g: i for i, g in enumerate(self.genotype_labels)}
        self._env_map = {e: j for j, e in enumerate(environment_labels)}
        gen_idx = np.empty(len(self.records), dtype=np.intp)
        env_idx = np.empty(len(self.records), dtype=np.intp)
        values = np.empty(len(self.records))
        seen: set[tuple[int, int]] = set()
        for r, rec in enumerate(self.records):
            try:
                gen_idx[r] = self._gen_map[rec.genotype]
            except KeyError:
                raise UnknownLabelError(
                    f"record {r}: genotype {rec.genotype!r} is not in the "
                    f"relationship matrix"
                ) from None
            try:
                env_idx[r] = self._env_map[rec.environment]
            except KeyError:
                raise UnknownLabelError(
                    f"record {r}: environment {rec.environment!r} is not in the "
                    f"environment labels"
                ) from None
            cell = (int(gen_idx[r]), int(env_idx[r]))
            if cell in seen:
                raise DataError(
                    f"duplicate cell ({rec.genotype!r}, {rec.environment!r})"
                )
            seen.add(cell)
            if not np.isfinite(rec.value):
                raise DataError(
                    f"record {r} ({rec.genotype!r}, {rec.environment!r}): "
                    f"non-finite value"
                )
            values[r] = rec.value
        self.gen_index_array = gen_idx
        self.env_index_array = env_idx
        self.values = values

    @property
    def n(self) -> int:
        return len(self.genotype_labels)

    @property
    def p(self) -> int:
        return len(self.environment_labels)

    @property
    def n_records(self) -> int:
        return len(self.records)

    def genotype_index(self, label: str) -> int:
        try:
            return self._gen_map[label]
        except KeyError:
            raise UnknownLabelError(f"unknown genotype {label!r}") from None

    def environment_index(self, label: str) -> int:
        try:
            return self._env_map[label]
        except KeyError:
            raise UnknownLabelError(f"unknown environment {label!r}") from None

    def subset(self, record_indices: Sequence[int]) -> "Dataset":
        """New dataset with a subset of records, sharing kinship and labels."""
        recs = [self.records[i] for i in record_indices]
        return Dataset(recs, self.kinship, self.environment_labels)


def _design_x(dataset: Dataset) -> np.ndarray:
    """Intercept plus reference-level environment indicators (p columns)."""
    counts = np.bincount(dataset.env_index_array, minlength=dataset.p)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        lab = dataset.environment_labels[int(missing[0])]
        raise DesignError(
            f"environment {lab!r} has no records; its mean is not estimable"
        )
    n_rec, p = dataset.n_records, dataset.p
    x = np.zeros((n_rec, p))
    x[:, 0] = 1.0
    rows = np.nonzero(dataset.env_index_array > 0)[0]
    x[rows, dataset.env_index_array[rows]] = 1.0
    return x


def _condition_diagnostics(v: np.ndarray) -> str:
    try:
        eigs = np.linalg.eigvalsh(v)
        return f"min eigenvalue {eigs[0]:.3e}, max eigenvalue {eigs[-1]:.3e}"
    except Exception:  # pragma: no cover - diagnostics best effort
        return "eigenvalue diagnostics unavailable"


def _factor_covariance(
    sigma: np.ndarray, resid_var: float, env_idx: np.ndarray, k_rec: np.ndarray
) -> np.ndarray:
    """Lower Cholesky factor of V_rs = Sigma[e_r, e_s] K_rs + resid_var [r == s].

    ``k_rec`` is K[g_r, g_s].  Only Sigma and diag(V) are checked for
    finiteness: an off-diagonal overflow leaves V indefinite, which the
    factorization reports.  Failures raise NumericalError.
    """
    v = np.take(sigma[env_idx], env_idx, axis=1)
    v *= k_rec
    v.flat[:: len(env_idx) + 1] += resid_var
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(v.diagonal()))):
        raise NumericalError("covariance matrix is not finite")
    try:
        return scipy.linalg.cholesky(v, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            f"covariance factorization failed: {exc} ({_condition_diagnostics(v)})"
        ) from None


def _chol_inverse(chol_lower: np.ndarray, downdate: np.ndarray) -> np.ndarray:
    """Lower triangle of V^-1 - D^T D from the lower Cholesky factor of V.

    LAPACK potri writes the lower triangle of V^-1 over ``chol_lower``
    (consuming the factor) and syrk subtracts D^T D from it; the strict
    upper triangle keeps the zeros ``scipy.linalg.cholesky`` left there.
    """
    inv, info = lapack.dpotri(chol_lower, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inversion failed (potri info {info})")
    return blas.dsyrk(-1.0, downdate, beta=1.0, c=inv, trans=1, lower=1, overwrite_c=1)


def _cell_blups(dataset: Dataset, weights: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """n x p BLUP matrix K M Sigma, M scattering per-record ``weights``
    (V^-1 times the mean-adjusted phenotypes) over the observed cells."""
    m = np.zeros((dataset.n, dataset.p), order="F")
    m[dataset.gen_index_array, dataset.env_index_array] = weights
    return blas.dgemm(1.0, blas.dgemm(1.0, dataset.kinship.values.T, m), sigma)


class _PointEvaluation:
    """Likelihood pieces at one (Sigma, resid_var) point of any record set,
    from the N x N Cholesky factor of V, which is retained."""

    def __init__(self, ws: "_RemlWorkspace", sigma: np.ndarray, resid_var: float):
        self.ws = ws
        self.sigma = sigma
        self.chol = chol = _factor_covariance(sigma, resid_var, ws.env_idx, ws.k_rec)
        logdet_v = 2.0 * float(np.sum(np.log(np.diag(chol))))
        vi_y = scipy.linalg.cho_solve((chol, True), ws.y, check_finite=False)
        vi_x = scipy.linalg.cho_solve((chol, True), ws.x, check_finite=False)
        a = ws.x.T @ vi_x
        a = 0.5 * (a + a.T)
        try:
            chol_a = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "X^T V^-1 X is not positive definite "
                f"({_condition_diagnostics(a)})"
            ) from None
        logdet_a = 2.0 * float(np.sum(np.log(np.diag(chol_a))))
        beta = scipy.linalg.cho_solve((chol_a, True), ws.x.T @ vi_y, check_finite=False)
        py = vi_y - vi_x @ beta
        self.vi_x = vi_x
        self.chol_a = chol_a
        self.beta = beta
        self.py = py
        self.loglik = -0.5 * (logdet_v + logdet_a + float(ws.y @ py))
        if not np.isfinite(self.loglik):
            raise NumericalError("restricted log-likelihood is not finite")

    def derivatives(
        self, structure: VarianceStructure, kappa: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score vector, average-information matrix and curvature correction
        (structure params in order, residual variance last), with the
        derivatives of Sigma taken at ``kappa``.

        The correction is 1/2 [tr(P Vddot_ij) - y^T P Vddot_ij P y]; its
        residual-variance row and column are zero.  Consumes the Cholesky
        factor, which potri overwrites with P's lower triangle, so it runs
        at most once per point.
        """
        ws = self.ws
        derivs = structure.evaluate(kappa).derivs
        # P = V^-1 - V^-1 X A^-1 X^T V^-1 = V^-1 - W^T W, W = L_A^-1 (V^-1 X)^T.
        w_fix = scipy.linalg.solve_triangular(self.chol_a, self.vi_x.T, lower=True)
        p_low = _chol_inverse(self.chol, w_fix)
        self.chol = None
        py = self.py
        # K is exactly symmetric, so k_rec.T is k_rec in P's (Fortran) layout.
        k_rec, onehot = ws.k_rec.T, ws.env_onehot
        epy = onehot * py[:, None]
        h = blas.dgemm(1.0, k_rec, epy)
        # N x (k + 1) in Fortran order: Vdot_i P y per structure parameter, then P y.
        w = np.array([(h * d[ws.env_idx]).sum(axis=1) for d in derivs] + [py]).T
        ai = 0.5 * blas.dgemm(1.0, w, blas.dsymm(1.0, p_low, w, lower=1), trans_a=1)
        tr_p = np.trace(p_low)
        # Environment aggregate of P * K from the lower triangle L of P * K:
        # T = E^T L E + (E^T L E)^T - diag(per-environment sums of diag(L)).
        p_low *= k_rec
        t_low = blas.dgemm(1.0, onehot, blas.dgemm(1.0, p_low, onehot), trans_a=1)
        diag_l = np.bincount(ws.env_idx, p_low.diagonal(), len(t_low))
        t_agg = t_low + t_low.T - np.diag(diag_l)
        tr_vec = np.array([np.sum(d * t_agg) for d in derivs] + [tr_p])
        # Column sums, not gemv: each entry is then independent of k.
        grad = -0.5 * (tr_vec - (w * py[:, None]).sum(axis=0))
        # y^T P Vddot_ij P y = sum_ab (d2 Sigma)_ab Q_ab, Q = (E o P y)^T h.
        q = blas.dgemm(1.0, epy, h, trans_a=1)
        k = len(derivs)
        corr = np.zeros((k + 1, k + 1))
        corr[:k, :k] = 0.5 * structure.curvature(kappa, t_agg - 0.5 * (q + q.T))
        return grad, 0.5 * (ai + ai.T), corr


def _is_complete(dataset: Dataset) -> bool:
    """Every genotype observed in every environment (cells are unique)."""
    return dataset.n >= 2 and dataset.n_records == dataset.n * dataset.p


def _contrast_rotation(kin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues d (round-off negatives set to 0) and the n x (n - 1)
    basis C U of C^T K C = U D U^T.

    C is columns 2..n of the Householder reflector I - v v^T / v_0 with
    v = 1_n / sqrt(n) + e_1, an orthonormal complement of 1_n.
    """
    n = len(kin)
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] += 1.0
    c = np.asfortranarray(np.outer(v, v[1:] / -v[0]))
    c[1:] += np.eye(n - 1)
    ckc = blas.dgemm(1.0, c, blas.dgemm(1.0, kin, c), trans_a=1)
    d, u = scipy.linalg.eigh(ckc, driver="evd", check_finite=False)
    return np.maximum(d, 0.0), blas.dgemm(1.0, c, u)


class _SpectralPoint:
    """Likelihood pieces at one point of a complete trial, in the contrast
    eigenbasis: the rotated V is block diagonal with B_i = d_i Sigma +
    resid_var I, factored in one batched Cholesky call."""

    def __init__(self, ws: "_RemlWorkspace", sigma: np.ndarray, resid_var: float):
        self.ws = ws
        self.sigma = sigma
        if not np.all(np.isfinite(sigma)):
            raise NumericalError("covariance matrix is not finite")
        blocks = ws.d[:, None, None] * sigma
        blocks += resid_var * np.eye(len(sigma))
        # A block whose trace overflows has eigenvalues near the double range.
        traces = np.trace(blocks, axis1=1, axis2=2)
        if not (np.all(np.isfinite(blocks)) and np.all(np.isfinite(traces))):
            raise NumericalError("covariance matrix is not finite")
        try:
            chol = scipy.linalg.cholesky(blocks, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"covariance factorization failed: {exc}") from None
        logdet_v = 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))
        # r_i = B_i^-1 y_i through z_i = L_i^-1 y_i, so y^T P y = sum |z_i|^2.
        self.inv_chol = inv_chol = np.linalg.inv(chol)
        z = np.einsum("ijk,ik->ij", inv_chol, ws.y_rot)
        self.r = r = np.einsum("ikj,ik->ij", inv_chol, z)
        self.loglik = -0.5 * (logdet_v + float(np.sum(z * z)) + ws.logdet_xx)
        if not np.isfinite(self.loglik):
            raise NumericalError("restricted log-likelihood is not finite")
        py_grid = blas.dgemm(1.0, ws.cu, r)
        self.py = py_grid[ws.gen_idx, ws.env_idx]
        # y - V P y = X beta: per-environment means, in the reference coding.
        vpy = blas.dgemm(1.0, blas.dgemm(1.0, ws.kin, py_grid), sigma)
        means = (ws.y_grid - vpy - resid_var * py_grid).mean(axis=0)
        self.beta = np.concatenate([means[:1], means[1:] - means[0]])

    def derivatives(
        self, structure: VarianceStructure, kappa: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """As :meth:`_PointEvaluation.derivatives`, from the p x p blocks:
        T = sum_i d_i B_i^-1 and Q = sum_i d_i r_i r_i^T give the traces,
        and w_i = d_i dSigma r_i (r_i for the residual) the AI matrix."""
        d, r = self.ws.d, self.r
        derivs = structure.evaluate(kappa).derivs
        b_inv = np.matmul(self.inv_chol.transpose(0, 2, 1), self.inv_chol)
        dr = r * d[:, None]
        t_q = np.tensordot(d, b_inv, axes=1) - dr.T @ r
        t_q = 0.5 * (t_q + t_q.T)
        w = np.array([dr @ ds for ds in derivs] + [r])
        bw = np.einsum("ijk,aik->aij", b_inv, w)
        ai = 0.5 * np.einsum("aij,bij->ab", w, bw)
        tr_p = float(np.trace(b_inv, axis1=1, axis2=2).sum())
        grad = -0.5 * np.array(
            [np.sum(ds * t_q) for ds in derivs] + [tr_p - float(np.sum(r * r))]
        )
        k = len(derivs)
        corr = np.zeros((k + 1, k + 1))
        corr[:k, :k] = 0.5 * structure.curvature(kappa, t_q)
        return grad, 0.5 * (ai + ai.T), corr


class _RemlWorkspace:
    """Cached per-dataset quantities shared across likelihood evaluations.

    A complete trial is rotated once into the contrast eigenbasis and
    evaluated by :class:`_SpectralPoint`; any other by the dense
    :class:`_PointEvaluation`.
    """

    def __init__(self, dataset: Dataset, structure: VarianceStructure):
        if structure.p != dataset.p:
            raise InvalidInputError(
                f"structure covers {structure.p} environments but the dataset "
                f"has {dataset.p}"
            )
        if structure.env_labels is not None and list(structure.env_labels) != list(
            dataset.environment_labels
        ):
            raise InvalidInputError(
                "structure environment labels do not match the dataset "
                f"(structure: {structure.env_labels}, "
                f"dataset: {dataset.environment_labels})"
            )
        self.y = dataset.values
        self.env_idx = dataset.env_index_array
        self.gen_idx = gen = dataset.gen_index_array
        kin = dataset.kinship.values
        if _is_complete(dataset):
            self._evaluate = _SpectralPoint
            self.kin = kin
            self.d, self.cu = _contrast_rotation(kin)
            self.y_grid = np.zeros((dataset.n, dataset.p), order="F")
            self.y_grid[gen, self.env_idx] = self.y
            self.y_rot = blas.dgemm(1.0, self.cu, self.y_grid, trans_a=1)
            # log|X^T X| = p log n for the reference coding of a complete trial.
            self.logdet_xx = dataset.p * np.log(dataset.n)
        else:
            self._evaluate = _PointEvaluation
            self.x = _design_x(dataset)
            self.k_rec = np.take(kin[gen], gen, axis=1)
            self.env_onehot = np.asfortranarray(np.eye(dataset.p)[self.env_idx])

    def point(
        self, sigma: np.ndarray, resid_var: float
    ) -> _PointEvaluation | _SpectralPoint:
        return self._evaluate(self, sigma, resid_var)


@dataclass
class FitResult:
    """Converged (or flagged) REML fit.

    ``blup_matrix`` is n x p: row i is ``genotype_labels[i]``, column j is
    ``environment_labels[j]``.  :func:`lookup_cells` reads cells from it.
    """

    structure: VarianceStructure
    kappa_hat: np.ndarray
    resid_var_hat: float
    beta_hat: np.ndarray
    loglik_trace: np.ndarray
    ai_matrix: np.ndarray
    param_names: list[str]
    blup_matrix: np.ndarray
    genotype_labels: list[str]
    environment_labels: list[str]
    converged: bool
    iterations: int
    boundary_params: list[str] = field(default_factory=list)
    fixed_params: dict[int, float] = field(default_factory=dict)

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    def environment_means(self) -> np.ndarray:
        """Per-environment fitted means implied by beta_hat."""
        means = np.full(len(self.environment_labels), self.beta_hat[0])
        means[1:] += self.beta_hat[1:]
        return means


@dataclass(frozen=True)
class CellPrediction:
    """BLUP and fitted value for one genotype-environment cell."""

    genotype: str
    environment: str
    blup: float
    fitted: float


def reml_loglik(
    dataset: Dataset,
    structure: VarianceStructure,
    kappa: np.ndarray,
    resid_var: float,
) -> float:
    """Restricted log-likelihood at the given parameters.

    Invariant under record reordering and under y -> y + X b for any b.

    Raises:
        NumericalError: If the covariance matrix is not finite or its
            factorization fails; the latter message carries eigenvalue
            diagnostics.
    """
    if not np.isfinite(resid_var) or resid_var <= 0.0:
        raise InvalidInputError(f"resid_var must be positive, got {resid_var}")
    ws = _RemlWorkspace(dataset, structure)
    return ws.point(structure.sigma(kappa), resid_var).loglik


def score_and_ai(
    dataset: Dataset,
    structure: VarianceStructure,
    kappa: np.ndarray,
    resid_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Score vector and average-information matrix at the given point.

    Both are ordered [structure parameters..., resid_var].  The gradient
    matches central finite differences of :func:`reml_loglik`; the AI matrix
    is symmetric.
    """
    if not np.isfinite(resid_var) or resid_var <= 0.0:
        raise InvalidInputError(f"resid_var must be positive, got {resid_var}")
    ws = _RemlWorkspace(dataset, structure)
    sigma = structure.evaluate(kappa).sigma
    grad, ai, _ = ws.point(sigma, resid_var).derivatives(structure, kappa)
    return grad, ai


def _newton_step(ai: np.ndarray, corr: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve M @ step = grad with the first positive definite M, among AI + C,
    AI and AI + r I (r = 1e-8 mean|diag AI| growing x100 over 7 tries), whose
    step is finite: an ascent step.  Failing all, grad scaled to max 1."""
    ridge = 1e-8 * max(float(np.mean(np.abs(np.diag(ai)))), 1e-300)
    eye = np.eye(len(grad))
    for m in [ai + corr, ai] + [ai + ridge * 100.0**i * eye for i in range(7)]:
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            continue
        step = scipy.linalg.cho_solve((chol, True), grad, check_finite=False)
        if np.all(np.isfinite(step)):
            return step
    return grad / max(float(np.max(np.abs(grad))), 1e-300)


def fit(
    dataset: Dataset,
    structure: VarianceStructure,
    init: np.ndarray | None = None,
    resid_init: float | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    fixed: Mapping[int, float] | None = None,
) -> FitResult:
    """Fit the mixed model by average-information REML.

    Updates run on log-transformed parameters with step halving until the
    restricted log-likelihood does not decrease.  Each step solves with the
    first positive definite M on the moving coordinates, among
    (AI + C) o kappa kappa^T (AI plus the curvature of the nonlinear
    parameters), AI o kappa kappa^T and that AI ridged, else follows the
    gradient.  Convergence is declared when the last accepted gain and the
    Newton decrement g^T M^-1 g of the unclipped step both fall below
    ``tol``.  A step whose every halving fails, and exceeding ``max_iter``,
    end the fit with ``converged=False``.

    Each accepted step costs one Cholesky factorization, since the accepted
    trial point is reused for the derivatives, plus one per rejected
    halving: of the N x N covariance V (``_PointEvaluation``), or on a
    complete trial one batched call over its n - 1 p x p blocks in the
    contrast eigenbasis (``_SpectralPoint``; module docstring).
    Trial points whose parameters overflow are skipped without factoring.  A
    parameter at the lower bound pushed further down is left out of the step,
    and a log-scale step is clipped to +-5, or scaled whole to that size when
    clipping would leave it no ascent direction.

    Args:
        dataset: Observed records plus kinship.
        structure: Environment-side covariance parameterization.
        init: Starting kappa; default ``structure.initial_params(var(y))``.
        resid_init: Starting residual variance; default 0.5 * var(y).
        max_iter: Maximum accepted updates.
        tol: Convergence tolerance on the log-likelihood gain and on the
            Newton decrement.
        fixed: Optional map from kappa index to a frozen value; frozen
            coordinates keep their value exactly and are excluded from
            updates (the reported AI matrix still covers them).

    Returns:
        FitResult with estimates, the non-decreasing log-likelihood trace,
        the plain AI matrix (without C) at the final point, and BLUPs
        u_hat = (Sigma_hat kron K) Z^T P y.
    """
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    ws = _RemlWorkspace(dataset, structure)
    y_var = float(ws.y.var())
    if y_var <= 0.0:
        raise DataError("phenotype variance is zero; nothing to decompose")
    k = structure.n_params
    kappa = (
        structure.initial_params(y_var)
        if init is None
        else np.atleast_1d(np.asarray(init, dtype=float)).copy()
    )
    if kappa.shape != (k,):
        raise InvalidInputError(
            f"init has shape {kappa.shape}, expected ({k},)"
        )
    resid = 0.5 * y_var if resid_init is None else float(resid_init)
    if not np.isfinite(resid) or resid <= 0.0:
        raise InvalidInputError(f"resid_init must be positive, got {resid}")
    fixed = dict(fixed or {})
    for idx, value in fixed.items():
        if not 0 <= idx < k:
            raise InvalidInputError(
                f"fixed parameter index {idx} out of range for {k} parameters"
            )
        if not np.isfinite(value) or value <= 0.0:
            raise InvalidInputError(
                f"fixed value for parameter {idx} must be positive, got {value}"
            )
        kappa[idx] = value
    if np.any(~np.isfinite(kappa)) or np.any(kappa <= 0.0):
        raise InvalidInputError("initial parameters must be positive and finite")

    params = np.concatenate([kappa, [resid]])
    free = np.array([i not in fixed for i in range(k)] + [True])
    eta = np.log(params)
    param_names = structure.param_names() + ["resid_var"]

    cur = ws.point(structure.sigma(params[:k]), params[k])
    grad, ai, corr = cur.derivatives(structure, params[:k])
    trace = [cur.loglik]
    boundary: list[str] = []
    converged = False
    iterations = 0
    gain = np.inf

    while True:
        g_eta = grad * params
        # Halving a step that pushes a pinned coordinate down gains nothing.
        moving = free & ~((eta <= _LOG_LOWER_BOUND) & (g_eta < 0.0))
        step = np.zeros(k + 1)
        decrement = 0.0
        if moving.any():
            g_mov = g_eta[moving]
            block = np.ix_(moving, moving)
            scale = np.outer(params, params)[block]
            full = _newton_step(ai[block] * scale, corr[block] * scale, g_mov)
            decrement = float(g_mov @ full)
            clipped = np.clip(full, -5.0, 5.0)
            # Clipping a near-singular step can leave no ascent; shrink it whole.
            if float(g_mov @ clipped) <= 0.0:
                clipped = full * (5.0 / np.max(np.abs(full)))
            step[moving] = clipped
        if gain < tol and decrement < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        accepted = None
        for half in range(_MAX_HALVINGS + 1):
            eta_new = eta + step / (2.0**half)
            clamped = free & (eta_new < _LOG_LOWER_BOUND)
            eta_new[clamped] = _LOG_LOWER_BOUND
            params_new = np.exp(eta_new)
            params_new[~free] = params[~free]
            if not np.all(np.isfinite(params_new)):
                continue
            try:
                trial = ws.point(structure.sigma(params_new[:k]), params_new[k])
            except NumericalError:
                continue
            if trial.loglik >= trace[-1]:
                accepted = (eta_new, params_new, clamped, trial)
                break
        if accepted is None:
            # Every halving failed: stalled, not shown to be stationary.
            break
        eta, params, clamped, cur = accepted
        for name in np.array(param_names)[clamped]:
            if name not in boundary:
                boundary.append(name)
                logger.warning("parameter %s clamped at lower boundary", name)
        # The accepted trial already holds the factor at the new point.
        grad, ai, corr = cur.derivatives(structure, params[:k])
        gain = cur.loglik - trace[-1]
        trace.append(cur.loglik)
        iterations += 1

    return FitResult(
        structure=structure,
        kappa_hat=params[:k],
        resid_var_hat=float(params[k]),
        beta_hat=cur.beta,
        loglik_trace=np.asarray(trace),
        ai_matrix=ai,
        param_names=param_names,
        blup_matrix=_cell_blups(dataset, cur.py, cur.sigma),
        genotype_labels=list(dataset.genotype_labels),
        environment_labels=list(dataset.environment_labels),
        converged=converged,
        iterations=iterations,
        boundary_params=boundary,
        fixed_params=fixed,
    )


def lookup_cells(
    fit_result, targets: Sequence[tuple[str, str]]
) -> list[CellPrediction]:
    """BLUPs and fitted values for target cells, given the fit's own records.

    Reads ``blup_matrix``, ``environment_means()`` and the label lists, so
    it serves a :class:`FitResult` or a fit read back from disk alike.  Any
    genotype in the kinship gets a BLUP in every fitted environment, with
    or without records of its own.

    Raises:
        UnknownLabelError: If a target genotype or environment is not in
            the fit's labels.
    """
    gen_map = {g: i for i, g in enumerate(fit_result.genotype_labels)}
    env_map = {e: j for j, e in enumerate(fit_result.environment_labels)}
    means = fit_result.environment_means()
    out = []
    for g, e in targets:
        if g not in gen_map:
            raise UnknownLabelError(f"unknown genotype {g!r}")
        if e not in env_map:
            raise UnknownLabelError(f"unknown environment {e!r}")
        blup = float(fit_result.blup_matrix[gen_map[g], env_map[e]])
        out.append(CellPrediction(g, e, blup, float(means[env_map[e]] + blup)))
    return out
