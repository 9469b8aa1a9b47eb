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
average-information steps on log-transformed values (enforcing positivity
smoothly) with step halving until the log-likelihood does not decrease:

    score_i = -1/2 * (tr(P Vdot_i) - y^T P Vdot_i P y),
    AI_ij   =  1/2 * y^T P Vdot_i P Vdot_j P y,

with Vdot_i = Z (dSigma/dkappa_i kron K) Z^T for structure parameters and
Vdot = I_N for the residual variance.  Both reduce to p x p aggregates of
P and K over environment pairs, so the per-parameter cost is O(p^2) after
one O(N^2 p) pass.

Cost per iteration: V is factored once per trial point, and the accepted
trial's factor is reused for the score and AI matrix (potri turns it into P
in place).  A fit factors V once at the start, once per accepted step and
once per rejected step halving.

BLUPs at the fitted parameters are u_hat = (Sigma_hat kron K) Z^T P y,
computed as the n x p matrix K M Sigma_hat where M scatters P y over
(genotype, environment) cells.
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

    def observed_cells(self) -> list[tuple[str, str]]:
        return [(rec.genotype, rec.environment) for rec in self.records]

    def subset(self, record_indices: Sequence[int]) -> "Dataset":
        """New dataset with a subset of records, sharing kinship and labels."""
        recs = [self.records[i] for i in record_indices]
        return Dataset(recs, self.kinship, self.environment_labels)

    def cell_labels(self) -> list[tuple[str, str]]:
        """All n*p cells in environment-major order (genotype fastest)."""
        return [
            (g, e) for e in self.environment_labels for g in self.genotype_labels
        ]


@dataclass
class DesignMatrices:
    """Fixed-effect incidence X and cell-selection matrix Z."""

    X: np.ndarray
    Z: np.ndarray


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


def build_design(dataset: Dataset) -> DesignMatrices:
    """Design matrices for the per-environment-mean model.

    X is N x p full rank with an intercept and indicators for every
    environment after the first; Z is N x (n*p), each row selecting one
    cell of the environment-major cell vector (genotype index fastest).

    Raises:
        DesignError: If some environment has no records.
    """
    if dataset.p < 2 or dataset.n < 2:
        raise InvalidInputError(
            f"need at least 2 genotypes and 2 environments, got "
            f"{dataset.n} and {dataset.p}"
        )
    x = _design_x(dataset)
    n = dataset.n
    z = np.zeros((dataset.n_records, n * dataset.p))
    cells = dataset.env_index_array * n + dataset.gen_index_array
    z[np.arange(dataset.n_records), cells] = 1.0
    return DesignMatrices(x, z)


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
    v = sigma[np.ix_(env_idx, env_idx)]
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
    """Full symmetric V^-1 - D^T D from the lower Cholesky factor of V.

    LAPACK potri writes the lower triangle of V^-1 over ``chol_lower``
    (consuming the factor), syrk subtracts D^T D from it, and it is mirrored
    into the upper triangle in place: no N x N array besides the factor.
    """
    inv, info = lapack.dpotri(chol_lower, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inversion failed (potri info {info})")
    inv = blas.dsyrk(-1.0, downdate, beta=1.0, c=inv, trans=1, lower=1, overwrite_c=1)
    for j in range(inv.shape[0] - 1):
        inv[j, j + 1 :] = inv[j + 1 :, j]
    return inv


class _PointEvaluation:
    """Likelihood pieces at one (Sigma, resid_var) point, factor retained."""

    def __init__(self, ws: "_RemlWorkspace", sigma: np.ndarray, resid_var: float):
        self.ws = ws
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

    def derivatives(self, derivs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Score vector and average-information matrix (structure params
        in order, residual variance last).

        Consumes the Cholesky factor, which potri overwrites with P, so it
        runs at most once per point.
        """
        ws = self.ws
        # P = V^-1 - V^-1 X A^-1 X^T V^-1 = V^-1 - W^T W, W = L_A^-1 (V^-1 X)^T.
        w_fix = scipy.linalg.solve_triangular(self.chol_a, self.vi_x.T, lower=True)
        p_mat = _chol_inverse(self.chol, w_fix)
        self.chol = None
        py = self.py
        h = ws.k_rec @ (ws.env_onehot * py[:, None])
        k = len(derivs)
        w = np.empty((ws.n_rec, k + 1))
        for i, d in enumerate(derivs):
            w[:, i] = (h * d[ws.env_idx, :]).sum(axis=1)
        w[:, k] = py
        ai = 0.5 * (w.T @ (p_mat @ w))
        tr_vec = np.empty(k + 1)
        tr_vec[k] = float(np.trace(p_mat))
        # P * K in place; RelationshipMatrix makes K exactly symmetric, so K^T
        # has the same values in P's (Fortran) layout.
        p_mat *= ws.k_rec.T
        t_agg = ws.env_onehot.T @ p_mat @ ws.env_onehot
        for i, d in enumerate(derivs):
            tr_vec[i] = float(np.sum(d * t_agg))
        grad = -0.5 * (tr_vec - w.T @ py)
        return grad, 0.5 * (ai + ai.T)


class _RemlWorkspace:
    """Cached per-dataset quantities shared across likelihood evaluations."""

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
        self.dataset = dataset
        self.y = dataset.values
        self.n_rec = dataset.n_records
        self.gen_idx = dataset.gen_index_array
        self.env_idx = dataset.env_index_array
        self.x = _design_x(dataset)
        self.k_rec = dataset.kinship.values[np.ix_(self.gen_idx, self.gen_idx)]
        onehot = np.zeros((self.n_rec, dataset.p))
        onehot[np.arange(self.n_rec), self.env_idx] = 1.0
        self.env_onehot = onehot

    def point(self, sigma: np.ndarray, resid_var: float) -> _PointEvaluation:
        return _PointEvaluation(self, sigma, resid_var)


@dataclass
class FitResult:
    """Converged (or flagged) REML fit.

    ``blup_matrix`` is n x p (genotypes by environments); ``blups`` flattens
    it to the environment-major cell vector (genotype index fastest, cell =
    e * n + g) matching the Z coding of :func:`build_design`.
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

    @property
    def blups(self) -> np.ndarray:
        return self.blup_matrix.flatten(order="F")

    def cell_labels(self) -> list[tuple[str, str]]:
        return [
            (g, e) for e in self.environment_labels for g in self.genotype_labels
        ]

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
    ev = structure.evaluate(kappa)
    return ws.point(ev.sigma, resid_var).derivatives(ev.derivs)


def _ascent_step(ai: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ai @ step = grad, ridging until the step is finite ascent."""
    scale = max(float(np.mean(np.abs(np.diag(ai)))), 1e-300)
    ridge = 0.0
    eye = np.eye(ai.shape[0])
    for _ in range(8):
        try:
            step = np.linalg.solve(ai + ridge * eye, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.all(np.isfinite(step)) and float(grad @ step) > 0.0:
            return step
        ridge = scale * 1e-8 if ridge == 0.0 else ridge * 100.0
    # AI unusable at this point; fall back to a bounded gradient step.
    top = max(float(np.max(np.abs(grad))), 1e-300)
    return grad / top


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
    restricted log-likelihood does not decrease.  Convergence is declared
    when the log-likelihood gain falls below ``tol`` and the maximum
    relative parameter change falls below ``10 * tol``.  Exceeding
    ``max_iter`` returns a result flagged ``converged=False`` rather than
    raising.

    Each accepted step costs one Cholesky factorization of the N x N
    covariance V, since the accepted trial point is reused for the
    derivatives, plus one per rejected halving.  Trial points whose
    parameters overflow are skipped without factoring.

    Args:
        dataset: Observed records plus kinship.
        structure: Environment-side covariance parameterization.
        init: Starting kappa; default ``structure.initial_params(var(y))``.
        resid_init: Starting residual variance; default 0.5 * var(y).
        max_iter: Maximum accepted updates.
        tol: Convergence tolerance on the log-likelihood gain.
        fixed: Optional map from kappa index to a frozen value; frozen
            coordinates keep their value exactly and are excluded from
            updates (the reported AI matrix still covers them).

    Returns:
        FitResult with estimates, the non-decreasing log-likelihood trace,
        the AI matrix at the final point, and BLUPs
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

    ev = structure.evaluate(params[:k])
    cur = ws.point(ev.sigma, params[k])
    grad, ai = cur.derivatives(ev.derivs)
    trace = [cur.loglik]
    boundary: list[str] = []
    converged = False
    iterations = 0

    for _ in range(max_iter):
        g_eta = grad * params
        ai_eta = ai * np.outer(params, params)
        step = np.zeros(k + 1)
        step[free] = np.clip(
            _ascent_step(ai_eta[np.ix_(free, free)], g_eta[free]), -5.0, 5.0
        )
        accepted = None
        for half in range(_MAX_HALVINGS + 1):
            eta_new = eta + step / (2.0**half)
            clamped = free & (eta_new < _LOG_LOWER_BOUND)
            eta_new[clamped] = _LOG_LOWER_BOUND
            params_new = np.exp(eta_new)
            params_new[~free] = params[~free]
            eta_new[~free] = eta[~free]
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
            # No ascent found in any halved step: numerically at an optimum.
            converged = True
            break
        eta_new, params_new, clamped, trial = accepted
        for name in np.array(param_names)[clamped]:
            if name not in boundary:
                boundary.append(name)
                logger.warning("parameter %s clamped at lower boundary", name)
        rel_change = float(
            np.max(
                np.abs(params_new[free] - params[free])
                / np.maximum(np.abs(params[free]), 1e-12)
            )
        )
        # The accepted trial already holds the factor at the new point.
        params, eta, cur = params_new, eta_new, trial
        ev = structure.evaluate(params[:k])
        grad, ai = cur.derivatives(ev.derivs)
        gain = cur.loglik - trace[-1]
        trace.append(cur.loglik)
        iterations += 1
        if gain < tol and rel_change < 10.0 * tol:
            converged = True
            break

    sigma_hat = ev.sigma
    m = np.zeros((dataset.n, dataset.p))
    m[ws.gen_idx, ws.env_idx] = cur.py
    blup_matrix = dataset.kinship.values @ m @ sigma_hat
    return FitResult(
        structure=structure,
        kappa_hat=params[:k],
        resid_var_hat=float(params[k]),
        beta_hat=cur.beta,
        loglik_trace=np.asarray(trace),
        ai_matrix=ai,
        param_names=param_names,
        blup_matrix=blup_matrix,
        genotype_labels=list(dataset.genotype_labels),
        environment_labels=list(dataset.environment_labels),
        converged=converged,
        iterations=iterations,
        boundary_params=boundary,
        fixed_params=fixed,
    )


def predict_cells(
    fit_result: FitResult,
    dataset: Dataset,
    targets: Sequence[tuple[str, str]],
) -> list[CellPrediction]:
    """BLUPs and fitted values for target cells, conditioning on ``dataset``.

    The fitted parameters and fixed effects are frozen at their
    ``fit_result`` values; the conditional mean of each target's genetic
    effect is u_hat = Cov(u_t, y) V^-1 (y - X beta_hat) over the records of
    ``dataset`` (which may be the training data for in-sample BLUPs, or any
    other record set sharing the same genotype and environment universe).
    The fitted value adds the environment mean implied by beta_hat.

    Raises:
        UnknownLabelError: If a target genotype or environment does not
            resolve against ``dataset``.
    """
    if list(dataset.environment_labels) != list(fit_result.environment_labels):
        raise InvalidInputError(
            "dataset environment labels do not match the fitted model"
        )
    target_idx = [
        (dataset.genotype_index(g), dataset.environment_index(e)) for g, e in targets
    ]
    sigma_hat = fit_result.structure.sigma(fit_result.kappa_hat)
    env_means = fit_result.environment_means()
    n, p = dataset.n, dataset.p
    if dataset.n_records:
        gen_idx = dataset.gen_index_array
        env_idx = dataset.env_index_array
        k_rec = dataset.kinship.values[np.ix_(gen_idx, gen_idx)]
        chol = _factor_covariance(sigma_hat, fit_result.resid_var_hat, env_idx, k_rec)
        resid = dataset.values - env_means[env_idx]
        py = scipy.linalg.cho_solve((chol, True), resid, check_finite=False)
        m = np.zeros((n, p))
        m[gen_idx, env_idx] = py
        u = dataset.kinship.values @ m @ sigma_hat
    else:
        u = np.zeros((n, p))
    out = []
    for (g, e), (gi, ei) in zip(targets, target_idx):
        blup = float(u[gi, ei])
        out.append(CellPrediction(g, e, blup, float(env_means[ei] + blup)))
    return out
