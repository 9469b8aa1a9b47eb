"""REML fitting of the genotype-by-environment linear mixed model.

The model for N observed genotype-environment cells is

    y = X beta + Z u + eps,    u ~ N(0, Sigma(kappa) kron K),
                               eps ~ N(0, resid_var * I_N),

where X = E, the N x p environment indicator matrix (``fit`` reports beta
in reference coding, ``FitResult.beta_hat``), K is the n x n genomic
relationship matrix, and Sigma(kappa) is a p x p environment-side covariance
supplied by a :class:`~gxe_reml.variance_structures.VarianceStructure`.
Both point evaluators work in REML's error contrasts (Patterson & Thompson
1971; Harville 1977), the N - p orthonormal columns of L with L^T X = 0,
and evaluate the one formula

    l_R = -1/2 * [log|L^T V L| + y^T L (L^T V L)^-1 L^T y + log|X^T X|],

    V = Z (Sigma kron K) Z^T + resid_var * I_N,    P = L (L^T V L)^-1 L^T,

with log|X^T X| = sum_a log n_a over the environments' record counts.  It
equals log|V| + log|X^T V^-1 X| + y^T P y without that form's cancellation
as resid_var -> 0 along X (K 1 = 0, a centred kinship).  Both take beta as
the per-environment mean of y - V P y = X beta.

Parameters are updated by Newton-type steps on log-transformed values
(enforcing positivity smoothly), built from

    score_i = -1/2 * (tr(P Vdot_i) - y^T P Vdot_i P y),
    AI_ij   =  1/2 * y^T P Vdot_i P Vdot_j P y,
    C_ij    =  1/2 * (tr(P Vddot_ij) - y^T P Vddot_ij P y),

with Vdot_i = Z (dSigma/dkappa_i kron K) Z^T for structure parameters,
Vdot = I_N for the residual variance, and Vddot_ij the matching second
derivatives.  Score and C need only M = T - (Q + Q^T)/2 and s = tr P -
y^T P^2 y, T_ab and Q_ab summing (P o K)_rs and (P y)_r K_rs (P y)_s over
records r in environment a, s in b (the dense point sums over contrasts,
with (L^T V L)^-1, L^T y and L^T K L for P, y and K): score_i = -1/2
sum(dSigma_i o M), the residual's is -1/2 s and C = 1/2 ``curvature(kappa,
M)``, formed with the symmetric AI by the one ``_derivative_tail``.  C, the
curvature the average information omits (Gilmour, Thompson & Cullis 1995;
Meyer & Smith 1996), is zero for parameters that enter Sigma linearly.

The step matrix H, on the log scale and the coordinates that move, is the
first positive definite one giving a finite step among AI + C, AI and AI
plus one ridge (else the gradient is followed), so every step
ascends; it is clipped to +-5 and halved until l_R does not decrease.  A
fit converges when the last accepted gain and the Newton decrement
g^T H^-1 g (g the log-scale score, before clipping) are both below
``tol``.  ``FitResult.ai_matrix`` stays the plain AI, for standard errors.

Cost per iteration: L^T V L is factored once per trial point, and the
accepted trial's factor is reused for the score and AI matrix.  A fit
factors once at the start, once per accepted step and once per rejected
step halving.
Two point evaluators do this behind one interface (``loglik``, ``beta``,
``py``, ``sigma``, ``derivatives``), chosen once per dataset and checked
for a finite Sigma and l_R by ``_RemlWorkspace.point``:

* ``_PointEvaluation`` serves any record set, with L from one Householder
  reflector per environment (``_Contrasts``) and L^T K L formed once per
  fit.  L is block diagonal by environment, so L^T V L = Sigma[e_c, e_c']
  (L^T K L)_cc' + resid_var [c == c'] comes from indexed products, and
  potrf factors it in that buffer.  potri turns the factor into the lower
  triangle of (L^T V L)^-1 in place, and only lower triangles are read.
* ``_SpectralPoint`` serves complete trials, where every genotype is
  observed once in every environment.  There L = I_p kron C U, C the
  contrasts of 1_n and C^T K C = U D U^T, decomposed once per kinship and
  shared by every fit on it, and L^T V L is n - 1 blocks B_i = d_i Sigma +
  resid_var I_p, each factored in place by one potrf call per point.

Products and factorizations with an N-sized operand run on SciPy's BLAS
and LAPACK, by the package's one-pool rule (:mod:`gxe_reml`).

BLUPs at the fitted parameters are u_hat = (Sigma_hat kron K) Z^T P y,
computed once per fit as the n x p matrix K S Sigma_hat, S scattering
P y over (genotype, environment) cells: the one BLUP path and K S Sigma
product, cached on the point (beta reads it too).  ``FitResult.blup_matrix``
holds the result and :func:`lookup_cells` reads cells from it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .env_features import _LabeledMatrix, _eigen_root, _psd_eigh
from .errors import (
    DataError,
    DesignError,
    InvalidInputError,
    NumericalError,
    UnknownLabelError,
)
from .variance_structures import VarianceStructure

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class PhenotypeRecord:
    """One observation: a genotype's value in one environment."""

    genotype: str
    environment: str
    value: float


class RelationshipMatrix(_LabeledMatrix):
    """Genotype relationship matrix with labels.

    Checked like every labelled input (see ``_LabeledMatrix``), with
    DataError, and required to be positive semidefinite by the package's
    one rule (``_psd_eigh``).  As ``values`` is read-only and the fields
    cannot be reassigned, the contrast eigendecomposition that
    complete-trial fits share and the eigen root the simulator draws
    through, each computed on first use, always describe ``values``.
    """

    _what = "relationship matrix"
    _error = DataError

    def _checked(self, values: np.ndarray) -> np.ndarray:
        _psd_eigh(values, self._what, DataError)
        return values

    @cached_property
    def _root(self) -> np.ndarray:
        """F with F F^T = ``values``, its eigen root, read-only."""
        root = _eigen_root(self.values, self._what)
        root.setflags(write=False)
        return root

    @cached_property
    def _contrast_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(d, C U) of :func:`_contrast_rotation`, read-only."""
        d, cu = _contrast_rotation(self.values)
        d.setflags(write=False)
        cu.setflags(write=False)
        return d, cu


class Dataset:
    """Phenotype records joined with a relationship matrix and labels.

    Genotype labels come from the relationship matrix (which may cover
    genotypes without records); environment labels are supplied explicitly
    so their order is stable.  Every record's labels must resolve and each
    (genotype, environment) cell may appear at most once.  Record r is held
    as indices ``gen_index_array[r]`` and ``env_index_array[r]`` into the
    label lists, with its value in ``values[r]``.
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
        gen_map = {g: i for i, g in enumerate(self.genotype_labels)}
        env_map = {e: j for j, e in enumerate(environment_labels)}
        recs, n_rec = self.records, len(self.records)
        gen_idx = np.fromiter((gen_map.get(r.genotype, -1) for r in recs), np.intp, n_rec)
        env_idx = np.fromiter((env_map.get(r.environment, -1) for r in recs), np.intp, n_rec)
        values = np.fromiter((r.value for r in recs), float, n_rec)
        unknown_gen, unknown_env = gen_idx < 0, env_idx < 0
        # A repeat is a record whose cell an earlier record holds.  A record
        # with an unknown label (index -1) can share a real record's cell
        # code, but it fails a label check first itself, and any record it
        # marks as a repeat comes after it: the first faulty record and its
        # first fault are those a record-by-record scan would report.
        cells = gen_idx * len(environment_labels) + env_idx
        order = np.argsort(cells, kind="stable")
        repeat = np.zeros(n_rec, dtype=bool)
        repeat[order[1:]] = cells[order[1:]] == cells[order[:-1]]
        faulty = np.flatnonzero(unknown_gen | unknown_env | repeat | ~np.isfinite(values))
        if faulty.size:
            r = int(faulty[0])
            rec = recs[r]
            if unknown_gen[r]:
                raise UnknownLabelError(
                    f"record {r}: genotype {rec.genotype!r} is not in the "
                    f"relationship matrix"
                )
            if unknown_env[r]:
                raise UnknownLabelError(
                    f"record {r}: environment {rec.environment!r} is not in the "
                    f"environment labels"
                )
            if repeat[r]:
                raise DataError(
                    f"duplicate cell ({rec.genotype!r}, {rec.environment!r})"
                )
            raise DataError(
                f"record {r} ({rec.genotype!r}, {rec.environment!r}): "
                f"non-finite value"
            )
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

    def subset(self, record_indices: Sequence[int]) -> "Dataset":
        """New dataset with a subset of records, sharing kinship and labels."""
        recs = [self.records[i] for i in record_indices]
        return Dataset(recs, self.kinship, self.environment_labels)


def _assemble_covariance(
    sigma: np.ndarray, resid_var: float, env_idx: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """V_rs = Sigma[e_r, e_s] k_rs + resid_var [r == s] in Fortran order, for
    a Fortran-ordered ``k``; right in the triangles where ``k`` is.  Callers
    check V for overflow, so it is not warned about."""
    v = np.take(sigma[env_idx], env_idx, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        v.T[...] *= k
        v.flat[:: len(env_idx) + 1] += resid_var
    return v.T


def _factor_covariance(sigma: np.ndarray, resid_var: float, ws: "_RemlWorkspace") -> np.ndarray:
    """Lower Cholesky factor of L^T V L, in place on its own buffer, whose
    lower triangle alone is set; ``clean`` zeroes the rest.  Only the
    diagonal is checked for finiteness: an off-diagonal overflow leaves it
    indefinite, which potrf reports.  A failure's diagnostics describe V,
    rebuilt in record space: L^T V L is a principal submatrix of H V H."""
    v = _assemble_covariance(sigma, resid_var, ws.contrasts.env, ws.contrasts.k)
    if not np.all(np.isfinite(v.diagonal())):
        raise NumericalError("covariance matrix is not finite")
    chol, info = lapack.dpotrf(v, lower=1, overwrite_a=1, clean=1)
    if info != 0:
        k_rec = ws.dataset.kinship.values[np.ix_(ws.gen_idx, ws.gen_idx)]
        v = _assemble_covariance(sigma, resid_var, ws.env_idx, k_rec)
        try:
            eigs = scipy.linalg.eigvalsh(v, driver="evd")
            why = f"min eigenvalue {eigs[0]:.3e}, max eigenvalue {eigs[-1]:.3e}"
        except Exception:  # pragma: no cover - diagnostics best effort
            why = "eigenvalue diagnostics unavailable"
        raise NumericalError(f"covariance factorization failed (potrf info {info}; {why})")
    return chol


class _Contrasts:
    """Within-environment error contrasts L of the records with genotypes
    ``gen`` and environments ``env_idx``, n_a = ``counts[a]`` in environment a.

    H = I - W W^T holds one Householder reflector per environment, w_a =
    (1_a / sqrt(n_a) + e_f) / sqrt(1 + 1 / sqrt(n_a)) with f the
    environment's first record, so H's column f is -1_a / sqrt(n_a) and its
    other columns are L.  Records are reordered (``order``) with the N - p
    contrasts first and the first records last, in environment order.  K,
    gathered so, is rotated in place, H K H = K - W G^T - G W^T with G = K W
    - W W^T K W / 2, and ``k`` keeps L^T K L, its leading block's lower
    triangle, in Fortran order; ``onehot`` marks the contrasts' environments.
    """

    def __init__(self, env_idx: np.ndarray, counts: np.ndarray, kin: np.ndarray, gen: np.ndarray):
        p = len(counts)
        first = np.unique(env_idx, return_index=True)[1]
        self.order = order = np.concatenate([np.delete(np.arange(len(env_idx)), first), first])
        self.inverse = np.argsort(order)
        self.m = m = len(env_idx) - p
        self.env = env_idx[order[:m]]
        onehot = np.eye(p)[env_idx[order]]
        self.onehot = np.asfortranarray(onehot[:m])
        root = np.sqrt(counts)
        w = onehot / root
        w[m:] += np.eye(p)
        self.w = w = np.asfortranarray(w / np.sqrt(1.0 + 1.0 / root))
        # K is symmetric, so the C-ordered gather's transpose is it in Fortran order.
        k = np.take(kin[gen[order]], gen[order], axis=1).T
        g = blas.dsymm(1.0, k, w, lower=1)
        g = blas.dgemm(-0.5, w, blas.dgemm(1.0, w, g, trans_a=1), beta=1.0, c=g, overwrite_c=1)
        k = blas.dsyr2k(-1.0, w, g, beta=1.0, c=k, lower=1, overwrite_c=1)
        self.k = np.asfortranarray(k[:m, :m])

    def _reflect(self, z: np.ndarray) -> np.ndarray:
        """H z for reordered rows z (N x k), in place if z is Fortran-ordered."""
        wz = blas.dgemm(1.0, self.w, z, trans_a=1)
        return blas.dgemm(-1.0, self.w, wz, beta=1.0, c=z, overwrite_c=1)

    def project(self, y: np.ndarray) -> np.ndarray:
        """L^T y for rows y (N x k) in record order."""
        return self._reflect(np.asfortranarray(y[self.order]))[: self.m]

    def lift(self, r: np.ndarray) -> np.ndarray:
        """L r in record order, for r (m x k): H applied to r padded with zeros."""
        padded = np.pad(r, ((0, len(self.order) - self.m), (0, 0)))
        return self._reflect(np.asfortranarray(padded))[self.inverse]


def _cell_blups(dataset: Dataset, weights: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """n x p BLUP matrix K S Sigma, S scattering per-record ``weights``
    (V^-1 times the mean-adjusted phenotypes) over the observed cells."""
    scattered = np.zeros((dataset.n, dataset.p), order="F")
    scattered[dataset.gen_index_array, dataset.env_index_array] = weights
    return blas.dgemm(1.0, blas.dgemm(1.0, dataset.kinship.values.T, scattered), sigma)


def _derivative_tail(
    structure: VarianceStructure, kappa: np.ndarray, derivs, m, s: float, ai
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score vector, average-information matrix and curvature correction
    (structure params in order, residual variance last) from a point's
    aggregates: ``m`` = T - Q, whose symmetric part is M, ``s`` and ``ai``,
    the Gram matrix of the w_i = Vdot_i P y in P (module docstring).  The
    correction's residual-variance row and column are zero."""
    m = 0.5 * (m + m.T)
    corr = np.pad(0.5 * structure.curvature(kappa, m), (0, 1))
    grad = -0.5 * np.array([np.sum(d * m) for d in derivs] + [s])
    return grad, 0.25 * (ai + ai.T), corr


class _Point:
    """What both likelihood points share: the BLUPs and beta from P y."""

    @cached_property
    def blups(self) -> np.ndarray:
        return _cell_blups(self.ws.dataset, self.py, self.sigma)

    @cached_property
    def beta(self) -> np.ndarray:
        # y - V P y = X beta: per environment, the mean of y - blups - resid_var P y.
        ws = self.ws
        blups = self.blups[ws.gen_idx, ws.env_idx]
        fixed = ws.dataset.values - blups - self.resid_var * self.py
        return np.bincount(ws.env_idx, fixed) / ws.counts


class _PointEvaluation(_Point):
    """Likelihood pieces at one (Sigma, resid_var) point of any record set,
    in the error contrasts, from the Cholesky factor of L^T V L, which is
    retained."""

    def __init__(self, ws: "_RemlWorkspace", sigma: np.ndarray, resid_var: float):
        self.ws, self.sigma, self.resid_var = ws, sigma, resid_var
        self.chol = chol = _factor_covariance(sigma, resid_var, ws)
        logdet_v = 2.0 * float(np.sum(np.log(np.diag(chol))))
        # r = (L^T V L)^-1 L^T y, so y^T P y = (L^T y)^T r and P y = L r.
        self.r = lapack.dpotrs(chol, ws.y, lower=1)[0]
        self.loglik = -0.5 * (logdet_v + blas.ddot(ws.y, self.r) + ws.logdet_xx)

    @cached_property
    def py(self) -> np.ndarray:
        return self.ws.contrasts.lift(self.r[:, None])[:, 0]

    def derivatives(
        self, structure: VarianceStructure, kappa: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_derivative_tail` at ``kappa``, from (L^T V L)^-1.
        Consumes the Cholesky factor, which potri overwrites with the
        inverse's lower triangle, so it runs at most once per point."""
        ws = self.ws
        derivs = structure.derivs(kappa)
        p_low, info = lapack.dpotri(self.chol, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"triangular inversion failed (potri info {info})")
        self.chol = None
        r, k, onehot = self.r, ws.contrasts.k, ws.contrasts.onehot
        er = onehot * r[:, None]
        h = blas.dsymm(1.0, k, er, lower=1)
        # m x (k + 1) in Fortran order: Vdot_i P y per structure parameter, then P y.
        w = np.array([(h * d[ws.contrasts.env]).sum(axis=1) for d in derivs] + [r]).T
        ai = blas.dgemm(1.0, w, blas.dsymm(1.0, p_low, w, lower=1), trans_a=1)
        s = np.trace(p_low) - blas.ddot(r, r)
        # Environment aggregate of P * K from the lower triangle L of P * K:
        # T = E^T L E + (E^T L E)^T - diag(per-environment sums of diag(L)).
        p_low *= k
        t_low = blas.dgemm(1.0, onehot, blas.dgemm(1.0, p_low, onehot), trans_a=1)
        diag_l = np.bincount(ws.contrasts.env, p_low.diagonal(), len(t_low))
        t_agg = t_low + t_low.T - np.diag(diag_l)
        # T - Q, Q = (E o P y)^T h.
        t_q = blas.dgemm(-1.0, er, h, beta=1.0, c=t_agg, trans_a=1)
        return _derivative_tail(structure, kappa, derivs, t_q, s, ai)


def _is_complete(dataset: Dataset) -> bool:
    """Every genotype observed in every environment (cells are unique)."""
    return dataset.n >= 2 and dataset.n_records == dataset.n * dataset.p


def _contrast_rotation(kin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues d (round-off negatives set to 0) and the n x (n - 1)
    basis C U of C^T K C = U D U^T, C the :class:`_Contrasts` of n records
    of one environment: columns 2..n of one Householder reflector."""
    n = len(kin)
    contrasts = _Contrasts(np.zeros(n, dtype=np.intp), np.array([n]), kin, np.arange(n))
    d, u = scipy.linalg.eigh(contrasts.k, driver="evd", overwrite_a=True, check_finite=False)
    return np.maximum(d, 0.0), contrasts.lift(u)


class _SpectralPoint(_Point):
    """Likelihood pieces at one point of a complete trial, in the contrast
    eigenbasis: the rotated V is block diagonal with B_i = d_i Sigma +
    resid_var I, each block factored in place by its own potrf call."""

    def __init__(self, ws: "_RemlWorkspace", sigma: np.ndarray, resid_var: float):
        self.ws, self.sigma, self.resid_var = ws, sigma, resid_var
        with np.errstate(over="ignore", invalid="ignore"):
            chol = ws.d[:, None, None] * sigma
            chol += resid_var * np.eye(len(sigma))
            # A block whose trace overflows has eigenvalues near the double range.
            traces = np.trace(chol, axis1=1, axis2=2)
        if not (np.all(np.isfinite(chol)) and np.all(np.isfinite(traces))):
            raise NumericalError("covariance matrix is not finite")
        # B_i is symmetric, so its C-ordered transpose is B_i in Fortran
        # order: potrf factors it there with no copy, and the upper factor
        # it writes reads in C order as the lower factor L_i.
        potrf = lapack.dpotrf
        for i, block in enumerate(chol.transpose(0, 2, 1)):
            info = potrf(block, lower=0, overwrite_a=1, clean=1)[1]
            if info != 0:
                raise NumericalError(
                    f"covariance factorization failed (potrf info {info} on the "
                    f"block with d_i = {ws.d[i]:.6e})"
                )
        logdet_v = 2.0 * float(np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))
        # r_i = B_i^-1 y_i through z_i = U_i y_i, U_i = L_i^-1, so y^T P y = sum |z_i|^2.
        self.inv_chol = inv_chol = np.linalg.inv(chol)
        z = np.einsum("ijk,ik->ij", inv_chol, ws.y)
        self.r = np.einsum("ikj,ik->ij", inv_chol, z)
        # An overflowing quadratic form is reported by _RemlWorkspace.point.
        with np.errstate(over="ignore", invalid="ignore"):
            self.loglik = -0.5 * (logdet_v + float(np.sum(z * z)) + ws.logdet_xx)

    @cached_property
    def py(self) -> np.ndarray:
        return blas.dgemm(1.0, self.ws.cu, self.r)[self.ws.gen_idx, self.ws.env_idx]

    def derivatives(
        self, structure: VarianceStructure, kappa: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_derivative_tail` at ``kappa``, from B_i^-1 = U_i^T U_i:
        T - Q = sum_i d_i U_i^T U_i - (d r)^T r, tr P = sum_i |U_i|^2 and AI
        sums (U_i w_i)^T U_i w_i, w_i = d_i dSigma r_i (r_i for resid_var)."""
        d, r, u = self.ws.d, self.r, self.inv_chol
        derivs = structure.derivs(kappa)
        dr = r * d[:, None]
        # sum_i d_i U_i^T U_i as one product of the stacked sqrt(d_i) U_i.
        root = (u * np.sqrt(d)[:, None, None]).reshape(-1, len(self.sigma))
        t_q = blas.dgemm(1.0, root, root, trans_a=1)
        t_q = blas.dgemm(-1.0, dr, r, beta=1.0, c=t_q, trans_a=1, overwrite_c=1)
        w = np.array([blas.dgemm(1.0, dr, ds) for ds in derivs] + [r])
        uw = np.einsum("ijk,aik->aij", u, w).reshape(len(w), -1)
        ai = blas.dgemm(1.0, uw, uw, trans_b=1)
        s = float(np.sum(u * u)) - float(np.sum(r * r))
        return _derivative_tail(structure, kappa, derivs, t_q, s, ai)


class _RemlWorkspace:
    """Cached per-dataset quantities shared across likelihood evaluations.

    A complete trial is rotated into the contrast eigenbasis, decomposed
    once per kinship and shared by every dataset on it, and evaluated by
    :class:`_SpectralPoint`; any other by the dense :class:`_PointEvaluation`.
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
        self.dataset = dataset
        self.env_idx = env = dataset.env_index_array
        self.gen_idx = gen = dataset.gen_index_array
        self.counts = counts = np.bincount(env, minlength=dataset.p)
        if counts.min() == 0:
            lab = dataset.environment_labels[int(counts.argmin())]
            raise DesignError(f"environment {lab!r} has no records; its mean is not estimable")
        if counts.max() == 1:
            raise DesignError("every environment has one record: no error contrasts")
        # log|X^T X| for X = E, the environment indicators.
        self.logdet_xx = float(np.sum(np.log(counts)))
        # y holds the phenotypes in the contrasts, L^T y.
        if _is_complete(dataset):
            self._evaluate = _SpectralPoint
            self.d, self.cu = dataset.kinship._contrast_basis
            y_grid = np.zeros((dataset.n, dataset.p), order="F")
            y_grid[gen, env] = dataset.values
            self.y = blas.dgemm(1.0, self.cu, y_grid, trans_a=1)
        else:
            self._evaluate = _PointEvaluation
            self.contrasts = _Contrasts(env, counts, dataset.kinship.values, gen)
            self.y = self.contrasts.project(dataset.values[:, None])[:, 0]

    def point(self, sigma: np.ndarray, resid_var: float) -> _PointEvaluation | _SpectralPoint:
        if not np.all(np.isfinite(sigma)):
            raise NumericalError("covariance matrix is not finite")
        point = self._evaluate(self, sigma, resid_var)
        if not np.isfinite(point.loglik):
            raise NumericalError("restricted log-likelihood is not finite")
        return point


@dataclass
class FitResult:
    """Converged (or flagged) REML fit.

    ``termination`` says why the fit stopped: ``"tol"`` (gain and Newton
    decrement below ``tol``), ``"stalled"`` (every halving of a step
    failed) or ``"max_iter"``.  Only ``"tol"`` counts as ``converged``.
    ``blup_matrix`` is n x p: row i is ``genotype_labels[i]``, column j is
    ``environment_labels[j]``.  :func:`lookup_cells` reads cells from it.
    ``beta_hat`` is in reference coding: ``beta_hat[0]`` is the first
    environment's mean and ``beta_hat[j]`` environment j's mean minus it;
    :meth:`environment_means` undoes the coding.
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
    termination: str
    iterations: int
    boundary_params: list[str] = field(default_factory=list)

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def converged(self) -> bool:
        return self.termination == "tol"

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


def _point_at(
    dataset: Dataset, structure: VarianceStructure, kappa: np.ndarray, resid_var: float
) -> _PointEvaluation | _SpectralPoint:
    """One point evaluation outside a fit, with its own workspace."""
    if not np.isfinite(resid_var) or resid_var <= 0.0:
        raise InvalidInputError(f"resid_var must be finite and positive, got {resid_var}")
    ws = _RemlWorkspace(dataset, structure)
    return ws.point(structure.sigma(kappa), resid_var)


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
    return _point_at(dataset, structure, kappa, resid_var).loglik


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
    point = _point_at(dataset, structure, kappa, resid_var)
    grad, ai, _ = point.derivatives(structure, kappa)
    return grad, ai


def _newton_step(ai: np.ndarray, corr: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve M @ step = grad with the first positive definite M, among AI + C,
    AI and AI + r I (r = 1e-8 mean|diag AI|), whose step is finite: an
    ascent step.  Failing all, grad scaled to max 1."""
    ridge = 1e-8 * max(float(np.mean(np.abs(np.diag(ai)))), 1e-300)
    for m in (ai + corr, ai, ai + ridge * np.eye(len(grad))):
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            continue
        step = scipy.linalg.cho_solve((chol, True), grad, check_finite=False)
        if np.all(np.isfinite(step)):
            return step
    return grad / max(float(np.max(np.abs(grad))), 1e-300)


def _as_index(value, what: str) -> int:
    """``value`` as an int, for any integer type (NumPy's too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}") from None


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
    parameters), AI o kappa kappa^T and that AI plus one ridge, else follows
    the gradient.  Convergence is declared when the last accepted gain and the
    Newton decrement g^T M^-1 g of the unclipped step both fall below
    ``tol`` (``termination="tol"``).  A step whose every halving fails
    (``"stalled"``), and exceeding ``max_iter`` (``"max_iter"``), end the
    fit with ``converged=False``.

    Each accepted step factors one trial point (module docstring), which is
    reused for the derivatives, plus one per rejected halving.  Trial points
    whose parameters overflow are skipped without factoring.  Each
    parameter's lower bound is e^-30 times its default start
    (``structure.initial_params(var(y))``, 0.5 * var(y) for resid_var),
    whatever ``init`` is, so bounds follow the units of y and D.  A step
    reaching a bound stops there and lists the parameter in
    ``boundary_params``; a parameter at its bound pushed further down is
    left out of the step.  A log-scale step is clipped to +-5, or scaled
    whole to that size when clipping would leave it no ascent direction.

    Args:
        dataset: Observed records plus kinship.
        structure: Environment-side covariance parameterization.
        init: Starting kappa; default ``structure.initial_params(var(y))``.
            The structure checks it, and again with the ``fixed`` values
            put in: one finite, positive value per parameter.
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
    max_iter = _as_index(max_iter, "max_iter")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise InvalidInputError(f"tol must be finite and positive, got {tol}")
    ws = _RemlWorkspace(dataset, structure)
    y_var = float(dataset.values.var())
    if y_var <= 0.0:
        raise DataError("phenotype variance is zero; nothing to decompose")
    k = structure.n_params
    default = np.append(structure.initial_params(y_var), 0.5 * y_var)
    kappa = structure._check_kappa(default[:k] if init is None else init, strict=True).copy()
    resid = default[k] if resid_init is None else float(resid_init)
    if not np.isfinite(resid) or resid <= 0.0:
        raise InvalidInputError(f"resid_init must be finite and positive, got {resid}")
    fixed = {_as_index(i, "fixed parameter index"): v for i, v in (fixed or {}).items()}
    for idx, value in fixed.items():
        if not 0 <= idx < k:
            raise InvalidInputError(
                f"fixed parameter index {idx} out of range for {k} parameters"
            )
        kappa[idx] = value
    structure._check_kappa(kappa, strict=True)

    params = np.concatenate([kappa, [resid]])
    floor = np.log(default) - 30.0
    free = np.array([i not in fixed for i in range(k)] + [True])
    eta = np.log(params)
    param_names = structure.param_names() + ["resid_var"]

    cur = ws.point(structure.sigma(params[:k]), params[k])
    grad, ai, corr = cur.derivatives(structure, params[:k])
    trace = [cur.loglik]
    boundary: list[str] = []
    termination = "max_iter"

    while True:
        g_eta = grad * params
        # Halving a step that pushes a pinned coordinate down gains nothing.
        moving = free & ~((eta <= floor) & (g_eta < 0.0))
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
        if len(trace) > 1 and trace[-1] - trace[-2] < tol and decrement < tol:
            termination = "tol"
            break
        if len(trace) > max_iter:
            break
        accepted = None
        for half in range(_MAX_HALVINGS + 1):
            eta_new = eta + step / (2.0**half)
            clamped = free & (eta_new <= floor)
            eta_new[clamped] = floor[clamped]
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
            # Every halving failed: not shown to be stationary.
            termination = "stalled"
            break
        eta, params, clamped, cur = accepted
        for name in np.array(param_names)[clamped]:
            if name not in boundary:
                boundary.append(name)
        # The accepted trial already holds the factor at the new point.
        grad, ai, corr = cur.derivatives(structure, params[:k])
        trace.append(cur.loglik)

    means = cur.beta
    return FitResult(
        structure=structure,
        kappa_hat=params[:k],
        resid_var_hat=float(params[k]),
        beta_hat=np.concatenate([means[:1], means[1:] - means[0]]),
        loglik_trace=np.asarray(trace),
        ai_matrix=ai,
        param_names=param_names,
        blup_matrix=cur.blups,
        genotype_labels=list(dataset.genotype_labels),
        environment_labels=list(dataset.environment_labels),
        termination=termination,
        iterations=len(trace) - 1,
        boundary_params=boundary,
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
