"""Shared builders and dense-matrix oracles for the test suite.

The oracles here deliberately take the slow, explicit route: the REML
log-likelihood is evaluated with `np.kron`, dense inverses, and
`slogdet`, so they share no assembly code with the package internals
they are checking.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from gxe_reml import (
    CvRow,
    DataError,
    Dataset,
    EnvDistanceMatrix,
    EnvFeatureMatrix,
    InvalidInputError,
    PhenotypeRecord,
    RelationshipMatrix,
    SparseDesign,
    UnknownLabelError,
    build_structure,
    env_distance,
)

logger = logging.getLogger(__name__)


def standardized_features(q: int, p: int, seed: int) -> EnvFeatureMatrix:
    """Random q x p feature matrix with rows at mean 0, population sd 1."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(q, p))
    raw -= raw.mean(axis=1, keepdims=True)
    raw /= raw.std(axis=1, keepdims=True)
    return EnvFeatureMatrix(
        raw, [f"v{i}" for i in range(q)], [f"E{j}" for j in range(p)]
    )


def random_distance(p: int, seed: int, mean_off: float | None = None) -> EnvDistanceMatrix:
    """Squared-Euclidean distances between random standardized columns.

    When ``mean_off`` is given the matrix is rescaled so its mean
    off-diagonal entry equals it exactly (rescaling squared Euclidean
    distances by a positive constant keeps them squared Euclidean).
    """
    dist = env_distance(standardized_features(max(2 * p, 6), p, seed))
    if mean_off is not None:
        off = dist.values[~np.eye(p, dtype=bool)].mean()
        dist = EnvDistanceMatrix(dist.values * (mean_off / off), list(dist.labels))
    return dist


def random_kinship(n: int, seed: int) -> RelationshipMatrix:
    """Well-conditioned PSD kinship with unit diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, max(2 * n, 8)))
    k = a @ a.T / a.shape[1]
    d = np.sqrt(np.diag(k))
    k = k / np.outer(d, d)
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 1.0)
    return RelationshipMatrix(k, [f"g{i:03d}" for i in range(n)])


def make_dataset(
    n: int,
    p: int,
    seed: int,
    missing: set[tuple[int, int]] | None = None,
    y: np.ndarray | None = None,
    kinship: RelationshipMatrix | None = None,
    env_labels: list[str] | None = None,
) -> Dataset:
    """Complete n x p dataset in environment-major order, minus ``missing``.

    ``missing`` holds (genotype index, environment index) pairs; ``y``
    supplies record values in the surviving order, otherwise values are
    drawn standard normal.
    """
    rng = np.random.default_rng(seed)
    kin = kinship if kinship is not None else random_kinship(n, seed + 1)
    envs = env_labels if env_labels is not None else [f"E{j}" for j in range(p)]
    gens = list(kin.labels)
    miss = missing or set()
    records = []
    k = 0
    for e in range(p):
        for g in range(n):
            if (g, e) in miss:
                continue
            value = float(y[k]) if y is not None else float(rng.normal())
            records.append(PhenotypeRecord(gens[g], envs[e], value))
            k += 1
    return Dataset(records, kin, envs)


def first_record_fault(records, kinship: RelationshipMatrix, environment_labels):
    """Record-by-record reference for ``Dataset``'s checks: the error the
    first faulty record raises (genotype, environment, repeated cell, then
    value, in that order), or None when every record is valid."""
    genotypes, environments = set(kinship.labels), set(environment_labels)
    seen = set()
    for r, rec in enumerate(records):
        if rec.genotype not in genotypes:
            return UnknownLabelError(
                f"record {r}: genotype {rec.genotype!r} is not in the relationship matrix"
            )
        if rec.environment not in environments:
            return UnknownLabelError(
                f"record {r}: environment {rec.environment!r} is not in the "
                f"environment labels"
            )
        cell = (rec.genotype, rec.environment)
        if cell in seen:
            return DataError(f"duplicate cell ({rec.genotype!r}, {rec.environment!r})")
        seen.add(cell)
        if not math.isfinite(rec.value):
            return DataError(
                f"record {r} ({rec.genotype!r}, {rec.environment!r}): non-finite value"
            )
    return None


@dataclass
class DesignMatrices:
    """Fixed-effect incidence X and cell-selection matrix Z."""

    X: np.ndarray
    Z: np.ndarray


def build_design(dataset: Dataset) -> DesignMatrices:
    """Dense design matrices for the per-environment-mean model.

    X is N x p: an intercept column, then an indicator column for every
    environment after the first.  Z is N x (n*p), each row selecting one
    cell of the environment-major cell vector (cell = e * n + g).
    """
    n, p = dataset.n, dataset.p
    x = np.zeros((dataset.n_records, p))
    z = np.zeros((dataset.n_records, n * p))
    for r, (g, e) in enumerate(zip(dataset.gen_index_array, dataset.env_index_array)):
        x[r, 0] = 1.0
        if e > 0:
            x[r, e] = 1.0
        z[r, e * n + g] = 1.0
    return DesignMatrices(x, z)


def dense_reml(dataset: Dataset, sigma: np.ndarray, resid_var: float) -> float:
    """REML log-likelihood by the explicit dense formula.

    Builds V = Z (Sigma kron K) Z^T + resid * I with a materialized
    Kronecker product, then evaluates
    -0.5 * (log|V| + log|X^T V^-1 X| + y^T P y) with dense inverses.

    No oracle as resid_var -> 0 with a centred kinship (K 1 = 0): V is then
    nearly singular along X, and the log-determinants, which both grow
    without bound, cancel in round-off.  :func:`contrast_reml` is the
    oracle there.
    """
    design = build_design(dataset)
    x, z = design.X, design.Z
    y = dataset.values
    v = z @ np.kron(sigma, dataset.kinship.values) @ z.T
    v = v + resid_var * np.eye(len(y))
    vi = np.linalg.inv(v)
    xvx = x.T @ vi @ x
    proj = vi - vi @ x @ np.linalg.inv(xvx) @ x.T @ vi
    sign_v, ld_v = np.linalg.slogdet(v)
    sign_a, ld_a = np.linalg.slogdet(xvx)
    assert sign_v > 0 and sign_a > 0, "oracle hit a non-PD matrix"
    return -0.5 * (ld_v + ld_a + float(y @ proj @ y))


def contrast_reml(dataset: Dataset, sigma: np.ndarray, resid_var: float) -> float:
    """REML log-likelihood of the error contrasts, free of cancellation.

    With L an orthonormal basis of the complement of X's columns,
    -0.5 * (log|L^T V L| + y^T L (L^T V L)^-1 L^T y) - 0.5 * log|X^T X|
    equals the :func:`dense_reml` formula, but stays accurate where V is
    nearly singular along X (resid_var -> 0 with K 1 = 0).
    """
    design = build_design(dataset)
    x, z = design.X, design.Z
    basis = np.linalg.svd(x, full_matrices=True)[0][:, x.shape[1]:]
    v = z @ np.kron(sigma, dataset.kinship.values) @ z.T
    lvl = basis.T @ v @ basis + resid_var * np.eye(basis.shape[1])
    ly = basis.T @ dataset.values
    sign_l, ld_l = np.linalg.slogdet(lvl)
    sign_x, ld_x = np.linalg.slogdet(x.T @ x)
    assert sign_l > 0 and sign_x > 0, "oracle hit a non-PD matrix"
    return -0.5 * (ld_l + float(ly @ np.linalg.solve(lvl, ly)) + ld_x)


def dense_projection(dataset: Dataset, sigma: np.ndarray, resid_var: float) -> np.ndarray:
    """P = V^-1 - V^-1 X (X^T V^-1 X)^-1 X^T V^-1 from dense inverses."""
    design = build_design(dataset)
    x, z = design.X, design.Z
    v = z @ np.kron(sigma, dataset.kinship.values) @ z.T
    vi = np.linalg.inv(v + resid_var * np.eye(len(v)))
    return vi - vi @ x @ np.linalg.inv(x.T @ vi @ x) @ x.T @ vi


def dense_gls_beta(dataset: Dataset, sigma: np.ndarray, resid_var: float) -> np.ndarray:
    """(X^T V^-1 X)^-1 X^T V^-1 y from a dense inverse, in the reference
    coding of :func:`build_design`."""
    design = build_design(dataset)
    x, z = design.X, design.Z
    v = z @ np.kron(sigma, dataset.kinship.values) @ z.T
    vi = np.linalg.inv(v + resid_var * np.eye(len(v)))
    return np.linalg.solve(x.T @ vi @ x, x.T @ vi @ dataset.values)


def centred_kinship(n: int, seed: int) -> RelationshipMatrix:
    """:func:`random_kinship` centred on both sides, so that K 1 = 0."""
    kin = random_kinship(n, seed)
    j = np.eye(n) - 1.0 / n
    k = j @ kin.values @ j
    return RelationshipMatrix(0.5 * (k + k.T), list(kin.labels))


def dense_score_and_ai(
    dataset: Dataset, structure, kappa: np.ndarray, resid_var: float
) -> tuple[np.ndarray, np.ndarray]:
    """Score vector and AI matrix from an explicit P, ordered like
    ``score_and_ai`` ([structure parameters..., resid_var]).

    Vdot_i = Z (dSigma/dkappa_i kron K) Z^T with a materialized Kronecker
    product, and Vdot = I for the residual variance; then
    score_i = -1/2 (tr(P Vdot_i) - y^T P Vdot_i P y) and
    AI_ij = 1/2 y^T P Vdot_i P Vdot_j P y.
    """
    z = build_design(dataset).Z
    y = dataset.values
    kin = dataset.kinship.values
    kappa = np.asarray(kappa, dtype=float)
    proj = dense_projection(dataset, structure.sigma(kappa), resid_var)
    vdots = [z @ np.kron(d, kin) @ z.T for d in structure.derivs(kappa)] + [np.eye(len(y))]
    py = proj @ y
    score = np.array(
        [-0.5 * (np.trace(proj @ vd) - py @ vd @ py) for vd in vdots]
    )
    u = np.column_stack([vd @ py for vd in vdots])
    return score, 0.5 * (u.T @ proj @ u)


def dense_cell_blups(
    dataset: Dataset, sigma: np.ndarray, resid_var: float, env_means: np.ndarray
) -> np.ndarray:
    """Conditional means of all n*p cell effects by dense partitioning.

    Returns the np-vector (environment-major) of
    Cov(u, y) V^-1 (y - mean), the joint-normal conditional expectation.
    """
    n = dataset.n
    full = np.kron(sigma, dataset.kinship.values)
    cells = np.array(
        [e * n + g for g, e in zip(dataset.gen_index_array, dataset.env_index_array)]
    )
    cov_obs = full[np.ix_(cells, cells)] + resid_var * np.eye(len(cells))
    cross = full[:, cells]
    resid = dataset.values - env_means[dataset.env_index_array]
    return cross @ np.linalg.solve(cov_obs, resid)


def fd_gradient(f, x: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate steps."""
    g = np.zeros(len(x))
    for i in range(len(x)):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def structure_zoo(p: int, seed: int):
    """One instance of every structure kind plus a parameter sampler.

    Returns a list of (structure, draw) pairs where ``draw(rng)`` yields
    a well-scaled strictly positive parameter vector for that kind.
    """
    corr = gaussian_reference_corr(p, seed)
    dist = random_distance(p, seed + 1, mean_off=4.0)
    grid = np.geomspace(0.05, 2.0, 4)
    zoo = []

    def var_draw(k):
        return lambda rng: rng.uniform(0.3, 3.0, size=k)

    def kern_draw(k):
        def draw(rng):
            return np.concatenate([[rng.uniform(0.05, 0.8)], rng.uniform(0.3, 3.0, k)])

        return draw

    zoo.append((build_structure("main", p=p), var_draw(1)))
    zoo.append((build_structure("diag", p=p), var_draw(p)))
    zoo.append((build_structure("cor1", corr=corr), var_draw(1)))
    zoo.append((build_structure("corP", corr=corr), var_draw(p)))
    zoo.append((build_structure("kern1", dist=dist), kern_draw(1)))
    zoo.append((build_structure("kernP", dist=dist), kern_draw(p)))
    zoo.append(
        (build_structure("ka", dist=dist, grid=grid), var_draw(len(grid)))
    )
    return zoo


def gaussian_reference_corr(p: int, seed: int):
    """A strictly PSD correlation matrix from a Gaussian kernel."""
    from gxe_reml import EnvCorrelationMatrix, gaussian_kernel

    dist = random_distance(p, seed + 17, mean_off=3.0)
    c = gaussian_kernel(dist.values, 0.25)
    return EnvCorrelationMatrix(c, list(dist.labels))


@dataclass(frozen=True)
class CvSummary:
    """Aggregate over the converged replicates of one (model, lambda)."""

    model: str
    lam: float
    mean_pearson: float
    median_pearson: float
    mean_rmse: float
    median_rmse: float
    n_converged: int
    n_failed: int


def cv_series(rows: list[CvRow], model: str, lam: float,
              field: str = "mean_pearson") -> np.ndarray:
    """Per-replicate metric values for one (model, lambda), in replicate
    order, converged rows only."""
    picked = sorted(
        (r for r in rows if r.model == model and r.lam == lam and r.converged),
        key=lambda r: r.replicate,
    )
    return np.array([getattr(r, field) for r in picked])


def cv_summary(rows: list[CvRow]) -> list[CvSummary]:
    """One CvSummary per (model, lambda), in order of first appearance."""
    keys = list(dict.fromkeys((r.model, r.lam) for r in rows))
    out = []
    for model, lam in keys:
        group = [r for r in rows if r.model == model and r.lam == lam]
        good = [r for r in group if r.converged]
        pear = np.array([r.mean_pearson for r in good])
        rmse = np.array([r.mean_rmse for r in good])
        out.append(
            CvSummary(
                model=model,
                lam=lam,
                mean_pearson=float(np.nanmean(pear)) if good else math.nan,
                median_pearson=float(np.nanmedian(pear)) if good else math.nan,
                mean_rmse=float(np.nanmean(rmse)) if good else math.nan,
                median_rmse=float(np.nanmedian(rmse)) if good else math.nan,
                n_converged=len(good),
                n_failed=len(group) - len(good),
            )
        )
    return out


def label_sparse_split(
    dataset: Dataset, design: SparseDesign, replicate_index: int
) -> tuple[Dataset, list[tuple[str, str]]]:
    """Label-keyed reference for ``cv.sparse_split``: the train dataset and
    the held-out (genotype, environment) cells, built from dicts and sets
    keyed by record index.  It makes the same RNG calls in the same order.
    """
    p = dataset.p
    if design.envs_per_variety >= p:
        raise InvalidInputError(
            f"invalid design: envs_per_variety ({design.envs_per_variety}) "
            f"must be < number of environments ({p})"
        )
    by_gen: dict[int, list[int]] = {}
    for r in range(dataset.n_records):
        by_gen.setdefault(int(dataset.gen_index_array[r]), []).append(r)
    complete = [g for g, recs in by_gen.items() if len(recs) == p]
    if len(complete) < design.n_checks:
        raise InvalidInputError(
            f"invalid design: {design.n_checks} checks requested but only "
            f"{len(complete)} genotypes are observed in every environment"
        )
    rng = np.random.default_rng([design.seed, replicate_index])
    checks = {
        int(g)
        for g in rng.choice(
            np.array(sorted(complete)), size=design.n_checks, replace=False
        )
    }
    keep: set[int] = set()
    for g in sorted(by_gen):
        recs = by_gen[g]
        if g in checks:
            keep.update(recs)
            continue
        if len(recs) < design.envs_per_variety:
            raise InvalidInputError(
                f"invalid design: genotype {dataset.genotype_labels[g]!r} is "
                f"observed in {len(recs)} environments, fewer than "
                f"envs_per_variety ({design.envs_per_variety})"
            )
        chosen = rng.choice(
            np.array(recs), size=design.envs_per_variety, replace=False
        )
        keep.update(int(i) for i in chosen)
    train_idx = [r for r in range(dataset.n_records) if r in keep]
    test_cells = [
        (rec.genotype, rec.environment)
        for r, rec in enumerate(dataset.records)
        if r not in keep
    ]
    return dataset.subset(train_idx), test_cells


def label_within_env_accuracy(
    predicted: Mapping[tuple[str, str], float],
    truth: Mapping[tuple[str, str], float],
) -> tuple[float, float]:
    """Label-keyed reference for ``cv.within_env_accuracy``: cells are
    (genotype, environment) keys of two mappings, grouped by environment
    label in a dict and scored in sorted label order.
    """
    if set(predicted) != set(truth):
        raise InvalidInputError("predicted and truth must cover the same cells")
    if not predicted:
        raise InvalidInputError("no cells to score")
    by_env: dict[str, list[tuple[str, str]]] = {}
    for cell in predicted:
        by_env.setdefault(cell[1], []).append(cell)
    pearsons: list[float] = []
    rmses: list[float] = []
    excluded = 0
    for env in sorted(by_env):
        cells = by_env[env]
        pv = np.array([predicted[c] for c in cells])
        tv = np.array([truth[c] for c in cells])
        rmses.append(float(np.sqrt(np.mean((pv - tv) ** 2))))
        if len(cells) < 2:
            excluded += 1
            continue
        pc = pv - pv.mean()
        tc = tv - tv.mean()
        sx = float(pc @ pc)
        sy = float(tc @ tc)
        if sx == 0.0 or sy == 0.0:
            excluded += 1
            continue
        r = float(pc @ tc) / math.sqrt(sx * sy)
        pearsons.append(min(1.0, max(-1.0, r)))
    if excluded:
        logger.info(
            "%d environment(s) excluded from the Pearson average "
            "(too few cells or zero variance)", excluded,
        )
    mean_pearson = float(np.mean(pearsons)) if pearsons else math.nan
    mean_rmse = float(np.mean(rmses))
    return mean_pearson, mean_rmse
