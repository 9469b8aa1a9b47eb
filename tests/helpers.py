"""Shared builders and dense-matrix oracles for the test suite.

The oracles here deliberately take the slow, explicit route: the REML
log-likelihood is evaluated with `np.kron`, dense inverses, and
`slogdet`, so they share no assembly code with the package internals
they are checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gxe_reml import (
    CvRow,
    Dataset,
    EnvDistanceMatrix,
    EnvFeatureMatrix,
    PhenotypeRecord,
    RelationshipMatrix,
    build_structure,
    env_distance,
)


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
    ev = structure.evaluate(np.asarray(kappa, dtype=float))
    proj = dense_projection(dataset, ev.sigma, resid_var)
    vdots = [z @ np.kron(d, kin) @ z.T for d in ev.derivs] + [np.eye(len(y))]
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
