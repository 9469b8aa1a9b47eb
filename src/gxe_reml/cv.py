"""Sparse-testing cross-validation of variance structures.

A sparse-testing split keeps a small set of check genotypes observed in
every environment while every other genotype is observed in only a few
randomly chosen environments; the held-out cells are predicted and scored
within environment (Pearson correlation and RMSE averaged with equal
weight across environments).  On simulated data the accuracy target is the
true genetic value of each cell; on real data it is the held-out value.

Replicates are embarrassingly parallel and individually seeded:
``numpy.random.default_rng([seed, replicate_index])`` drives the split,
the per-replicate simulation seeds with SeedSequence([sim seed,
replicate_index]), and the random correlation matrix used for lambda
blending derives from SeedSequence([seed, replicate_index, 1]) and is
drawn once per replicate, shared by every blended model in it.

Models are structure kinds.  :func:`run_cv` builds each one's structure
once, with :func:`~gxe_reml.variance_structures.build_structure` from one
set of ``corr``, ``dist`` and ``grid`` inputs, before any replicate runs;
a replicate rebuilds a model, through its own class, only for a blended
correlation.  A split is two :class:`~gxe_reml.reml_core.Dataset` parts,
and held-out cells are read from each fit's own BLUP matrix at the
held-out part's genotype and environment indices.  :func:`run_cv` returns
its :class:`CvRow` list in replicate order; aggregating it is left to the
caller.
"""

from __future__ import annotations

import copy
import functools
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .env_features import (
    EnvCorrelationMatrix,
    EnvDistanceMatrix,
    blend_correlation,
    correlation_from_covariance,
    random_correlation,
)
from .errors import GxeRemlError, InvalidInputError
from .reml_core import Dataset, fit
from .simulator import SimConfig, simulate_met
from .variance_structures import (
    VarianceStructure,
    build_structure,
    structure_class,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SparseDesign:
    """Sparse-testing layout: checks everywhere, others spread thin."""

    n_checks: int
    envs_per_variety: int
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_checks < 1:
            raise InvalidInputError(f"n_checks must be >= 1, got {self.n_checks}")
        if self.envs_per_variety < 1:
            raise InvalidInputError(
                f"envs_per_variety must be >= 1, got {self.envs_per_variety}"
            )
        if self.replicates < 1:
            raise InvalidInputError(
                f"replicates must be >= 1, got {self.replicates}"
            )
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class CvRow:
    """Per-model, per-replicate accuracy and timing."""

    model: str
    replicate: int
    lam: float
    mean_pearson: float
    mean_rmse: float
    fit_seconds: float
    converged: bool


def sparse_split(
    dataset: Dataset, design: SparseDesign, replicate_index: int
) -> tuple[Dataset, Dataset]:
    """One sparse-testing split of an observed dataset: (train, held_out).

    Check genotypes (chosen among those observed in every environment) keep
    all their records; every other genotype keeps records in exactly
    ``envs_per_variety`` of its observed environments, chosen uniformly.
    The remaining records are held out.  Deterministic per
    (design.seed, replicate_index); both parts keep dataset order.

    Raises:
        InvalidInputError: If the design is infeasible for this dataset.
    """
    p = dataset.p
    if design.envs_per_variety >= p:
        raise InvalidInputError(
            f"invalid design: envs_per_variety ({design.envs_per_variety}) "
            f"must be < number of environments ({p})"
        )
    gen = dataset.gen_index_array
    counts = np.bincount(gen, minlength=dataset.n)
    complete = np.flatnonzero(counts == p)
    if len(complete) < design.n_checks:
        raise InvalidInputError(
            f"invalid design: {design.n_checks} checks requested but only "
            f"{len(complete)} genotypes are observed in every environment"
        )
    rng = np.random.default_rng([design.seed, replicate_index])
    is_check = np.zeros(dataset.n, dtype=bool)
    is_check[rng.choice(complete, size=design.n_checks, replace=False)] = True
    keep = is_check[gen]
    # Each genotype's records in dataset order, genotypes ascending.
    records_of = np.split(np.argsort(gen, kind="stable"), np.cumsum(counts)[:-1])
    for g in np.flatnonzero((counts > 0) & ~is_check):
        recs = records_of[g]
        if len(recs) < design.envs_per_variety:
            raise InvalidInputError(
                f"invalid design: genotype {dataset.genotype_labels[g]!r} is "
                f"observed in {len(recs)} environments, fewer than "
                f"envs_per_variety ({design.envs_per_variety})"
            )
        keep[rng.choice(recs, size=design.envs_per_variety, replace=False)] = True
    return dataset.subset(np.flatnonzero(keep)), dataset.subset(np.flatnonzero(~keep))


def within_env_accuracy(
    predicted: np.ndarray, truth: np.ndarray, env: np.ndarray
) -> tuple[float, float]:
    """Within-environment Pearson and RMSE, averaged across environments.

    The three arrays hold one entry per cell; ``env`` is any environment
    key, and environments are taken in its sorted order.  Each
    environment's RMSE is computed over its cells; its Pearson requires at
    least two cells and nonzero variance on both sides, otherwise the
    environment is excluded from the Pearson average with a logged count.
    Environments weigh equally regardless of cell counts.  With no
    scorable environment, the Pearson mean is NaN.
    """
    predicted, truth, env = np.asarray(predicted), np.asarray(truth), np.asarray(env)
    if not (predicted.ndim == truth.ndim == env.ndim == 1
            and len(predicted) == len(truth) == len(env)):
        raise InvalidInputError("predicted, truth and env must be 1-D arrays of one length")
    if not len(predicted):
        raise InvalidInputError("no cells to score")
    keys, env_of = np.unique(env, return_inverse=True)
    pearsons: list[float] = []
    rmses: list[float] = []
    excluded = 0
    for j in range(len(keys)):
        cells = env_of == j
        pv, tv = predicted[cells], truth[cells]
        rmses.append(float(np.sqrt(np.mean((pv - tv) ** 2))))
        if len(pv) < 2:
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


def _run_replicate(
    rep: int,
    *,
    structures: dict[str, VarianceStructure],
    corr: EnvCorrelationMatrix | None,
    design: SparseDesign,
    sim_config: SimConfig | None,
    dataset: Dataset | None,
    lambdas: tuple[float, ...],
    max_iter: int,
    tol: float,
) -> list[CvRow]:
    if sim_config is not None:
        # Not dataclasses.replace, which re-runs __post_init__ and its warnings.
        config = copy.copy(sim_config)
        base = config.seed
        config.seed = ([base] if isinstance(base, int) else list(base)) + [rep]
        out = simulate_met(config)
        data, truth = out.dataset, out.true_genetic_matrix
    else:
        data, truth = dataset, None
    train, held_out = sparse_split(data, design, rep)
    gen, env = held_out.gen_index_array, held_out.env_index_array
    target = held_out.values if truth is None else truth[gen, env]
    # Keyed by label, not index, so environments average in sorted label order.
    env_key = np.asarray(data.environment_labels)[env]

    # Only models built from a correlation matrix are blended toward noise.
    blended = {kind for kind, s in structures.items() if s.needs == "corr"}
    noise = None
    if blended and any(lam > 0.0 for lam in lambdas):
        seed = int(np.random.SeedSequence([design.seed, rep, 1]).generate_state(1)[0])
        noise = random_correlation(data.p, seed, labels=data.environment_labels)
    rows: list[CvRow] = []
    for kind, unblended in structures.items():
        for lam in lambdas if kind in blended else (0.0,):
            # corr and the noise are both in the dataset's environment order.
            structure = unblended if lam == 0.0 else type(unblended)(
                blend_correlation(corr, noise, lam))
            started = time.perf_counter()
            try:
                result = fit(train, structure, max_iter=max_iter, tol=tol)
            except GxeRemlError as exc:
                elapsed = time.perf_counter() - started
                logger.warning(
                    "replicate %d model %s lambda %g: fit failed: %s",
                    rep, kind, lam, exc,
                )
                rows.append(CvRow(kind, rep, lam, math.nan, math.nan, elapsed, False))
                continue
            elapsed = time.perf_counter() - started
            if result.boundary_params:
                logger.warning(
                    "replicate %d model %s lambda %g: clamped at lower boundary: %s",
                    rep, kind, lam, ", ".join(result.boundary_params),
                )
            # Simulations score BLUPs against the truth, real data the
            # fitted values against the held-out records.
            predicted = result.blup_matrix[gen, env]
            if truth is None:
                predicted = predicted + result.environment_means()[env]
            mean_pearson, mean_rmse = within_env_accuracy(predicted, target, env_key)
            rows.append(CvRow(kind, rep, lam, mean_pearson, mean_rmse,
                              elapsed, result.converged))
    return rows


def run_cv(
    models: Sequence[str],
    design: SparseDesign,
    *,
    sim_config: SimConfig | None = None,
    dataset: Dataset | None = None,
    corr: EnvCorrelationMatrix | None = None,
    dist: EnvDistanceMatrix | None = None,
    grid: Sequence[float] | None = None,
    lambdas: Sequence[float] | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    jobs: int = 1,
) -> list[CvRow]:
    """Run the sparse-testing CV experiment: one row per fit.

    Exactly one of ``sim_config`` (accuracy target: true genetic values)
    or ``dataset`` (target: held-out values) must be given.  Each model is
    a structure kind, built once with
    :func:`~gxe_reml.variance_structures.build_structure` from ``corr``,
    ``dist`` and ``grid`` before any replicate runs, so a missing or bad
    input fails here.  For simulations ``corr`` defaults to the correlation
    implied by the truth covariance and ``dist`` to the truth structure's
    distances when it is kernel-based.  ``lambdas`` blends ``corr`` toward a
    per-replicate random correlation matrix for the correlation-based
    models, which are rebuilt for each lambda > 0; other models record
    lambda 0.  A fit that raises any package error (``GxeRemlError``) is
    logged and recorded as a non-converged row, never aborting the
    replicate.

    Args:
        models: Distinct structure kinds; each row's ``model`` is its kind.
        design: Sparse-testing design, including replicate count and seed.
        grid: Bandwidth grid for kernel averaging (``ka``); other kinds
            ignore it.
        lambdas: Distinct blend weights in [0, 1]; default 0 alone.
        jobs: Worker processes; replicate results merge deterministically
            by replicate index regardless.
    """
    if (sim_config is None) == (dataset is None):
        raise InvalidInputError("give exactly one of sim_config or dataset")
    if not models:
        raise InvalidInputError("at least one model is required")
    if len(set(models)) != len(models):
        raise InvalidInputError("model kinds must be unique")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    needs = {structure_class(kind).needs for kind in models}
    lam_tuple = (0.0,) if lambdas is None else tuple(float(l) for l in lambdas)
    for lam in lam_tuple:
        if not np.isfinite(lam) or lam < 0.0 or lam > 1.0:
            raise InvalidInputError(f"lambda must lie in [0, 1], got {lam}")
    if not lam_tuple:
        raise InvalidInputError("at least one lambda is required")
    if len(set(lam_tuple)) != len(lam_tuple):
        raise InvalidInputError("lambdas must be unique")
    if sim_config is not None:
        env_labels = sim_config.environment_labels
        if corr is None and "corr" in needs:
            sigma = sim_config.structure.sigma(sim_config.true_params)
            corr = correlation_from_covariance(sigma, env_labels)
        truth_dist = getattr(sim_config.structure, "dist", None)
        if dist is None and truth_dist is not None:
            dist = EnvDistanceMatrix(truth_dist, env_labels)
    else:
        env_labels = dataset.environment_labels
    structures = {
        kind: build_structure(
            kind, env_labels=env_labels, corr=corr, dist=dist, grid=grid
        )
        for kind in models
    }
    replicate = functools.partial(
        _run_replicate,
        structures=structures,
        corr=corr.in_order(env_labels) if "corr" in needs else None,
        design=design,
        sim_config=sim_config,
        dataset=dataset,
        lambdas=lam_tuple,
        max_iter=max_iter,
        tol=tol,
    )
    reps = range(design.replicates)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_rep = list(pool.map(replicate, reps))
    else:
        per_rep = [replicate(rep) for rep in reps]
    return [row for rep_rows in per_rep for row in rep_rows]
