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
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .env_features import (
    EnvCorrelationMatrix,
    EnvDistanceMatrix,
    blend_correlation,
    in_label_order,
    random_correlation,
)
from .errors import DataError, InvalidInputError, NumericalError
from .reml_core import Dataset, fit, lookup_cells
from .simulator import SimConfig, simulate_met
from .variance_structures import (
    build_structure,
    correlation_from_covariance,
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


@dataclass(frozen=True)
class CvModel:
    """One model entry in a CV run: a structure kind plus options."""

    label: str
    kind: str
    grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        structure_class(self.kind)


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


@dataclass
class CvReport:
    """All per-replicate rows of a CV run, with aggregation helpers."""

    rows: list[CvRow]

    def series(self, model: str, lam: float, field: str = "mean_pearson") -> np.ndarray:
        """Per-replicate metric values for one (model, lambda), in replicate
        order, converged rows only."""
        picked = sorted(
            (r for r in self.rows if r.model == model and r.lam == lam and r.converged),
            key=lambda r: r.replicate,
        )
        return np.array([getattr(r, field) for r in picked])

    def summary(self) -> list[CvSummary]:
        keys: list[tuple[str, float]] = []
        for r in self.rows:
            if (r.model, r.lam) not in keys:
                keys.append((r.model, r.lam))
        out = []
        for model, lam in keys:
            group = [r for r in self.rows if r.model == model and r.lam == lam]
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


def sparse_split(
    dataset: Dataset, design: SparseDesign, replicate_index: int
) -> tuple[Dataset, list[tuple[str, str]]]:
    """One sparse-testing split of an observed dataset.

    Check genotypes (chosen among those observed in every environment) keep
    all their records; every other genotype keeps records in exactly
    ``envs_per_variety`` of its observed environments, chosen uniformly.
    Remaining observed cells become test cells.  Deterministic per
    (design.seed, replicate_index); train records keep dataset order.

    Raises:
        InvalidInputError: If the design is infeasible for this dataset.
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


def within_env_accuracy(
    predicted: Mapping[tuple[str, str], float],
    truth: Mapping[tuple[str, str], float],
) -> tuple[float, float]:
    """Within-environment Pearson and RMSE, averaged across environments.

    Both mappings must cover the same cells.  Each environment's RMSE is
    computed over its cells; its Pearson requires at least two cells and
    nonzero variance on both sides, otherwise the environment is excluded
    from the Pearson average with a logged count.  Environments weigh
    equally regardless of cell counts.  With no scorable environment, the
    Pearson mean is NaN.
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


@dataclass(frozen=True)
class _CvTask:
    models: tuple[CvModel, ...]
    design: SparseDesign
    sim_config: SimConfig | None
    dataset: Dataset | None
    corr: EnvCorrelationMatrix | None
    dist: EnvDistanceMatrix | None
    lambdas: tuple[float, ...]
    max_iter: int
    tol: float


def _blend_seed(design: SparseDesign, replicate: int) -> int:
    return int(np.random.SeedSequence([design.seed, replicate, 1]).generate_state(1)[0])


def _run_replicate(args: tuple[_CvTask, int]) -> list[CvRow]:
    task, rep = args
    if task.sim_config is not None:
        base = task.sim_config.seed
        entropy = ([base] if isinstance(base, int) else list(base)) + [rep]
        out = simulate_met(dataclasses.replace(task.sim_config, seed=entropy))
        data = out.dataset
        truth_matrix = out.true_genetic_matrix
    else:
        data = task.dataset
        truth_matrix = None
    train, test_cells = sparse_split(data, task.design, rep)
    if truth_matrix is not None:
        target = {
            (g, e): float(
                truth_matrix[data.genotype_index(g), data.environment_index(e)]
            )
            for g, e in test_cells
        }
    else:
        observed = {
            (rec.genotype, rec.environment): rec.value for rec in data.records
        }
        target = {cell: observed[cell] for cell in test_cells}

    # Only models built from a correlation matrix are blended toward noise.
    blended = {m.label for m in task.models if structure_class(m.kind).needs == "corr"}
    needs_blend = bool(blended) and any(lam > 0.0 for lam in task.lambdas)
    noise = (
        random_correlation(
            data.p, _blend_seed(task.design, rep), labels=data.environment_labels
        )
        if needs_blend
        else None
    )
    rows: list[CvRow] = []
    for model in task.models:
        for lam in task.lambdas if model.label in blended else (0.0,):
            # The noise is in the dataset's environment order.
            corr = task.corr if lam == 0.0 else blend_correlation(
                in_label_order(task.corr, data.environment_labels), noise, lam)
            structure = build_structure(
                model.kind, env_labels=train.environment_labels,
                corr=corr, dist=task.dist, grid=model.grid,
            )
            started = time.perf_counter()
            try:
                result = fit(
                    train, structure, max_iter=task.max_iter, tol=task.tol
                )
            except (NumericalError, DataError) as exc:
                elapsed = time.perf_counter() - started
                logger.warning(
                    "replicate %d model %s lambda %g: fit failed: %s",
                    rep, model.label, lam, exc,
                )
                rows.append(
                    CvRow(model.label, rep, lam, math.nan, math.nan, elapsed, False)
                )
                continue
            elapsed = time.perf_counter() - started
            preds = lookup_cells(result, test_cells)
            if truth_matrix is not None:
                predicted = {(c.genotype, c.environment): c.blup for c in preds}
            else:
                predicted = {(c.genotype, c.environment): c.fitted for c in preds}
            mean_pearson, mean_rmse = within_env_accuracy(predicted, target)
            rows.append(
                CvRow(
                    model.label, rep, lam, mean_pearson, mean_rmse,
                    elapsed, result.converged,
                )
            )
    return rows


def run_cv(
    models: Sequence[CvModel | str],
    design: SparseDesign,
    *,
    sim_config: SimConfig | None = None,
    dataset: Dataset | None = None,
    corr: EnvCorrelationMatrix | None = None,
    dist: EnvDistanceMatrix | None = None,
    lambdas: Sequence[float] | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    jobs: int = 1,
) -> CvReport:
    """Run the sparse-testing CV experiment.

    Exactly one of ``sim_config`` (accuracy target: true genetic values)
    or ``dataset`` (target: held-out values) must be given.  Correlation
    structures take ``corr`` as their matrix (defaulting, for simulations,
    to the correlation implied by the truth covariance); kernel structures
    require ``dist`` (defaulting to the truth structure's distances when it
    is kernel-based).  ``lambdas`` blends ``corr`` toward a per-replicate
    random correlation matrix for the correlation-based models; other
    models record lambda 0.  Individual fit failures are recorded as
    non-converged rows, never aborting the replicate.

    Args:
        models: Structure kinds (strings) or CvModel entries.
        design: Sparse-testing design, including replicate count and seed.
        jobs: Worker processes; replicate results merge deterministically
            by replicate index regardless.
    """
    if (sim_config is None) == (dataset is None):
        raise InvalidInputError("give exactly one of sim_config or dataset")
    if not models:
        raise InvalidInputError("at least one model is required")
    model_list = tuple(
        m if isinstance(m, CvModel) else CvModel(label=m, kind=m) for m in models
    )
    labels = [m.label for m in model_list]
    if len(set(labels)) != len(labels):
        raise InvalidInputError("model labels must be unique")
    needs = {structure_class(m.kind).needs for m in model_list}
    lam_tuple = (0.0,) if lambdas is None else tuple(float(l) for l in lambdas)
    for lam in lam_tuple:
        if not np.isfinite(lam) or lam < 0.0 or lam > 1.0:
            raise InvalidInputError(f"lambda must lie in [0, 1], got {lam}")
    if sim_config is not None:
        env_labels = sim_config.environment_labels
        if corr is None and "corr" in needs:
            sigma = sim_config.structure.sigma(sim_config.true_params)
            corr = correlation_from_covariance(sigma, env_labels)
        if dist is None and "dist" in needs:
            truth_dist = getattr(sim_config.structure, "dist", None)
            if truth_dist is None:
                raise InvalidInputError(
                    "kernel models need a distance matrix (the truth structure "
                    "is not kernel-based; pass dist=...)"
                )
            dist = EnvDistanceMatrix(truth_dist, env_labels)
    if corr is None and "corr" in needs:
        raise InvalidInputError("correlation models need corr=...")
    if dist is None and "dist" in needs:
        raise InvalidInputError("kernel models need dist=...")
    task = _CvTask(
        models=model_list,
        design=design,
        sim_config=sim_config,
        dataset=dataset,
        corr=corr,
        dist=dist,
        lambdas=lam_tuple,
        max_iter=max_iter,
        tol=tol,
    )
    arg_list = [(task, rep) for rep in range(design.replicates)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_rep = list(pool.map(_run_replicate, arg_list))
    else:
        per_rep = [_run_replicate(a) for a in arg_list]
    rows = [row for rep_rows in per_rep for row in rep_rows]
    return CvReport(rows)
