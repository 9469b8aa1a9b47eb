"""Synthetic marker, kinship, and multi-environment phenotype generation.

Provides the ground truth for estimator-recovery and cross-validation
experiments: markers are drawn per-locus binomial(2, freq) with frequencies
uniform in [0.1, 0.9], the relationship matrix uses centered markers
(K = W W^T / c with W = markers - 2f per column and c = 2 sum f(1 - f)),
and genetic values are drawn from N(0, Sigma kron K) without materializing
the Kronecker product: with factors Sigma = L_S L_S^T and K = L_K L_K^T,
U = L_K Z L_S^T for an n x p standard normal Z has
Cov(vec(U)) = Sigma kron K (column-major vec, i.e. environment-major
cells, matching the model's cell ordering).  L_K is K's eigen root,
computed once per RelationshipMatrix and shared by every draw on it.

All randomness flows from ``numpy.random.default_rng`` (PCG64) seeded from
the config; identical configs give bit-identical output.  Statistical (not
bit-level) reproducibility is the portability goal across platforms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import blas

from .env_features import _eigen_root
from .errors import InvalidInputError
from .reml_core import Dataset, PhenotypeRecord, RelationshipMatrix
from .variance_structures import VarianceStructure

logger = logging.getLogger(__name__)


@dataclass
class SimConfig:
    """Ground-truth description of one simulated multi-environment trial.

    ``env_means`` may be a scalar or a 1-vector (shared by all
    environments) or a p-vector, and is stored as a p-vector.
    ``resid_var`` of exactly 0 is allowed (noise-free data).
    When ``kinship`` is supplied it is used as-is and no markers are
    simulated, so distinct seeds redraw genetic values and noise under one
    fixed relationship matrix.
    """

    n_genotypes: int
    n_markers: int
    structure: VarianceStructure
    true_params: np.ndarray
    resid_var: float
    env_means: float | Sequence[float] = 0.0
    seed: int = 0
    kinship: RelationshipMatrix | None = None

    def __post_init__(self) -> None:
        if self.n_genotypes < 2 or self.n_markers < 2:
            raise InvalidInputError(
                f"need n_genotypes >= 2 and n_markers >= 2, got "
                f"{self.n_genotypes} and {self.n_markers}"
            )
        if self.kinship is not None:
            if (n_kin := len(self.kinship.values)) != self.n_genotypes:
                raise InvalidInputError(
                    f"kinship is {n_kin} x {n_kin} but n_genotypes is {self.n_genotypes}"
                )
        elif self.n_markers < self.n_genotypes:
            logger.warning(
                "n_markers (%d) < n_genotypes (%d): kinship will be singular",
                self.n_markers, self.n_genotypes,
            )
        if not np.isfinite(self.resid_var) or self.resid_var < 0.0:
            raise InvalidInputError(f"resid_var must be finite and >= 0, got {self.resid_var}")
        self.true_params = np.atleast_1d(np.asarray(self.true_params, dtype=float))
        p = self.p_environments
        try:
            self.env_means = np.broadcast_to(self.env_means, (p,)).astype(float)
        except ValueError:
            raise InvalidInputError(
                f"env_means must be one value or {p}, got {self.env_means!r}"
            ) from None
        if not np.all(np.isfinite(self.env_means)):
            raise InvalidInputError("env_means must be finite")

    @property
    def p_environments(self) -> int:
        return self.structure.p

    @property
    def environment_labels(self) -> list[str]:
        """The truth structure's labels, else ``E01``, ``E02``, ..."""
        if self.structure.env_labels is not None:
            return list(self.structure.env_labels)
        return [f"E{j + 1:02d}" for j in range(self.p_environments)]


@dataclass
class SimOutput:
    """Simulated dataset plus the generating truth."""

    dataset: Dataset
    true_genetic_matrix: np.ndarray
    true_params: np.ndarray
    resid_var: float


def simulate_markers(n: int, m: int, seed) -> np.ndarray:
    """n x m marker matrix with entries in {0, 1, 2}.

    Per-marker allele frequencies are uniform in [0.1, 0.9] and genotypes
    binomial(2, freq); deterministic per seed.
    """
    if n < 2 or m < 2:
        raise InvalidInputError(f"need n >= 2 and m >= 2, got {n} and {m}")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.1, 0.9, size=m)
    return rng.binomial(2, freqs, size=(n, m))


def kinship_from_markers(
    markers: np.ndarray, labels: Sequence[str] | None = None
) -> RelationshipMatrix:
    """Centered-marker relationship matrix K = W W^T / c.

    W subtracts twice the sample allele frequency from each column and
    c = 2 * sum f (1 - f).  Monomorphic markers carry no information and
    are dropped with a logged warning.
    """
    markers = np.asarray(markers, dtype=float)
    if markers.ndim != 2:
        raise InvalidInputError("marker matrix must be two-dimensional")
    freqs = markers.mean(axis=0) / 2.0
    poly = (freqs > 0.0) & (freqs < 1.0)
    n_dropped = int(np.sum(~poly))
    if not np.any(poly):
        raise InvalidInputError("all markers are monomorphic")
    if n_dropped:
        logger.warning("dropping %d monomorphic markers", n_dropped)
    f = freqs[poly]
    w = markers[:, poly] - 2.0 * f
    c = 2.0 * float(np.sum(f * (1.0 - f)))
    # syrk fills the lower triangle of W W^T; mirror it exactly.
    low = np.tril(blas.dsyrk(1.0, w.T, trans=1, lower=1))
    k = (low + np.tril(low, -1).T) / c
    if labels is None:
        labels = [f"G{i + 1:04d}" for i in range(markers.shape[0])]
    return RelationshipMatrix(k, list(labels))


def _psd_factor(mat: np.ndarray, what: str) -> np.ndarray:
    """A factor L with L L^T = mat for a p x p ``mat``: its Cholesky
    factor, else (PSD-boundary matrices, zero included) its eigen root."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return _eigen_root(mat, what)


def simulate_met(config: SimConfig) -> SimOutput:
    """Simulate one complete multi-environment trial from Sigma kron K.

    Phenotypes are y_cell = env_mean + u_cell + eps with iid normal noise of
    variance ``config.resid_var``; the output dataset observes every cell.
    """
    p = config.p_environments
    root = np.random.SeedSequence(config.seed)
    marker_seed, draw_seed = root.spawn(2)
    kinship = config.kinship
    if kinship is None:
        markers = simulate_markers(config.n_genotypes, config.n_markers, marker_seed)
        kinship = kinship_from_markers(markers)
    l_sigma = _psd_factor(config.structure.sigma(config.true_params), "truth covariance")
    rng = np.random.default_rng(draw_seed)
    z = rng.standard_normal((config.n_genotypes, p))
    # L_K Z as (Z^T L_K^T)^T, the product NumPy's row-major matmul forms.
    u = blas.dgemm(1.0, z.T, kinship._root.T).T @ l_sigma.T
    eps = rng.standard_normal((config.n_genotypes, p)) * np.sqrt(config.resid_var)
    y = config.env_means[None, :] + u + eps
    env_labels = config.environment_labels
    records = [
        PhenotypeRecord(kinship.labels[g], env_labels[e], float(y[g, e]))
        for e in range(p)
        for g in range(config.n_genotypes)
    ]
    dataset = Dataset(records, kinship, env_labels)
    return SimOutput(
        dataset=dataset,
        true_genetic_matrix=u,
        true_params=config.true_params.copy(),
        resid_var=float(config.resid_var),
    )
