"""Input generators owned by the benchmark.

Nothing here calls into ``gxe_reml`` beyond the public constructors that
wrap generated arrays, so refactors of the package or of its test helpers
cannot change what the benchmark feeds it.

Every workload has a fixed problem instance (the ``*_INSTANCE`` entropy
constants) and a presentation drawn from ``--seed``: genotype and
environment labels and, where the program's result does not depend on it,
record, genotype and environment order.  The instance is fixed because the
work a fit does depends on the data: over ten random trial-scale instances
kernP took 10 to 73 AI-REML iterations (1.5 s to 11 s on a 2-core x86-64
VM), and one CV replicate took 2.6 s to 5.9 s there, which no run length
that fits the time budget averages out.  A relabelled, reordered copy of one instance takes
the same iterations, so run-to-run spread is the machine's alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

TRIAL_INSTANCE = 10
CV_INSTANCE = 82
RECOVERY_INSTANCE = 72


def kinship_values(n: int, entropy) -> np.ndarray:
    """Well-conditioned PSD relationship matrix with unit diagonal."""
    rng = np.random.default_rng(entropy)
    a = rng.standard_normal((n, 2 * n))
    k = a @ a.T / a.shape[1]
    d = np.sqrt(np.diag(k))
    k = k / np.outer(d, d)
    k = 0.5 * (k + k.T)
    np.fill_diagonal(k, 1.0)
    return k


def distance_values(p: int, entropy, mean_off: float) -> np.ndarray:
    """Squared Euclidean distances between standardized random columns,
    rescaled so the mean off-diagonal entry equals ``mean_off``."""
    rng = np.random.default_rng(entropy)
    x = rng.standard_normal((max(2 * p, 6), p))
    x -= x.mean(axis=1, keepdims=True)
    x /= x.std(axis=1, keepdims=True)
    sq = np.einsum("ij,ij->j", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x.T @ x)
    d = np.clip(0.5 * (d + d.T), 0.0, None)
    np.fill_diagonal(d, 0.0)
    off = d[~np.eye(p, dtype=bool)].mean()
    return d * (mean_off / off)


def weather_rows(p: int, entropy, days: int = 150) -> list[list]:
    """Daily weather rows ``[env_index, day, t_min, t_max, rain, srad]``.

    Temperatures follow a seasonal curve (degrees Fahrenheit) whose level
    and amplitude differ by environment, so heat units accumulate at
    different rates; rain and radiation are noisy seasonal covariates.
    """
    rng = np.random.default_rng(entropy)
    rows = []
    for e in range(p):
        level = rng.uniform(58.0, 66.0)
        swing = rng.uniform(8.0, 14.0)
        wet = rng.uniform(2.0, 6.0)
        for day in range(1, days + 1):
            season = np.sin(np.pi * day / days)
            t_min = level + swing * season + rng.normal(0.0, 3.0)
            t_max = t_min + rng.uniform(12.0, 24.0)
            rain = max(0.0, rng.normal(wet * (1.0 - 0.5 * season), 3.0))
            srad = 15.0 + 10.0 * season + rng.normal(0.0, 2.0)
            rows.append([e, day, t_min, t_max, rain, srad])
    return rows


class Presentation:
    """Labels and orders drawn from the benchmark seed for one workload."""

    def __init__(self, seed: int, workload: str, n: int, p: int):
        salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
        rng = np.random.default_rng([seed, salt])
        self.rng = rng
        self.genotype_labels = [
            f"g{v:06d}" for v in rng.choice(1_000_000, size=n, replace=False)
        ]
        self.environment_labels = [
            f"site{v:04d}" for v in rng.choice(10_000, size=p, replace=False)
        ]
        self.genotype_order = rng.permutation(n)
        self.environment_order = rng.permutation(p)


def fingerprint(*arrays_or_text) -> str:
    """Short digest of the inputs a run hands the program."""
    h = hashlib.sha256()
    for item in arrays_or_text:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(str(item).encode())
    return h.hexdigest()[:16]
