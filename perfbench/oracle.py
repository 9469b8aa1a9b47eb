"""Dense reference computations the benchmark checks the program against.

They take the slow, explicit route (a materialized ``np.kron``, a dense
cell-selection matrix Z, dense inverses) and share no code with the
package.
"""

from __future__ import annotations

import numpy as np


def dense_reml(records, genotype_labels, environment_labels, kinship, sigma, resid_var):
    """REML log-likelihood -1/2 (log|V| + log|X'V^-1 X| + y'Py).

    ``records`` are (genotype, environment, value) triples; X holds an
    intercept and indicators for every environment after the first, and
    V = Z (Sigma kron K) Z' + resid_var I with environment-major cells.
    """
    n, p = len(genotype_labels), len(environment_labels)
    gen = {g: i for i, g in enumerate(genotype_labels)}
    env = {e: j for j, e in enumerate(environment_labels)}
    n_rec = len(records)
    z = np.zeros((n_rec, n * p))
    x = np.zeros((n_rec, p))
    y = np.empty(n_rec)
    for r, (g, e, value) in enumerate(records):
        z[r, env[e] * n + gen[g]] = 1.0
        x[r, 0] = 1.0
        if env[e] > 0:
            x[r, env[e]] = 1.0
        y[r] = value
    v = z @ np.kron(sigma, kinship) @ z.T + resid_var * np.eye(n_rec)
    vi = np.linalg.inv(v)
    xvx = x.T @ vi @ x
    proj = vi - vi @ x @ np.linalg.inv(xvx) @ x.T @ vi
    sign_v, logdet_v = np.linalg.slogdet(v)
    sign_a, logdet_a = np.linalg.slogdet(xvx)
    if sign_v <= 0 or sign_a <= 0:
        raise ValueError("dense oracle met a matrix that is not positive definite")
    return -0.5 * (logdet_v + logdet_a + float(y @ proj @ y))


def within_env_pearson(predicted: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """Mean over environments (columns) of the Pearson correlation between
    ``predicted`` and ``truth`` on the cells where ``mask`` is true."""
    rs = []
    for j in range(predicted.shape[1]):
        a = predicted[mask[:, j], j]
        b = truth[mask[:, j], j]
        a = a - a.mean()
        b = b - b.mean()
        rs.append(float(a @ b) / float(np.sqrt((a @ a) * (b @ b))))
    return float(np.mean(rs))
