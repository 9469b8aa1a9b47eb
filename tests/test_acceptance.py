"""Acceptance suite: the checks a release must pass, one per criterion.

Each test appends a single PASS/FAIL line to ``REPORT_LINES``; the
conftest terminal-summary hook prints them after the run so the whole
checklist is visible at a glance.  Statistical criteria use fixed seeds
whose margins were calibrated well away from their thresholds.
"""

import time

import numpy as np
import pytest
from scipy import stats

from gxe_reml import (
    CorrMultiVar,
    CorrSingleVar,
    Dataset,
    EnvCorrelationMatrix,
    KernelAveraging,
    KernelMultiVar,
    KernelSingleVar,
    PhenotypeRecord,
    SimConfig,
    SparseDesign,
    average_kernel,
    fit,
    gaussian_kernel,
    gdd_daily,
    reml_loglik,
    run_cv,
    score_and_ai,
    simulate_met,
    sparse_split,
)

from helpers import (
    build_design,
    cv_series,
    fd_gradient,
    gaussian_reference_corr,
    make_dataset,
    random_distance,
    random_kinship,
    structure_zoo,
)

REPORT_LINES: list[str] = []


def record(num: int, label: str, ok: bool, detail: str = "") -> str:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"criterion {num:2d} {status}: {label}{suffix}"
    REPORT_LINES.append(line)
    return line


def guarded_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def test_criterion_01_covariance_derivatives():
    started = time.perf_counter()
    worst = 0.0
    for p in (3, 5, 8):
        for structure, draw in structure_zoo(p, seed=200 + p):
            rng = np.random.default_rng(300 + p)
            for _ in range(20):
                kappa = draw(rng)
                derivs = structure.evaluate(kappa).derivs
                for i in range(len(kappa)):
                    h = 1e-6 * max(1.0, abs(kappa[i]))
                    up, down = kappa.copy(), kappa.copy()
                    up[i] += h
                    down[i] -= h
                    fd = (structure.sigma(up) - structure.sigma(down)) / (2.0 * h)
                    worst = max(worst, guarded_rel(derivs[i], fd))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 10.0
    line = record(
        1, "covariance derivatives match finite differences", ok,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_02_likelihood_gradient():
    started = time.perf_counter()
    dataset = make_dataset(30, 4, seed=210)
    worst = 0.0
    for structure, draw in structure_zoo(4, seed=211):
        rng = np.random.default_rng(212)
        for _ in range(10):
            kappa = draw(rng)
            resid = float(rng.uniform(0.4, 2.0))
            grad, _ = score_and_ai(dataset, structure, kappa, resid)
            point = np.concatenate([kappa, [resid]])
            fd = fd_gradient(
                lambda q: reml_loglik(dataset, structure, q[:-1], float(q[-1])),
                point,
            )
            worst = max(worst, guarded_rel(grad, fd))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 60.0
    line = record(
        2, "restricted-likelihood gradient matches finite differences", ok,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_03_bandwidth_recovery():
    started = time.perf_counter()
    dist = random_distance(5, seed=70, mean_off=5.0)
    kinship = random_kinship(100, seed=71)
    structure = KernelSingleVar(dist)
    truth = {"bandwidth": 0.1, "var": 1.0, "resid_var": 0.5}
    estimates: dict[str, list[float]] = {name: [] for name in truth}
    n_converged = 0
    for rep in range(50):
        out = simulate_met(SimConfig(
            n_genotypes=100, n_markers=400, structure=structure,
            true_params=np.array([0.1, 1.0]), resid_var=0.5,
            seed=[72, rep], kinship=kinship,
        ))
        result = fit(out.dataset, structure, max_iter=100)
        n_converged += int(result.converged)
        estimates["bandwidth"].append(float(result.kappa_hat[0]))
        estimates["var"].append(float(result.kappa_hat[1]))
        estimates["resid_var"].append(float(result.resid_var_hat))
    elapsed = time.perf_counter() - started
    worst_z = 0.0
    for name, values in estimates.items():
        values = np.array(values)
        se = values.std(ddof=1) / np.sqrt(len(values))
        worst_z = max(worst_z, abs(float(values.mean()) - truth[name]) / se)
    ok = worst_z <= 3.0 and n_converged >= 48 and elapsed < 900.0
    line = record(
        3, "simulation recovery of bandwidth, variance, and noise", ok,
        f"worst |z| {worst_z:.2f}, converged {n_converged}/50, {elapsed:.0f}s",
    )
    assert ok, line


def test_criterion_04_frozen_bandwidth_equivalence():
    dist = random_distance(4, seed=220, mean_off=4.0)
    theta0 = 0.25
    corr = EnvCorrelationMatrix(
        gaussian_kernel(dist.values, theta0), list(dist.labels)
    )
    kinship = random_kinship(40, seed=221)
    kernel = KernelSingleVar(dist)
    worst = 0.0
    for rep in range(10):
        out = simulate_met(SimConfig(
            n_genotypes=40, n_markers=160, structure=kernel,
            true_params=np.array([theta0, 1.2]), resid_var=0.6,
            seed=[222, rep], kinship=kinship,
        ))
        frozen = fit(out.dataset, kernel, fixed={0: theta0})
        plain = fit(out.dataset, CorrSingleVar(corr))
        worst = max(
            worst,
            abs(frozen.loglik - plain.loglik),
            abs(float(frozen.kappa_hat[1]) - float(plain.kappa_hat[0])),
        )
    ok = worst <= 1e-6
    line = record(
        4, "frozen-bandwidth kernel equals the fixed-correlation fit", ok,
        f"worst diff {worst:.2e} over 10 datasets",
    )
    assert ok, line


def test_criterion_05_kernel_limits():
    dist = random_distance(6, seed=230, mean_off=5.0)
    var = 1.7
    structure = KernelSingleVar(dist)
    p = dist.p
    low = structure.sigma(np.array([1e-10, var]))
    high = structure.sigma(np.array([1e6, var]))
    err_low = float(np.max(np.abs(low - var * np.ones((p, p)))))
    err_high = float(np.max(np.abs(high - var * np.eye(p))))
    ok = err_low <= 1e-8 and err_high <= 1e-8
    line = record(
        5, "kernel covariance hits its constant and diagonal limits", ok,
        f"flat {err_low:.2e}, diagonal {err_high:.2e}",
    )
    assert ok, line


def test_criterion_06_kernel_average_reconstruction():
    rng = np.random.default_rng(240)
    ok = True
    for trial in range(20):
        p = int(rng.integers(3, 7))
        dist = random_distance(p, seed=241 + trial, mean_off=3.0)
        m = int(rng.integers(1, 6))
        grid = np.cumsum(rng.uniform(0.05, 0.5, size=m))
        structure = KernelAveraging(dist, grid)
        kappa = rng.uniform(0.1, 2.0, size=m)
        total, averaged = average_kernel(kappa, structure)
        ok = ok and np.array_equal(
            total * averaged, structure.evaluate(kappa).sigma
        )
    line = record(
        6, "averaged kernel reconstructs its covariance bit for bit", ok,
        "20 random weight/grid draws",
    )
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_report():
    """100 sparse-testing replicates under a heterogeneous-variance truth.

    Shared by the model-comparison and noise-blending criteria; roughly a
    minute of fitting.
    """
    corr = gaussian_reference_corr(4, seed=80)
    kinship = random_kinship(277, seed=81)
    config = SimConfig(
        n_genotypes=277, n_markers=1000, structure=CorrMultiVar(corr),
        true_params=np.array([4.0, 2.0, 1.0, 0.5]), resid_var=1.0,
        seed=82, kinship=kinship,
    )
    design = SparseDesign(n_checks=5, envs_per_variety=2, replicates=100, seed=42)
    return run_cv(["cor1", "corP"], design, sim_config=config, lambdas=(0.0, 0.75))


def test_criterion_07_heterogeneous_variance_benefit(benchmark_report):
    rows = {
        (r.model, r.replicate): r
        for r in benchmark_report
        if r.lam == 0.0 and r.converged
    }
    pairs = [
        (rows[("cor1", rep)], rows[("corP", rep)])
        for rep in range(100)
        if ("cor1", rep) in rows and ("corP", rep) in rows
    ]
    single_rmse = np.array([a.mean_rmse for a, _ in pairs])
    multi_rmse = np.array([b.mean_rmse for _, b in pairs])
    single_pearson = np.array([a.mean_pearson for a, _ in pairs])
    multi_pearson = np.array([b.mean_pearson for _, b in pairs])
    wins = int(np.sum(multi_rmse < single_rmse))
    p_value = stats.binomtest(wins, len(pairs), alternative="greater").pvalue
    ok = (
        len(pairs) >= 95
        and multi_rmse.mean() < single_rmse.mean()
        and multi_pearson.mean() >= single_pearson.mean()
        and p_value < 0.05
    )
    line = record(
        7, "per-environment variances beat a single shared variance", ok,
        f"rmse {multi_rmse.mean():.4f} vs {single_rmse.mean():.4f}, "
        f"wins {wins}/{len(pairs)}, sign p {p_value:.1e}",
    )
    assert ok, line


def test_criterion_08_noise_blending_degrades_accuracy(benchmark_report):
    clean = cv_series(benchmark_report, "cor1", 0.0, "mean_pearson")
    noisy = cv_series(benchmark_report, "cor1", 0.75, "mean_pearson")
    ok = (
        len(clean) >= 95
        and len(noisy) >= 95
        and clean.mean() > noisy.mean()
    )
    line = record(
        8, "blending noise into the correlation matrix hurts accuracy", ok,
        f"mean Pearson {clean.mean():.4f} at 0 vs {noisy.mean():.4f} at 0.75",
    )
    assert ok, line


def test_criterion_09_sparse_split_cardinalities():
    small = make_dataset(277, 4, seed=260)
    large = make_dataset(246, 15, seed=261)
    ok = True
    for rep in range(3):
        train_small, _ = sparse_split(
            small, SparseDesign(5, 2, replicates=3, seed=262), rep
        )
        train_large, _ = sparse_split(
            large, SparseDesign(6, 3, replicates=3, seed=263), rep
        )
        ok = ok and train_small.n_records == 564
        ok = ok and train_large.n_records == 810
    line = record(
        9, "sparse-testing designs keep exactly 564 and 810 records", ok,
        "3 replicate splits each",
    )
    assert ok, line


def test_criterion_10_heat_unit_values():
    cases = [((60.0, 80.0), 20.0), ((40.0, 90.0), 18.0), ((45.0, 48.0), -1.0)]
    ok = all(gdd_daily(t_min, t_max) == expected
             for (t_min, t_max), expected in cases)
    line = record(
        10, "daily heat units hit their clamped reference values", ok,
        "three exact temperature cases",
    )
    assert ok, line


def test_criterion_11_large_fit_runtime():
    dist = random_distance(15, seed=90, mean_off=5.0)
    kinship = random_kinship(246, seed=91)
    truth = np.concatenate([[0.15], np.linspace(0.6, 2.4, 15)])
    out = simulate_met(SimConfig(
        n_genotypes=246, n_markers=1000, structure=KernelMultiVar(dist),
        true_params=truth, resid_var=1.0, seed=92, kinship=kinship,
    ))
    design = SparseDesign(n_checks=6, envs_per_variety=3, replicates=1, seed=93)
    train, _ = sparse_split(out.dataset, design, 0)
    assert train.n_records == 810

    started = time.perf_counter()
    multi = fit(train, KernelMultiVar(dist))
    multi_seconds = time.perf_counter() - started
    started = time.perf_counter()
    single = fit(train, KernelSingleVar(dist))
    single_seconds = time.perf_counter() - started
    ok = (
        multi.converged
        and single.converged
        and multi_seconds < 300.0
        and single_seconds < multi_seconds
    )
    line = record(
        11, "trial-scale kernel fits finish fast, single faster than multi", ok,
        f"multi {multi_seconds:.2f}s, single {single_seconds:.2f}s on 810 records",
    )
    assert ok, line


def test_criterion_12_likelihood_invariances():
    rng = np.random.default_rng(250)
    worst = 0.0
    for trial in range(5):
        p = int(rng.integers(3, 6))
        n = int(rng.integers(10, 16))
        missing = {
            (int(rng.integers(0, n)), int(rng.integers(0, p))) for _ in range(3)
        }
        dataset = make_dataset(n, p, seed=270 + trial, missing=missing)
        zoo = structure_zoo(p, seed=280 + trial)
        structure, draw = zoo[trial % len(zoo)]
        kappa = draw(rng)
        resid = float(rng.uniform(0.4, 2.0))
        base = reml_loglik(dataset, structure, kappa, resid)

        beta = rng.normal(size=dataset.p)
        shift = build_design(dataset).X @ beta
        shifted = Dataset(
            [
                PhenotypeRecord(r.genotype, r.environment, float(r.value + s))
                for r, s in zip(dataset.records, shift)
            ],
            dataset.kinship,
            dataset.environment_labels,
        )
        order = rng.permutation(dataset.n_records)
        permuted = Dataset(
            [dataset.records[i] for i in order],
            dataset.kinship,
            dataset.environment_labels,
        )
        worst = max(
            worst,
            abs(reml_loglik(shifted, structure, kappa, resid) - base),
            abs(reml_loglik(permuted, structure, kappa, resid) - base),
        )
    ok = worst <= 1e-8
    line = record(
        12, "restricted likelihood ignores mean shifts and record order", ok,
        f"worst drift {worst:.2e} over 5 instances",
    )
    assert ok, line
