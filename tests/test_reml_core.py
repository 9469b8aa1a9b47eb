"""Tests for the mixed-model core: design, likelihood, gradients, fitting,
and cell prediction.

The likelihood oracle materializes Sigma kron K densely and evaluates the
restricted log-likelihood with plain inverses; gradients are checked
against central finite differences of that same scalar; predictions are
checked against the partitioned joint-normal conditional mean.
"""

import numpy as np
import pytest

from gxe_reml import reml_core
from gxe_reml import (
    CorrSingleVar,
    Dataset,
    DesignError,
    DiagonalVariance,
    EnvCorrelationMatrix,
    FitResult,
    InvalidInputError,
    KernelSingleVar,
    MainEffect,
    NumericalError,
    PhenotypeRecord,
    RelationshipMatrix,
    SimConfig,
    UnknownLabelError,
    build_design,
    build_structure,
    fit,
    gaussian_kernel,
    predict_cells,
    reml_loglik,
    score_and_ai,
    simulate_met,
)

from helpers import (
    dense_cell_blups,
    dense_reml,
    fd_gradient,
    gaussian_reference_corr,
    make_dataset,
    random_distance,
    random_kinship,
)


def identity_kinship(n):
    return RelationshipMatrix(np.eye(n), [f"g{i}" for i in range(n)])


def simulated_dataset(structure, true_params, resid_var, n, seed, env_means=0.0):
    config = SimConfig(
        n_genotypes=n,
        n_markers=max(4 * n, 50),
        structure=structure,
        true_params=np.asarray(true_params, dtype=float),
        resid_var=resid_var,
        env_means=env_means,
        seed=seed,
    )
    return simulate_met(config).dataset


class TestBuildDesign:
    def test_complete_two_by_two(self):
        dataset = make_dataset(2, 2, seed=0, kinship=identity_kinship(2))
        design = build_design(dataset)
        assert design.X.shape == (4, 2)
        assert np.array_equal(design.X[:, 0], np.ones(4))
        assert np.array_equal(design.Z, np.eye(4)), \
            "a complete env-major dataset must select every cell in order"

    def test_missing_cell_selects_rows(self):
        dataset = make_dataset(
            2, 2, seed=1, kinship=identity_kinship(2), missing={(1, 0)}
        )
        design = build_design(dataset)
        assert design.Z.shape == (3, 4)
        assert np.array_equal(np.nonzero(design.Z)[1], [0, 2, 3]), \
            "with cell (g1, e0) missing, rows 1, 3, 4 of the cell vector remain"

    def test_full_column_rank(self):
        for p in (2, 3, 5):
            dataset = make_dataset(3, p, seed=p)
            design = build_design(dataset)
            assert np.linalg.matrix_rank(design.X) == p

    def test_reference_environment_coding(self):
        dataset = make_dataset(2, 3, seed=2)
        x = build_design(dataset).X
        assert np.array_equal(x[:2, 1:], np.zeros((2, 2))), \
            "first-environment rows must carry only the intercept"
        assert np.array_equal(x[2:4, 1], np.ones(2))

    def test_unobserved_environment_rejected(self):
        dataset = make_dataset(3, 3, seed=3, missing={(0, 2), (1, 2), (2, 2)})
        with pytest.raises(DesignError):
            build_design(dataset)


class TestRemlLoglik:
    def test_hand_expanded_four_by_four(self):
        # n = p = 2, K = I, Sigma = I, resid 1: V = 2I, log|V| = 4 log 2,
        # X^T V^-1 X = [[2, 1], [1, 1]] with unit determinant, and
        # y^T P y = ((y1-y2)^2 + (y3-y4)^2) / 4.
        y = np.array([1.0, 3.0, -2.0, 0.0])
        dataset = make_dataset(2, 2, seed=4, kinship=identity_kinship(2), y=y)
        value = reml_loglik(dataset, CorrSingleVar(
            EnvCorrelationMatrix(np.eye(2), ["E0", "E1"])
        ), np.array([1.0]), 1.0)
        expected = -0.5 * (4.0 * np.log(2.0) + 0.0 + 2.0)
        assert abs(value - expected) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        kin = random_kinship(8, seed=6)
        dataset = make_dataset(
            8, 3, seed=7, kinship=kin, missing={(0, 1), (3, 2), (5, 0)}
        )
        corr = gaussian_reference_corr(3, seed=8)
        structure = CorrSingleVar(corr)
        for _ in range(5):
            var = float(rng.uniform(0.3, 3.0))
            resid = float(rng.uniform(0.3, 2.0))
            fast = reml_loglik(dataset, structure, np.array([var]), resid)
            slow = dense_reml(dataset, structure.sigma(np.array([var])), resid)
            assert abs(fast - slow) < 1e-8, \
                f"indexed assembly disagrees with the kron oracle at var={var}"

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        dataset = make_dataset(6, 3, seed=10)
        structure = MainEffect(3)
        base = reml_loglik(dataset, structure, np.array([1.2]), 0.8)
        x = build_design(dataset).X
        for _ in range(5):
            shift = x @ rng.normal(size=3)
            shifted = Dataset(
                [
                    PhenotypeRecord(r.genotype, r.environment, r.value + float(s))
                    for r, s in zip(dataset.records, shift)
                ],
                dataset.kinship,
                list(dataset.environment_labels),
            )
            moved = reml_loglik(shifted, structure, np.array([1.2]), 0.8)
            assert abs(moved - base) < 1e-8, \
                "restricted likelihood must ignore fixed-effect shifts"

    def test_record_permutation_invariance(self):
        rng = np.random.default_rng(11)
        dataset = make_dataset(5, 3, seed=12, missing={(2, 2)})
        structure = DiagonalVariance(3)
        kappa = np.array([0.5, 1.5, 2.5])
        base = reml_loglik(dataset, structure, kappa, 1.1)
        for _ in range(3):
            order = rng.permutation(dataset.n_records)
            shuffled = Dataset(
                [dataset.records[i] for i in order],
                dataset.kinship,
                list(dataset.environment_labels),
            )
            assert abs(reml_loglik(shuffled, structure, kappa, 1.1) - base) < 1e-10

    def test_nonpositive_resid_rejected(self):
        dataset = make_dataset(3, 2, seed=13)
        with pytest.raises(InvalidInputError):
            reml_loglik(dataset, MainEffect(2), np.array([1.0]), 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_covariance_is_numerical_error(self):
        for kin in (None, RelationshipMatrix(2.0 * np.eye(3), ["a", "b", "c"])):
            dataset = make_dataset(3, 2, seed=13, kinship=kin)
            with pytest.raises(NumericalError):
                reml_loglik(dataset, MainEffect(2), np.array([1e308]), 1.0)


class TestScoreAndAi:
    def test_gradient_matches_finite_differences(self):
        kin = random_kinship(12, seed=14)
        dataset = make_dataset(12, 4, seed=15, kinship=kin)
        corr = gaussian_reference_corr(4, seed=16)
        dist = random_distance(4, seed=17, mean_off=4.0)
        cases = [
            (CorrSingleVar(corr), lambda r: r.uniform(0.3, 3.0, 1)),
            (DiagonalVariance(4), lambda r: r.uniform(0.3, 3.0, 4)),
            (
                KernelSingleVar(dist),
                lambda r: np.array([r.uniform(0.05, 0.8), r.uniform(0.3, 3.0)]),
            ),
        ]
        rng = np.random.default_rng(18)
        for structure, draw in cases:
            for _ in range(3):
                kappa = draw(rng)
                resid = float(rng.uniform(0.4, 1.5))
                grad, _ = score_and_ai(dataset, structure, kappa, resid)
                point = np.concatenate([kappa, [resid]])
                numeric = fd_gradient(
                    lambda v: reml_loglik(dataset, structure, v[:-1], float(v[-1])),
                    point,
                )
                err = np.max(
                    np.abs(grad - numeric)
                    / np.maximum.reduce([np.abs(grad), np.abs(numeric), np.ones_like(grad)])
                )
                assert err < 1e-4, f"{structure.kind}: gradient off by {err:.2e}"

    def test_ai_symmetric(self):
        dataset = make_dataset(10, 3, seed=19)
        structure = DiagonalVariance(3)
        _, ai = score_and_ai(dataset, structure, np.array([1.0, 0.7, 1.4]), 0.9)
        assert np.max(np.abs(ai - ai.T)) < 1e-10

    def test_gradient_small_at_optimum(self):
        dataset = simulated_dataset(
            MainEffect(3), [1.0], resid_var=0.5, n=25, seed=20
        )
        result = fit(dataset, MainEffect(3), tol=1e-9)
        assert result.converged
        grad, _ = score_and_ai(
            dataset, MainEffect(3), result.kappa_hat, result.resid_var_hat
        )
        scaled = grad * np.concatenate([result.kappa_hat, [result.resid_var_hat]])
        assert np.max(np.abs(scaled)) < 1e-3, \
            "log-scale gradient must vanish at the converged optimum"


class TestFit:
    def test_recovers_strong_signal(self):
        dist = random_distance(4, seed=21, mean_off=5.0)
        truth = np.array([0.3, 1.0])
        dataset = simulated_dataset(
            KernelSingleVar(dist), truth, resid_var=0.4, n=60, seed=22
        )
        result = fit(dataset, KernelSingleVar(dist))
        assert result.converged, "a well-posed strong-signal fit must converge"
        assert 0.05 < result.kappa_hat[0] < 1.5
        assert 0.3 < result.kappa_hat[1] < 3.0
        assert 0.1 < result.resid_var_hat < 1.2

    def test_trace_non_decreasing(self):
        corr = gaussian_reference_corr(3, seed=23)
        dataset = simulated_dataset(
            CorrSingleVar(corr), [1.0], resid_var=0.6, n=30, seed=24
        )
        for structure in (MainEffect(3), CorrSingleVar(corr), DiagonalVariance(3)):
            result = fit(dataset, structure)
            diffs = np.diff(result.loglik_trace)
            assert np.all(diffs >= 0.0), \
                f"{structure.kind}: accepted steps may never lower the likelihood"

    def test_max_iter_flags_not_raises(self):
        dist = random_distance(4, seed=25, mean_off=5.0)
        dataset = simulated_dataset(
            KernelSingleVar(dist), [0.3, 1.0], resid_var=0.4, n=40, seed=26
        )
        result = fit(
            dataset, KernelSingleVar(dist), init=np.array([5.0, 50.0]), max_iter=1
        )
        assert not result.converged
        assert result.iterations == 1

    def test_one_factorization_per_accepted_step(self, monkeypatch):
        # Started far from the optimum, so some step halvings are rejected.
        dist = random_distance(4, seed=25, mean_off=5.0)
        structure = KernelSingleVar(dist)
        dataset = simulated_dataset(structure, [0.3, 1.0], resid_var=0.4, n=40, seed=26)
        factor = reml_core.scipy.linalg.cholesky
        factored = []

        def counting(*args, **kwargs):
            factored.append(1)
            return factor(*args, **kwargs)

        point = reml_core._RemlWorkspace.point
        logliks = []  # every point evaluated, None where it failed

        def recording(ws, sigma, resid_var):
            try:
                evaluation = point(ws, sigma, resid_var)
            except NumericalError:
                logliks.append(None)
                raise
            logliks.append(evaluation.loglik)
            return evaluation

        monkeypatch.setattr(reml_core.scipy.linalg, "cholesky", counting)
        monkeypatch.setattr(reml_core._RemlWorkspace, "point", recording)
        result = fit(dataset, structure, init=np.array([5.0, 50.0]))
        n_factored = len(factored)
        best, accepted, rejected = logliks[0], 0, 0
        for loglik in logliks[1:]:
            if loglik is not None and loglik >= best:
                best, accepted = loglik, accepted + 1
            else:
                rejected += 1
        assert rejected > 0, "the start should force at least one rejected halving"
        assert accepted == result.iterations
        assert n_factored == 1 + result.iterations + rejected, \
            "each accepted point must be factored once, not rebuilt"

        # The reused point is the fitted one.
        args = (dataset, structure, result.kappa_hat, result.resid_var_hat)
        loglik = reml_loglik(*args)
        _, ai = score_and_ai(*args)
        assert abs(result.loglik - loglik) <= 1e-10 * abs(loglik)
        assert np.max(np.abs(result.ai_matrix - ai)) <= 1e-10 * np.max(np.abs(ai))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_trial_counts_as_failed_halving(self, monkeypatch):
        # Parameters near the largest double, always stepped upward: the full
        # step overflows exp(eta) and the first halving overflows V.  Both are
        # failed halvings, not errors that abort the fit.
        dataset = make_dataset(4, 2, seed=55)
        monkeypatch.setattr(
            reml_core, "_ascent_step", lambda ai, grad: np.full_like(grad, 5.0)
        )
        result = fit(
            dataset, MainEffect(2), init=np.array([1e307]), resid_init=1e307, max_iter=3
        )
        assert np.all(np.isfinite(result.loglik_trace))
        assert np.all(np.isfinite(result.kappa_hat))

    def test_frozen_bandwidth_matches_fixed_correlation(self):
        dist = random_distance(4, seed=27, mean_off=4.0)
        theta0 = 1.0 / 4.0
        corr = EnvCorrelationMatrix(gaussian_kernel(dist, theta0), list(dist.labels))
        kernel = KernelSingleVar(dist)
        fixed_c = CorrSingleVar(corr)
        for seed in (28, 29, 30):
            dataset = simulated_dataset(
                kernel, [theta0, 1.0], resid_var=0.5, n=30, seed=seed
            )
            frozen = fit(dataset, kernel, fixed={0: theta0})
            plain = fit(dataset, fixed_c)
            assert frozen.kappa_hat[0] == theta0, "frozen value must be kept exactly"
            assert abs(frozen.loglik - plain.loglik) < 1e-6
            assert abs(frozen.kappa_hat[1] - plain.kappa_hat[0]) < 1e-6
            assert abs(frozen.resid_var_hat - plain.resid_var_hat) < 1e-6

    def test_scale_equivariance(self):
        dist = random_distance(4, seed=31, mean_off=4.0)
        kernel = KernelSingleVar(dist)
        dataset = simulated_dataset(kernel, [0.25, 1.2], resid_var=0.5, n=40, seed=32)
        c = 3.0
        scaled = Dataset(
            [
                PhenotypeRecord(r.genotype, r.environment, c * r.value)
                for r in dataset.records
            ],
            dataset.kinship,
            list(dataset.environment_labels),
        )
        base = fit(dataset, kernel, tol=1e-8)
        big = fit(scaled, kernel, tol=1e-8)
        assert base.converged and big.converged
        assert np.isclose(big.kappa_hat[0], base.kappa_hat[0], rtol=1e-3), \
            "the bandwidth is correlation-scale and must not move"
        assert np.isclose(big.kappa_hat[1], c**2 * base.kappa_hat[1], rtol=1e-3)
        assert np.isclose(big.resid_var_hat, c**2 * base.resid_var_hat, rtol=1e-3)

    def test_record_order_does_not_matter(self):
        corr = gaussian_reference_corr(3, seed=33)
        dataset = simulated_dataset(
            CorrSingleVar(corr), [1.0], resid_var=0.5, n=20, seed=34
        )
        rng = np.random.default_rng(35)
        order = rng.permutation(dataset.n_records)
        shuffled = Dataset(
            [dataset.records[i] for i in order],
            dataset.kinship,
            list(dataset.environment_labels),
        )
        a = fit(dataset, CorrSingleVar(corr), tol=1e-8)
        b = fit(shuffled, CorrSingleVar(corr), tol=1e-8)
        assert abs(a.loglik - b.loglik) < 1e-6
        assert np.allclose(a.kappa_hat, b.kappa_hat, rtol=1e-4)
        assert np.allclose(a.blup_matrix, b.blup_matrix, atol=1e-5)

    def test_main_effect_nested_in_kernel(self):
        dist = random_distance(4, seed=36, mean_off=4.0)
        dataset = simulated_dataset(
            KernelSingleVar(dist), [0.2, 1.0], resid_var=0.5, n=30, seed=37
        )
        main = fit(dataset, MainEffect(4))
        kern = fit(dataset, KernelSingleVar(dist))
        assert main.loglik <= kern.loglik + 1e-4, \
            "the main-effect model is the kernel's small-bandwidth limit"

    def test_boundary_clamp_recorded(self, caplog):
        # Pure-noise data with the genetic variance started near the floor:
        # the update pushes it further down and the clamp must be recorded.
        rng = np.random.default_rng(38)
        n, p = 12, 3
        y = rng.normal(size=n * p)
        dataset = make_dataset(n, p, seed=39, kinship=identity_kinship(n), y=y)
        with caplog.at_level("WARNING", logger="gxe_reml.reml_core"):
            result = fit(
                dataset,
                MainEffect(p),
                init=np.array([1.1e-13]),
                resid_init=float(y.var()),
            )
        assert "var" in result.boundary_params
        assert any("boundary" in rec.message for rec in caplog.records)

    def test_environment_means_recovered(self):
        corr = gaussian_reference_corr(3, seed=40)
        means = np.array([10.0, -4.0, 2.5])
        dataset = simulated_dataset(
            CorrSingleVar(corr), [0.8], resid_var=0.3, n=50, seed=41,
            env_means=means.tolist(),
        )
        result = fit(dataset, CorrSingleVar(corr))
        assert np.allclose(result.environment_means(), means, atol=0.8), \
            "fixed environment means must be estimated from the intercept coding"

    def test_bad_init_shapes_rejected(self):
        dataset = make_dataset(4, 2, seed=42)
        with pytest.raises(InvalidInputError):
            fit(dataset, MainEffect(2), init=np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            fit(dataset, MainEffect(2), resid_init=-1.0)
        with pytest.raises(InvalidInputError):
            fit(dataset, MainEffect(2), fixed={5: 1.0})


class TestPredictCells:
    def test_in_sample_matches_fit_blups(self):
        corr = gaussian_reference_corr(3, seed=43)
        dataset = simulated_dataset(
            CorrSingleVar(corr), [1.0], resid_var=0.5, n=15, seed=44
        )
        result = fit(dataset, CorrSingleVar(corr))
        targets = [(r.genotype, r.environment) for r in dataset.records]
        preds = predict_cells(result, dataset, targets)
        for pred, rec in zip(preds, dataset.records):
            gi = dataset.genotype_index(rec.genotype)
            ei = dataset.environment_index(rec.environment)
            assert np.isclose(pred.blup, result.blup_matrix[gi, ei], atol=1e-10)

    def test_matches_joint_normal_partition(self):
        kin = random_kinship(3, seed=45)
        dataset = make_dataset(3, 2, seed=46, kinship=kin, missing={(2, 1)})
        corr = gaussian_reference_corr(2, seed=47)
        result = fit(dataset, CorrSingleVar(corr))
        sigma = result.structure.sigma(result.kappa_hat)
        dense_u = dense_cell_blups(
            dataset, sigma, result.resid_var_hat, result.environment_means()
        )
        gens = dataset.genotype_labels
        envs = dataset.environment_labels
        targets = [(g, e) for e in envs for g in gens]
        preds = predict_cells(result, dataset, targets)
        means = result.environment_means()
        for idx, pred in enumerate(preds):
            assert np.isclose(pred.blup, dense_u[idx], atol=1e-8), \
                f"cell {targets[idx]} disagrees with the partitioned joint normal"
            ei = envs.index(pred.environment)
            assert np.isclose(pred.fitted, means[ei] + dense_u[idx], atol=1e-8)

    def test_vanishing_residual_reproduces_observations(self):
        kin = random_kinship(6, seed=48)
        corr = gaussian_reference_corr(3, seed=49)
        structure = CorrSingleVar(corr)
        rng = np.random.default_rng(50)
        chol = np.linalg.cholesky(
            np.kron(structure.sigma(np.array([1.0])), kin.values)
            + 1e-10 * np.eye(18)
        )
        y = chol @ rng.normal(size=18)
        dataset = make_dataset(6, 3, seed=51, kinship=kin, y=y)
        result = FitResult(
            structure=structure,
            kappa_hat=np.array([1.0]),
            resid_var_hat=1e-8,
            beta_hat=np.zeros(3),
            loglik_trace=np.zeros(1),
            ai_matrix=np.eye(2),
            param_names=structure.param_names() + ["resid_var"],
            blup_matrix=np.zeros((6, 3)),
            genotype_labels=list(kin.labels),
            environment_labels=list(dataset.environment_labels),
            converged=True,
            iterations=0,
            boundary_params=[],
            fixed_params={},
        )
        preds = predict_cells(
            result, dataset, [(r.genotype, r.environment) for r in dataset.records]
        )
        for pred, rec in zip(preds, dataset.records):
            assert abs(pred.fitted - rec.value) < 1e-3, \
                "with residual variance near zero, fitted values pin the data"

    def test_diagonal_structure_zeroes_unseen_environment(self):
        dataset = simulated_dataset(
            DiagonalVariance(3), [1.0, 2.0, 0.5], resid_var=0.4, n=10, seed=52
        )
        result = fit(dataset, DiagonalVariance(3))
        last_env = dataset.environment_labels[2]
        keep = [
            i for i, r in enumerate(dataset.records) if r.environment != last_env
        ]
        conditioning = dataset.subset(keep)
        preds = predict_cells(
            result,
            conditioning,
            [(g, last_env) for g in dataset.genotype_labels],
        )
        means = result.environment_means()
        for pred in preds:
            assert pred.blup == 0.0, \
                "no cross-environment covariance and no records mean a zero BLUP"
            assert pred.fitted == means[2]

    def test_unknown_labels_rejected(self):
        dataset = make_dataset(3, 2, seed=53)
        result = fit(dataset, MainEffect(2))
        with pytest.raises(UnknownLabelError):
            predict_cells(result, dataset, [("nobody", dataset.environment_labels[0])])
        with pytest.raises(UnknownLabelError):
            predict_cells(result, dataset, [(dataset.genotype_labels[0], "nowhere")])

    def test_empty_conditioning_dataset_gives_zeros(self):
        dataset = simulated_dataset(MainEffect(2), [1.0], resid_var=0.5, n=5, seed=54)
        result = fit(dataset, MainEffect(2))
        empty = dataset.subset([])
        preds = predict_cells(
            result, empty, [(dataset.genotype_labels[0], dataset.environment_labels[1])]
        )
        assert preds[0].blup == 0.0
        assert preds[0].fitted == result.environment_means()[1]
