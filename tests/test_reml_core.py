"""Tests for the mixed-model core: design, likelihood, gradients, fitting,
and cell prediction.

The likelihood oracle materializes Sigma kron K densely and evaluates the
restricted log-likelihood with plain inverses; gradients are checked
against central finite differences of that same scalar; predictions are
checked against the partitioned joint-normal conditional mean.
"""

import pickle
import re

import numpy as np
import pytest

from gxe_reml import reml_core
from gxe_reml import (
    CorrSingleVar,
    DataError,
    Dataset,
    DesignError,
    DiagonalVariance,
    EnvCorrelationMatrix,
    InvalidInputError,
    KernelMultiVar,
    KernelSingleVar,
    MainEffect,
    NumericalError,
    PhenotypeRecord,
    RelationshipMatrix,
    SimConfig,
    UnknownLabelError,
    build_structure,
    fit,
    gaussian_kernel,
    lookup_cells,
    reml_loglik,
    score_and_ai,
    simulate_met,
)

from helpers import (
    build_design,
    dense_cell_blups,
    dense_reml,
    dense_score_and_ai,
    fd_gradient,
    first_record_fault,
    gaussian_reference_corr,
    make_dataset,
    random_distance,
    random_kinship,
    structure_zoo,
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


def sparse_dataset():
    """9 genotypes x 4 environments, unequal record counts per environment."""
    missing = {(0, 1), (3, 1), (5, 2), (1, 3), (2, 3), (7, 3)}
    return make_dataset(9, 4, seed=60, missing=missing)


class TestDataset:
    """Record checks: the first faulty record, and its first fault among
    unknown genotype, unknown environment, repeated cell and non-finite
    value, name the error."""

    @staticmethod
    def records(n, p):
        dataset = make_dataset(n, p, seed=80)
        return list(dataset.records), dataset.kinship, dataset.environment_labels

    @pytest.mark.parametrize("fault, error, message", [
        (lambda rec: PhenotypeRecord("ghost", rec.environment, rec.value),
         UnknownLabelError, "record 5: genotype 'ghost' is not in the relationship matrix"),
        (lambda rec: PhenotypeRecord(rec.genotype, "E9", rec.value),
         UnknownLabelError, "record 5: environment 'E9' is not in the environment labels"),
        (lambda rec: PhenotypeRecord("g000", "E0", rec.value),
         DataError, "duplicate cell ('g000', 'E0')"),
        (lambda rec: PhenotypeRecord(rec.genotype, rec.environment, np.inf),
         DataError, "record 5 ('g005', 'E0'): non-finite value"),
    ], ids=["genotype", "environment", "duplicate", "non-finite"])
    def test_each_fault_names_its_record(self, fault, error, message):
        records, kin, envs = self.records(6, 2)
        records[5] = fault(records[5])
        with pytest.raises(error) as failure:
            Dataset(records, kin, envs)
        assert str(failure.value) == message

    @pytest.mark.parametrize("labels, message", [
        (["E0", "E1", "E0"], "environment labels contain duplicates"),
        ([], "at least one environment label is required"),
    ], ids=["repeated", "none"])
    def test_environment_labels_checked(self, labels, message):
        records, kin, _ = self.records(3, 2)
        with pytest.raises(DataError) as failure:
            Dataset(records, kin, labels)
        assert str(failure.value) == message

    def test_matches_a_record_by_record_scan(self):
        records, kin, envs = self.records(5, 3)
        rng = np.random.default_rng(81)
        faults = [
            lambda rec: PhenotypeRecord("ghost", rec.environment, rec.value),
            lambda rec: PhenotypeRecord(rec.genotype, "E9", rec.value),
            lambda rec: PhenotypeRecord("ghost", "E9", rec.value),
            lambda rec: PhenotypeRecord(rec.genotype, rec.environment, np.nan),
            lambda rec: PhenotypeRecord(rec.genotype, rec.environment, -np.inf),
        ]
        for _ in range(300):
            drawn = [records[i] for i in rng.permutation(len(records))]
            for r in rng.choice(len(drawn), size=rng.integers(0, 4), replace=False):
                if rng.random() < 0.4:  # repeat another record's cell
                    other = drawn[rng.integers(len(drawn))]
                    drawn[r] = PhenotypeRecord(other.genotype, other.environment, 0.0)
                else:
                    drawn[r] = faults[rng.integers(len(faults))](drawn[r])
            want = first_record_fault(drawn, kin, envs)
            if want is None:
                dataset = Dataset(drawn, kin, envs)
                assert [dataset.genotype_labels[g] for g in dataset.gen_index_array] \
                    == [rec.genotype for rec in drawn]
                assert [envs[e] for e in dataset.env_index_array] \
                    == [rec.environment for rec in drawn]
                assert dataset.values.tolist() == [rec.value for rec in drawn]
                continue
            with pytest.raises(type(want)) as failure:
                Dataset(drawn, kin, envs)
            assert str(failure.value) == str(want)


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
            reml_loglik(dataset, MainEffect(3), np.array([1.0]), 1.0)

    def test_one_record_per_environment_rejected(self):
        # Each environment's mean absorbs its only record: no error contrast
        # is left to estimate a variance from.
        dataset = make_dataset(3, 3, seed=3).subset([0, 4, 8])
        with pytest.raises(DesignError, match="no error contrasts"):
            reml_loglik(dataset, MainEffect(3), np.array([1.0]), 1.0)
        with pytest.raises(DesignError, match="no error contrasts"):
            fit(dataset, MainEffect(3))


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

    def test_overflowing_covariance_is_numerical_error(self):
        for kin in (None, RelationshipMatrix(2.0 * np.eye(3), ["a", "b", "c"])):
            dataset = make_dataset(3, 2, seed=13, kinship=kin)
            with pytest.raises(NumericalError):
                reml_loglik(dataset, MainEffect(2), np.array([1e308]), 1.0)


    def test_failed_factorization_reports_eigenvalues(self):
        # potrf consumes V; the message must describe V, not what is left.
        dataset = sparse_dataset()
        sigma, resid = -2.0 * np.eye(4), 1.0
        ws = reml_core._RemlWorkspace(dataset, MainEffect(4))
        with pytest.raises(NumericalError, match="min eigenvalue") as failure:
            ws.point(sigma, resid)
        gen, env = dataset.gen_index_array, dataset.env_index_array
        v = sigma[np.ix_(env, env)] * dataset.kinship.values[np.ix_(gen, gen)]
        eigs = np.linalg.eigvalsh(v + resid * np.eye(len(v)))
        reported = re.search(r"min eigenvalue (\S+), max eigenvalue (\S+)\)",
                             str(failure.value))
        assert eigs[0] < 0.0
        assert np.allclose([float(x) for x in reported.groups()], eigs[[0, -1]], rtol=1e-3)


    def test_failed_inversion_names_potri(self, monkeypatch):
        # Sparse data: the dense point inverts its factor with potri.
        monkeypatch.setattr(reml_core.lapack, "dpotri", lambda c, **kw: (c, 2))
        with pytest.raises(NumericalError) as failure:
            score_and_ai(sparse_dataset(), MainEffect(4), np.array([1.0]), 1.0)
        assert str(failure.value) == "triangular inversion failed (potri info 2)"

    def test_failed_block_factorization_names_its_eigenvalue(self):
        # Complete data: B_i = -2 d_i I + I first fails at the first d_i >= 1/2.
        dataset = make_dataset(9, 4, seed=61)
        sigma, resid = -2.0 * np.eye(4), 1.0
        ws = reml_core._RemlWorkspace(dataset, MainEffect(4))
        with pytest.raises(NumericalError, match="d_i") as failure:
            ws.point(sigma, resid)
        reported = float(re.search(r"d_i = (\S+)\)", str(failure.value)).group(1))
        d = dataset.kinship._contrast_basis[0]
        assert np.isclose(reported, d[np.argmax(resid - 2.0 * d <= 0.0)], rtol=1e-6)
        assert resid - 2.0 * d[0] > 0.0, "the first blocks must factor"


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

    def test_matches_dense_oracle(self):
        # Unequal record counts per environment (9, 7, 8, 6), records shuffled.
        p = 4
        base = sparse_dataset()
        order = np.random.default_rng(61).permutation(base.n_records)
        dataset = Dataset(
            [base.records[i] for i in order],
            base.kinship,
            list(base.environment_labels),
        )
        rng = np.random.default_rng(62)
        for structure, draw in structure_zoo(p, seed=63):
            kappa = draw(rng)
            resid = float(rng.uniform(0.4, 1.5))
            grad, ai = score_and_ai(dataset, structure, kappa, resid)
            ref_grad, ref_ai = dense_score_and_ai(dataset, structure, kappa, resid)
            g_err = np.max(np.abs(grad - ref_grad)) / np.max(np.abs(ref_grad))
            a_err = np.max(np.abs(ai - ref_ai)) / np.max(np.abs(ref_ai))
            assert g_err < 1e-9, f"{structure.kind}: score off by {g_err:.2e}"
            assert a_err < 1e-9, f"{structure.kind}: AI matrix off by {a_err:.2e}"

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
        assert result.converged and result.termination == "tol"
        grad, _ = score_and_ai(
            dataset, MainEffect(3), result.kappa_hat, result.resid_var_hat
        )
        scaled = grad * np.concatenate([result.kappa_hat, [result.resid_var_hat]])
        assert np.max(np.abs(scaled)) < 1e-3, \
            "log-scale gradient must vanish at the converged optimum"


class TestCurvature:
    # The correction 1/2 [tr(P Vddot_ij) - y'P Vddot_ij P y] is minus the
    # slope of the score when only the Sigma derivatives move and P stays.

    def test_score_slope_at_a_fixed_point(self):
        dataset = sparse_dataset()
        rng = np.random.default_rng(64)
        for structure, draw in structure_zoo(4, seed=63):
            if structure.kind not in ("corP", "kern1", "kernP"):
                continue
            kappa = draw(rng)
            resid = float(rng.uniform(0.4, 1.5))
            ws = reml_core._RemlWorkspace(dataset, structure)
            sigma = structure.sigma(kappa)
            _, _, corr = ws.point(sigma, resid).derivatives(structure, kappa)
            slope = np.zeros_like(corr)
            for j in range(len(kappa)):
                h = 1e-4 * kappa[j]
                up, down = kappa.copy(), kappa.copy()
                up[j] += h
                down[j] -= h
                g_up = ws.point(sigma, resid).derivatives(structure, up)[0]
                g_down = ws.point(sigma, resid).derivatives(structure, down)[0]
                slope[:, j] = (g_up - g_down) / (2.0 * h)
            err = np.max(np.abs(slope + corr)) / np.max(np.abs(corr))
            assert err < 1e-6, f"{structure.kind}: correction off by {err:.2e}"

    def test_zero_for_kinds_linear_in_kappa(self):
        dataset = sparse_dataset()
        rng = np.random.default_rng(65)
        m = rng.normal(size=(4, 4))
        for structure, draw in structure_zoo(4, seed=63):
            if structure.kind not in ("main", "diag", "cor1", "ka"):
                continue
            kappa = draw(rng)
            ws = reml_core._RemlWorkspace(dataset, structure)
            _, _, corr = ws.point(structure.sigma(kappa), 0.8).derivatives(structure, kappa)
            assert np.all(structure.curvature(kappa, m + m.T) == 0.0)
            assert np.all(corr == 0.0), f"{structure.kind}: nonzero correction"

    def test_fitted_kernp_has_small_newton_decrement(self):
        dist = random_distance(4, seed=66, mean_off=4.0)
        structure = build_structure("kernP", dist=dist)
        dataset = simulated_dataset(
            structure, [0.25, 0.6, 1.0, 1.4, 0.8], resid_var=0.5, n=40, seed=67
        )
        tol = 1e-6
        result = fit(dataset, structure, tol=tol)
        assert result.converged and not result.boundary_params
        ws = reml_core._RemlWorkspace(dataset, structure)
        point = ws.point(structure.sigma(result.kappa_hat), result.resid_var_hat)
        grad, ai, corr = point.derivatives(structure, result.kappa_hat)
        params = np.concatenate([result.kappa_hat, [result.resid_var_hat]])
        g_eta = grad * params
        newton = (ai + corr) * np.outer(params, params)
        if np.min(np.linalg.eigvalsh(newton)) <= 0.0:
            newton = ai * np.outer(params, params)
        decrement = float(g_eta @ np.linalg.solve(newton, g_eta))
        assert 0.0 <= decrement < tol, f"Newton decrement {decrement:.2e} at the fit"


class TestNewtonStep:
    """The step matrix ladder: AI + C, AI, ridged AI, then the gradient."""

    ai = np.array([[2.0, 0.5], [0.5, 1.0]])
    grad = np.array([1.0, -3.0])

    def test_positive_definite_ai_plus_c_is_used(self):
        corr = np.array([[0.5, 0.1], [0.1, 0.2]])
        step = reml_core._newton_step(self.ai, corr, self.grad)
        np.testing.assert_allclose(step, np.linalg.solve(self.ai + corr, self.grad))

    def test_indefinite_ai_plus_c_yields_the_ai_step(self):
        corr = np.array([[-3.0, 0.0], [0.0, 0.0]])
        step = reml_core._newton_step(self.ai, corr, self.grad)
        np.testing.assert_allclose(step, np.linalg.solve(self.ai, self.grad))

    def test_singular_ai_yields_a_finite_ascent_step(self):
        ai = np.array([[1.0, 2.0], [2.0, 4.0]])
        step = reml_core._newton_step(ai, np.zeros((2, 2)), self.grad)
        assert np.all(np.isfinite(step))
        assert self.grad @ step > 0.0
        # The first ridge, 1e-8 times the mean diagonal, suffices.
        ridged = ai + 1e-8 * 2.5 * np.eye(2)
        np.testing.assert_allclose(step, np.linalg.solve(ridged, self.grad), rtol=1e-6)

    def test_non_finite_ai_yields_the_scaled_gradient(self):
        ai = np.array([[np.nan, 0.0], [0.0, 1.0]])
        step = reml_core._newton_step(ai, np.zeros((2, 2)), self.grad)
        np.testing.assert_array_equal(step, self.grad / 3.0)


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
        assert not result.converged and result.termination == "max_iter"
        assert result.iterations == 1

    def test_iterations_count_accepted_steps(self):
        dist = random_distance(4, seed=25, mean_off=5.0)
        dataset = simulated_dataset(
            KernelSingleVar(dist), [0.3, 1.0], resid_var=0.4, n=40, seed=26
        )
        for max_iter in (1, 2, 3, 100):
            result = fit(
                dataset, KernelSingleVar(dist), init=np.array([5.0, 50.0]),
                max_iter=max_iter,
            )
            assert result.iterations == len(result.loglik_trace) - 1
            expected = "tol" if max_iter == 100 else "max_iter"
            assert result.termination == expected
            assert (result.iterations < max_iter) == (expected == "tol")

    @staticmethod
    def assert_one_factorization_per_point(monkeypatch, complete):
        """Fit from far off the optimum, counting potrf calls: one per point
        evaluated on the dense path, one per p x p block (n - 1 of them) on
        the spectral path."""
        dist = random_distance(4, seed=25, mean_off=5.0)
        structure = KernelSingleVar(dist)
        dataset = simulated_dataset(structure, [0.3, 1.0], resid_var=0.4, n=40, seed=26)
        if not complete:
            dataset = dataset.subset([r for r in range(dataset.n_records) if r % 3])
        evaluator = reml_core._SpectralPoint if complete else reml_core._PointEvaluation
        per_point = dataset.n - 1 if complete else 1
        factor = reml_core.lapack.dpotrf
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
            assert isinstance(evaluation, evaluator)
            logliks.append(evaluation.loglik)
            return evaluation

        monkeypatch.setattr(reml_core.lapack, "dpotrf", counting)
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
        assert n_factored == per_point * (1 + result.iterations + rejected), \
            "each accepted point must be factored once, not rebuilt"

        # The reused point is the fitted one.
        args = (dataset, structure, result.kappa_hat, result.resid_var_hat)
        loglik = reml_loglik(*args)
        _, ai = score_and_ai(*args)
        assert abs(result.loglik - loglik) <= 1e-10 * abs(loglik)
        assert np.max(np.abs(result.ai_matrix - ai)) <= 1e-10 * np.max(np.abs(ai))

    def test_one_factorization_per_accepted_step(self, monkeypatch):
        # A complete trial: one potrf per p x p block per point.
        self.assert_one_factorization_per_point(monkeypatch, True)

    def test_one_dense_factorization_per_accepted_step(self, monkeypatch):
        # Two thirds of the records: one potrf of the N x N V per point.
        self.assert_one_factorization_per_point(monkeypatch, False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_trial_counts_as_failed_halving(self, monkeypatch):
        # Parameters near the largest double, always stepped upward: the full
        # step overflows exp(eta) and the first halving overflows V.  Both are
        # failed halvings, not errors that abort the fit.
        dataset = make_dataset(4, 2, seed=55)
        monkeypatch.setattr(
            reml_core, "_newton_step", lambda ai, corr, grad: np.full_like(grad, 5.0)
        )
        result = fit(
            dataset, MainEffect(2), init=np.array([1e307]), resid_init=1e307, max_iter=3
        )
        assert np.all(np.isfinite(result.loglik_trace))
        assert np.all(np.isfinite(result.kappa_hat))

    def test_failed_halvings_end_the_fit_unconverged(self, monkeypatch):
        # Every step descends, so every halving fails at the start: the fit
        # stalls there and must not claim a stationary point.
        dataset = make_dataset(6, 3, seed=56)
        monkeypatch.setattr(
            reml_core, "_newton_step",
            lambda ai, corr, grad: -grad / np.max(np.abs(grad)),
        )
        result = fit(dataset, MainEffect(3))
        assert result.converged is False and result.termination == "stalled"
        assert result.iterations == 0 and len(result.loglik_trace) == 1

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

    def test_boundary_clamp_recorded(self):
        # Pure-noise data with the genetic variance started near the floor:
        # the update pushes it further down and the clamp must be recorded.
        rng = np.random.default_rng(38)
        n, p = 12, 3
        y = rng.normal(size=n * p)
        dataset = make_dataset(n, p, seed=39, kinship=identity_kinship(n), y=y)
        result = fit(
            dataset,
            MainEffect(p),
            init=np.array([1.1e-13]),
            resid_init=float(y.var()),
        )
        assert "var" in result.boundary_params

    @staticmethod
    def _assert_stationary_off_bound(seed):
        # E1 carries no genetic variance, so var[1] ends at the lower bound;
        # the other coordinates must still reach a stationary point.
        n, p = 30, 4
        rng = np.random.default_rng(seed)
        kin = random_kinship(n, seed=100 + seed)
        u = np.linalg.cholesky(kin.values) @ rng.normal(size=(n, p))
        y = (u * [1.0, 0.0, 1.0, 0.8] + 0.8 * rng.normal(size=(n, p))).T.ravel()
        dataset = make_dataset(n, p, seed=seed, kinship=kin, y=y)
        structure = DiagonalVariance(p)
        result = fit(dataset, structure)
        params = np.concatenate([result.kappa_hat, [result.resid_var_hat]])
        y_var = float(dataset.values.var())
        floor = np.log(np.append(structure.initial_params(y_var), 0.5 * y_var)) - 30.0
        pinned = np.log(params) <= floor + 1e-9
        assert result.converged
        assert result.boundary_params == ["var[1]"] and pinned[1]
        grad, _ = score_and_ai(
            dataset, structure, result.kappa_hat, result.resid_var_hat
        )
        scaled = np.abs(grad * params)[~pinned]
        assert np.max(scaled) < 1e-3, \
            f"log-scale gradient {np.max(scaled):.2e} off the bound at convergence"

    def test_pinned_variance_leaves_the_rest_stationary(self):
        self._assert_stationary_off_bound(seed=6)

    def test_near_bound_variance_does_not_end_the_fit(self):
        # With seed 7, var[2] passes near the bound: the log-scale AI is
        # nearly singular and clipping its step coordinate by coordinate
        # left no ascent direction, so every halving failed.
        self._assert_stationary_off_bound(seed=7)

    def test_every_parameter_pinned_converges(self):
        # y equals its environment means, so P y = 0 and every gradient points
        # down: all coordinates end pinned and the step has none left to move.
        dataset = make_dataset(6, 3, seed=1, y=np.repeat([1.0, 2.0, 4.0], 6))
        result = fit(dataset, DiagonalVariance(3))
        assert result.converged
        assert sorted(result.boundary_params) == [
            "resid_var", "var[0]", "var[1]", "var[2]"
        ]

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

    @pytest.mark.parametrize("name, value", [
        ("tol", np.inf), ("tol", np.nan), ("resid_init", np.inf), ("resid_init", np.nan),
    ])
    def test_non_finite_controls_named_non_finite(self, name, value):
        dataset = make_dataset(4, 2, seed=42)
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
            fit(dataset, MainEffect(2), **{name: value})
        if name == "resid_init":
            with pytest.raises(InvalidInputError, match="^resid_var must be finite"):
                reml_loglik(dataset, MainEffect(2), np.array([1.0]), value)

    def test_non_integer_max_iter_rejected(self):
        # 1.5 passes max_iter >= 1 but no iteration count ever equals it.
        dataset = make_dataset(30, 4, seed=3)
        with pytest.raises(InvalidInputError,
                           match=r"^max_iter must be an integer, got 1\.5$"):
            fit(dataset, DiagonalVariance(4), max_iter=1.5)
        assert fit(dataset, DiagonalVariance(4), max_iter=np.int64(1)).iterations == 1

    def test_max_iter_below_one_rejected(self):
        dataset = make_dataset(4, 2, seed=42)
        with pytest.raises(InvalidInputError, match=r"^max_iter must be >= 1, got 0$"):
            fit(dataset, MainEffect(2), max_iter=0)

    def test_non_integer_fixed_index_rejected(self):
        dataset = make_dataset(4, 2, seed=42)
        with pytest.raises(InvalidInputError,
                           match=r"^fixed parameter index must be an integer, got 0\.5$"):
            fit(dataset, MainEffect(2), fixed={0.5: 1.0})
        frozen = fit(dataset, MainEffect(2), fixed={np.int64(0): 0.7})
        assert frozen.kappa_hat[0] == 0.7

    @pytest.mark.parametrize("start, name", [
        ({"init": np.array([0.5, -1.0])}, "var"),
        ({"fixed": {0: 0.0}}, "bandwidth"),
    ], ids=["negative-init", "zero-fixed"])
    def test_structure_checks_the_start(self, start, name):
        # init, and init with the fixed values put in, pass the structure's
        # own parameter check, whose errors name the kind and the parameter.
        structure = KernelSingleVar(random_distance(2, seed=43))
        dataset = make_dataset(4, 2, seed=42, env_labels=list(structure.env_labels))
        with pytest.raises(InvalidInputError,
                           match=f"^kern1 parameter '{name}' must be positive"):
            fit(dataset, structure, **start)


class TestInputChecks:
    """A structure must describe the dataset's environments, and a fit needs
    phenotypes that vary."""

    @pytest.mark.parametrize("structure, message", [
        (MainEffect(3), "structure covers 3 environments but the dataset has 2"),
        (DiagonalVariance(2, ["X", "Y"]),
         "structure environment labels do not match the dataset "
         "(structure: ['X', 'Y'], dataset: ['E0', 'E1'])"),
    ], ids=["p", "labels"])
    @pytest.mark.parametrize("entry", [
        lambda dataset, structure: fit(dataset, structure),
        lambda dataset, structure: reml_loglik(
            dataset, structure, np.ones(structure.n_params), 1.0),
    ], ids=["fit", "reml_loglik"])
    def test_structure_must_match_the_dataset(self, entry, structure, message):
        with pytest.raises(InvalidInputError) as failure:
            entry(make_dataset(4, 2, seed=90), structure)
        assert str(failure.value) == message

    def test_constant_phenotypes_rejected(self):
        dataset = make_dataset(4, 2, seed=91, y=np.full(8, 1.5))
        with pytest.raises(DataError) as failure:
            fit(dataset, MainEffect(2))
        assert str(failure.value) == "phenotype variance is zero; nothing to decompose"


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "sparse"])
def test_one_blup_product_per_fit(monkeypatch, complete):
    # K S Sigma is formed once at the fitted point, for beta and the BLUPs.
    dataset = make_dataset(9, 4, seed=92) if complete else sparse_dataset()
    calls = []
    blups = reml_core._cell_blups

    def counting(*args):
        calls.append(1)
        return blups(*args)

    monkeypatch.setattr(reml_core, "_cell_blups", counting)
    result = fit(dataset, DiagonalVariance(4))
    assert len(calls) == 1
    point = reml_core._point_at(dataset, result.structure, result.kappa_hat,
                                result.resid_var_hat)
    assert np.array_equal(result.blup_matrix, blups(dataset, point.py, point.sigma))


class TestSpectralPath:
    """Complete trials are evaluated in the contrast eigenbasis; the dense
    evaluator, forced on the same data, must give the same numbers."""

    @staticmethod
    def evaluate(dataset, structure, kappa, resid, evaluator):
        point = reml_core._RemlWorkspace(dataset, structure).point(
            structure.sigma(kappa), resid
        )
        assert isinstance(point, evaluator)
        grad, ai, corr = point.derivatives(structure, kappa)
        blups = reml_core._cell_blups(dataset, point.py, point.sigma)
        return {"loglik": point.loglik, "beta": point.beta, "score": grad,
                "AI": ai, "C": corr, "BLUPs": blups}

    def test_matches_the_dense_path(self, monkeypatch):
        rng = np.random.default_rng(70)
        for n, seed in ((9, 71), (12, 72), (5, 73)):
            dataset = make_dataset(n, 4, seed=seed)
            for structure, draw in structure_zoo(4, seed=seed):
                kappa, resid = draw(rng), float(rng.uniform(0.4, 1.5))
                args = (dataset, structure, kappa, resid)
                spectral = self.evaluate(*args, reml_core._SpectralPoint)
                with monkeypatch.context() as patch:
                    patch.setattr(reml_core, "_is_complete", lambda d: False)
                    dense = self.evaluate(*args, reml_core._PointEvaluation)
                for name, want in dense.items():
                    got, want = np.asarray(spectral[name]), np.asarray(want)
                    scale = max(np.max(np.abs(want)), 1e-300)
                    err = np.max(np.abs(got - want)) / scale
                    assert err < 1e-8, f"{structure.kind}: {name} off by {err:.2e}"

    def test_fit_matches_the_dense_path(self, monkeypatch):
        dist = random_distance(4, seed=74, mean_off=4.0)
        structure = KernelSingleVar(dist)
        dataset = simulated_dataset(structure, [0.3, 1.0], resid_var=0.5, n=30, seed=75)
        spectral = fit(dataset, structure, tol=1e-9)
        monkeypatch.setattr(reml_core, "_is_complete", lambda d: False)
        dense = fit(dataset, structure, tol=1e-9)
        assert spectral.converged and dense.converged
        assert abs(spectral.loglik - dense.loglik) <= 1e-8 * abs(dense.loglik)
        assert np.allclose(spectral.kappa_hat, dense.kappa_hat, rtol=1e-5)
        assert np.isclose(spectral.resid_var_hat, dense.resid_var_hat, rtol=1e-5)
        assert np.allclose(spectral.blup_matrix, dense.blup_matrix, atol=1e-6)


class TestSharedDecomposition:
    """Complete-trial fits on one RelationshipMatrix decompose C^T K C once,
    and equal, bit for bit, fits on a fresh matrix with the same values."""

    @staticmethod
    def count_rotations(monkeypatch):
        calls = []
        rotate = reml_core._contrast_rotation

        def counting(kin):
            calls.append(1)
            return rotate(kin)

        monkeypatch.setattr(reml_core, "_contrast_rotation", counting)
        return calls

    @staticmethod
    def assert_same_fit(got, want):
        for name in ("kappa_hat", "beta_hat", "loglik_trace", "ai_matrix", "blup_matrix"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.resid_var_hat == want.resid_var_hat
        assert got.iterations == want.iterations

    @staticmethod
    def on_fresh_kinship(dataset):
        kin = dataset.kinship
        fresh = RelationshipMatrix(kin.values.copy(), list(kin.labels))
        return Dataset(dataset.records, fresh, dataset.environment_labels)

    def test_kernels_on_one_trial(self, monkeypatch):
        dist = random_distance(4, seed=82, mean_off=4.0)
        dataset = simulated_dataset(
            KernelSingleVar(dist), [0.3, 1.0], resid_var=0.5, n=25, seed=83
        )
        structures = (KernelSingleVar(dist), KernelMultiVar(dist))
        calls = self.count_rotations(monkeypatch)
        shared = [fit(dataset, s) for s in structures]
        assert len(calls) == 1, "kern1 then kernP on one trial decompose K once"
        for structure, got in zip(structures, shared):
            self.assert_same_fit(got, fit(self.on_fresh_kinship(dataset), structure))

    def test_simulated_trials_on_one_kinship(self, monkeypatch):
        dist = random_distance(3, seed=84, mean_off=4.0)
        structure = KernelSingleVar(dist)
        kin = random_kinship(20, seed=85)
        datasets = [
            simulate_met(SimConfig(
                n_genotypes=20, n_markers=80, structure=structure,
                true_params=np.array([0.3, 1.0]), resid_var=0.5, seed=seed,
                kinship=kin,
            )).dataset
            for seed in (86, 87)
        ]
        calls = self.count_rotations(monkeypatch)
        shared = [fit(dataset, structure) for dataset in datasets]
        assert len(calls) == 1, "two trials on one kinship decompose it once"
        for dataset, got in zip(datasets, shared):
            self.assert_same_fit(got, fit(self.on_fresh_kinship(dataset), structure))

    def test_kinship_cannot_change_under_the_cache(self):
        kin = random_kinship(5, seed=88)
        kin._contrast_basis
        # A pickled copy, as a CV worker receives it, stays read-only too.
        for copy in (kin, pickle.loads(pickle.dumps(kin))):
            for array in (copy.values, *copy._contrast_basis):
                with pytest.raises(ValueError):
                    array[0] = 1.0
            with pytest.raises(ValueError):
                copy.values *= 2.0
            with pytest.raises(AttributeError):
                copy.values = np.eye(5)

    def test_reordering_a_kinship_keeps_the_cache_right(self):
        kin = random_kinship(5, seed=89)
        basis = kin._contrast_basis
        assert kin.in_order(list(kin.labels)) is kin, \
            "the same order shares the decomposition"
        flipped = kin.in_order(kin.labels[::-1])
        assert "_contrast_basis" not in vars(flipped), \
            "another order is a new matrix that decomposes afresh"
        assert kin._contrast_basis is basis


class TestPredictCells:
    @staticmethod
    def oracle_blups(result, dataset):
        """Dense conditional means of every cell at the fitted parameters."""
        sigma = result.structure.sigma(result.kappa_hat)
        return dense_cell_blups(
            dataset, sigma, result.resid_var_hat, result.environment_means()
        )

    def test_in_sample_matches_fit_blups(self):
        corr = gaussian_reference_corr(3, seed=43)
        dataset = simulated_dataset(
            CorrSingleVar(corr), [1.0], resid_var=0.5, n=15, seed=44
        )
        result = fit(dataset, CorrSingleVar(corr))
        targets = [(r.genotype, r.environment) for r in dataset.records]
        preds = lookup_cells(result, targets)
        dense_u = self.oracle_blups(result, dataset)
        for pred, gi, ei in zip(preds, dataset.gen_index_array, dataset.env_index_array):
            assert np.isclose(pred.blup, dense_u[ei * dataset.n + gi], atol=1e-10)

        # On the training records of a sparse fit, the lookup into the fit's
        # BLUP matrix equals conditioning on those records, for every cell.
        train = dataset.subset(range(0, dataset.n_records, 3))
        result = fit(train, CorrSingleVar(corr))
        cells = [(g, e) for e in train.environment_labels for g in train.genotype_labels]
        looked_up = lookup_cells(result, cells)
        conditioned = self.oracle_blups(result, train)
        means = result.environment_means()
        assert [(c.genotype, c.environment) for c in looked_up] == cells
        for idx, got in enumerate(looked_up):
            want = conditioned[idx]
            ei = train.environment_labels.index(got.environment)
            assert abs(got.blup - want) < 1e-10
            assert abs(got.fitted - (means[ei] + want)) < 1e-10

    def test_lookup_rejects_unknown_labels(self):
        dataset = make_dataset(4, 2, seed=51)
        result = fit(dataset, MainEffect(2))
        with pytest.raises(UnknownLabelError, match="nobody"):
            lookup_cells(result, [("nobody", "E0")])
        with pytest.raises(UnknownLabelError, match="E9"):
            lookup_cells(result, [(dataset.genotype_labels[0], "E9")])

    def test_matches_joint_normal_partition(self):
        kin = random_kinship(3, seed=45)
        dataset = make_dataset(3, 2, seed=46, kinship=kin, missing={(2, 1)})
        corr = gaussian_reference_corr(2, seed=47)
        result = fit(dataset, CorrSingleVar(corr))
        dense_u = self.oracle_blups(result, dataset)
        gens = dataset.genotype_labels
        envs = dataset.environment_labels
        targets = [(g, e) for e in envs for g in gens]
        preds = lookup_cells(result, targets)
        means = result.environment_means()
        for idx, pred in enumerate(preds):
            assert np.isclose(pred.blup, dense_u[idx], atol=1e-8), \
                f"cell {targets[idx]} disagrees with the partitioned joint normal"
            ei = envs.index(pred.environment)
            assert np.isclose(pred.fitted, means[ei] + dense_u[idx], atol=1e-8)
