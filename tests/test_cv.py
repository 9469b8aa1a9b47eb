"""Tests for sparse-testing splits, accuracy scoring, and the CV driver."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from gxe_reml import cv, reml_core
from gxe_reml import (
    CorrSingleVar,
    CvModel,
    EnvCorrelationMatrix,
    InvalidInputError,
    KernelAveraging,
    SimConfig,
    SparseDesign,
    run_cv,
    sparse_split,
    within_env_accuracy,
)

from helpers import (
    cv_series,
    cv_summary,
    gaussian_reference_corr,
    make_dataset,
    random_distance,
    random_kinship,
)


def design(n_checks=5, envs_per_variety=2, replicates=1, seed=0):
    return SparseDesign(
        n_checks=n_checks,
        envs_per_variety=envs_per_variety,
        replicates=replicates,
        seed=seed,
    )


def tiny_sim_config(seed=0, n=20, p=3):
    corr = gaussian_reference_corr(p, seed=seed + 100)
    return SimConfig(
        n_genotypes=n,
        n_markers=80,
        structure=CorrSingleVar(corr),
        true_params=np.array([1.0]),
        resid_var=0.5,
        seed=seed,
        kinship=random_kinship(n, seed + 200),
    )


class TestSparseSplit:
    def test_train_cardinality_small_design(self):
        # 5 checks in all 4 environments plus 272 varieties in 2 each.
        dataset = make_dataset(277, 4, seed=1)
        train, test_cells = sparse_split(dataset, design(5, 2, seed=3), 0)
        assert train.n_records == 5 * 4 + 272 * 2 == 564
        assert len(test_cells) == 277 * 4 - 564

    def test_train_cardinality_large_design(self):
        dataset = make_dataset(246, 15, seed=2)
        train, test_cells = sparse_split(dataset, design(6, 3, seed=4), 0)
        assert train.n_records == 6 * 15 + 240 * 3 == 810
        assert len(test_cells) == 246 * 15 - 810

    def test_checks_complete_and_varieties_thin(self):
        dataset = make_dataset(40, 5, seed=5)
        train, _ = sparse_split(dataset, design(3, 2, seed=6), 0)
        counts = Counter(rec.genotype for rec in train.records)
        assert sorted(counts.values()).count(5) == 3, \
            "exactly the check genotypes keep all environments"
        assert all(c in (2, 5) for c in counts.values())
        assert len(counts) == 40, "every genotype keeps at least one record"

    def test_partition_is_exact(self):
        dataset = make_dataset(12, 4, seed=7)
        train, test_cells = sparse_split(dataset, design(2, 2, seed=8), 0)
        train_cells = {(r.genotype, r.environment) for r in train.records}
        all_cells = {(r.genotype, r.environment) for r in dataset.records}
        assert train_cells.isdisjoint(test_cells)
        assert train_cells | set(test_cells) == all_cells
        assert len(test_cells) == len(set(test_cells))

    def test_train_keeps_dataset_order(self):
        dataset = make_dataset(12, 4, seed=9)
        train, _ = sparse_split(dataset, design(2, 2, seed=10), 0)
        it = iter(dataset.records)
        for rec in train.records:
            while next(it) is not rec:
                pass

    def test_reproducible_and_replicate_sensitive(self):
        dataset = make_dataset(25, 4, seed=11)
        a_train, a_test = sparse_split(dataset, design(3, 2, seed=12), 5)
        b_train, b_test = sparse_split(dataset, design(3, 2, seed=12), 5)
        c_train, c_test = sparse_split(dataset, design(3, 2, seed=12), 6)
        assert a_test == b_test
        assert np.array_equal(a_train.values, b_train.values)
        assert a_test != c_test, "replicates must draw distinct splits"

    def test_missing_cells_never_enter_test(self):
        missing = {(4, 0), (4, 3), (7, 1)}
        dataset = make_dataset(10, 4, seed=13, missing=missing)
        train, test_cells = sparse_split(dataset, design(2, 2, seed=14), 0)
        observed = {(r.genotype, r.environment) for r in dataset.records}
        assert set(test_cells) <= observed
        counts = Counter(rec.genotype for rec in train.records)
        assert counts[dataset.genotype_labels[4]] == 2, \
            "a variety observed in only 2 environments keeps both"

    def test_envs_per_variety_must_leave_test_data(self):
        dataset = make_dataset(10, 3, seed=15)
        with pytest.raises(InvalidInputError, match="envs_per_variety"):
            sparse_split(dataset, design(2, 3, seed=16), 0)

    def test_too_few_complete_genotypes_for_checks(self):
        missing = {(g, g % 3) for g in range(4)}
        dataset = make_dataset(6, 3, seed=17, missing=missing)
        with pytest.raises(InvalidInputError, match="observed in every environment"):
            sparse_split(dataset, design(3, 1, seed=18), 0)

    def test_variety_with_too_few_environments(self):
        missing = {(4, 0), (4, 1), (4, 2)}
        dataset = make_dataset(8, 4, seed=19, missing=missing)
        with pytest.raises(InvalidInputError) as err:
            sparse_split(dataset, design(2, 2, seed=20), 0)
        assert dataset.genotype_labels[4] in str(err.value)

    def test_design_field_validation(self):
        for kwargs in (
            {"n_checks": 0},
            {"envs_per_variety": 0},
            {"replicates": 0},
        ):
            with pytest.raises(InvalidInputError):
                design(**kwargs)


class TestWithinEnvAccuracy:
    def test_perfect_prediction(self):
        cells = {("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0}
        pearson, rmse = within_env_accuracy(cells, dict(cells))
        assert pearson == pytest.approx(1.0, abs=1e-12)
        assert rmse == 0.0

    def test_anti_prediction(self):
        truth = {("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0}
        predicted = {cell: -v for cell, v in truth.items()}
        pearson, _ = within_env_accuracy(predicted, truth)
        assert pearson == pytest.approx(-1.0, abs=1e-12)

    def test_hand_worked_two_environments(self):
        # Env A: pred (1,2,4) vs truth (2,1,3) gives r = sqrt(3/7), RMSE 1.
        # Env B: pred (0,1) vs truth (1,3) gives r = 1, RMSE sqrt(5/2).
        predicted = {
            ("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0,
            ("g1", "B"): 0.0, ("g2", "B"): 1.0,
        }
        truth = {
            ("g1", "A"): 2.0, ("g2", "A"): 1.0, ("g3", "A"): 3.0,
            ("g1", "B"): 1.0, ("g2", "B"): 3.0,
        }
        pearson, rmse = within_env_accuracy(predicted, truth)
        assert pearson == pytest.approx((math.sqrt(3 / 7) + 1.0) / 2.0, abs=1e-12)
        assert rmse == pytest.approx((1.0 + math.sqrt(2.5)) / 2.0, abs=1e-12)

    def test_zero_variance_env_excluded_from_pearson(self, caplog):
        predicted = {
            ("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0,
            ("g1", "B"): 5.0, ("g2", "B"): 5.0,
        }
        truth = {
            ("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0,
            ("g1", "B"): 1.0, ("g2", "B"): 3.0,
        }
        with caplog.at_level("INFO", logger="gxe_reml.cv"):
            pearson, rmse = within_env_accuracy(predicted, truth)
        assert pearson == pytest.approx(1.0, abs=1e-12), \
            "the constant-prediction environment must not drag the average"
        rmse_b = math.sqrt((16.0 + 4.0) / 2.0)
        assert rmse == pytest.approx((0.0 + rmse_b) / 2.0, abs=1e-12), \
            "RMSE still counts the excluded environment"
        assert any("excluded" in rec.message for rec in caplog.records)

    def test_single_cell_env_excluded_from_pearson(self):
        predicted = {
            ("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0,
            ("g1", "B"): 0.0,
        }
        truth = {
            ("g1", "A"): 1.0, ("g2", "A"): 2.0, ("g3", "A"): 4.0,
            ("g1", "B"): 2.0,
        }
        pearson, rmse = within_env_accuracy(predicted, truth)
        assert pearson == pytest.approx(1.0, abs=1e-12)
        assert rmse == pytest.approx((0.0 + 2.0) / 2.0, abs=1e-12)

    def test_no_scorable_environment_gives_nan(self):
        predicted = {("g1", "A"): 0.0}
        truth = {("g1", "A"): 3.0}
        pearson, rmse = within_env_accuracy(predicted, truth)
        assert math.isnan(pearson)
        assert rmse == pytest.approx(3.0)

    def test_cell_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            within_env_accuracy({("g1", "A"): 1.0}, {("g2", "A"): 1.0})
        with pytest.raises(InvalidInputError):
            within_env_accuracy({}, {})


def strip(report):
    """Every row field but the timing."""
    return [
        (r.model, r.replicate, r.lam, r.mean_pearson, r.mean_rmse, r.converged)
        for r in report
    ]


class TestRunCv:
    def test_row_layout_and_summary(self):
        report = run_cv(
            ["cor1", "main"],
            design(2, 1, replicates=2, seed=30),
            sim_config=tiny_sim_config(seed=31),
            lambdas=[0.0, 0.5],
        )
        key = Counter((r.model, r.lam) for r in report)
        assert key == {
            ("cor1", 0.0): 2,
            ("cor1", 0.5): 2,
            ("main", 0.0): 2,
        }, "correlation models fan out over lambda, others record lambda 0"
        assert all(np.isfinite(r.mean_rmse) for r in report if r.converged)
        assert all(r.fit_seconds >= 0.0 for r in report)
        summary = {(s.model, s.lam): s for s in cv_summary(report)}
        assert set(summary) == set(key)
        for s in summary.values():
            assert s.n_converged + s.n_failed == 2
            if s.n_converged:
                assert np.isfinite(s.mean_rmse) and np.isfinite(s.median_rmse)

    def test_deterministic_across_runs_and_jobs(self):
        kwargs = dict(
            models=["cor1"],
            design=design(2, 1, replicates=3, seed=32),
            sim_config=tiny_sim_config(seed=33),
            lambdas=[0.0, 0.75],
        )
        a = run_cv(**kwargs)
        b = run_cv(**kwargs)
        c = run_cv(**kwargs, jobs=2)
        assert strip(a) == strip(b), "repeated runs must agree exactly"
        assert strip(a) == strip(c), "worker count must not change results"

    def test_correlation_labels_may_come_in_another_order(self):
        # The blend noise is drawn in the dataset's environment order; a
        # correlation matrix read in another order must be reordered first.
        corr = gaussian_reference_corr(3, seed=144)
        reversed_corr = EnvCorrelationMatrix(corr.values[::-1, ::-1], corr.labels[::-1])
        kwargs = dict(
            models=["cor1"],
            design=design(2, 1, replicates=2, seed=45),
            sim_config=tiny_sim_config(seed=44),
            lambdas=[0.0, 0.75],
        )
        in_order = run_cv(**kwargs, corr=corr)
        assert strip(run_cv(**kwargs, corr=reversed_corr)) == strip(in_order)
        assert len(in_order) == 4

    def test_covariance_factored_only_inside_fit(self, monkeypatch):
        inside_fit = []
        factored_inside = []
        real_factor = reml_core._factor_covariance
        real_fit = cv.fit

        def recording_factor(*args, **kwargs):
            factored_inside.append(bool(inside_fit))
            return real_factor(*args, **kwargs)

        def tracking_fit(*args, **kwargs):
            inside_fit.append(True)
            try:
                return real_fit(*args, **kwargs)
            finally:
                inside_fit.pop()

        monkeypatch.setattr(reml_core, "_factor_covariance", recording_factor)
        monkeypatch.setattr(cv, "fit", tracking_fit)
        report = run_cv(
            ["cor1", "main"],
            design(2, 1, replicates=2, seed=35),
            sim_config=tiny_sim_config(seed=36),
            jobs=1,
        )
        assert len(report) == 4
        assert factored_inside and all(factored_inside), \
            "scoring held-out cells must reuse the fit's BLUPs, not refactor V"

    def test_series_orders_converged_rows(self):
        report = run_cv(
            ["cor1"],
            design(2, 1, replicates=3, seed=34),
            sim_config=tiny_sim_config(seed=35),
        )
        series = cv_series(report, "cor1", 0.0)
        by_hand = [
            r.mean_pearson
            for r in sorted(report, key=lambda r: r.replicate)
            if r.converged
        ]
        assert series.tolist() == by_hand

    def test_dataset_mode_scores_held_out_values(self):
        dataset = make_dataset(15, 3, seed=36)
        report = run_cv(
            ["main"],
            design(2, 1, replicates=2, seed=37),
            dataset=dataset,
        )
        assert len(report) == 2
        assert all(np.isfinite(r.mean_rmse) for r in report)

    def test_max_iter_one_counts_as_failed(self):
        report = run_cv(
            ["cor1"],
            design(2, 1, replicates=2, seed=38),
            sim_config=tiny_sim_config(seed=39),
            max_iter=1,
        )
        assert all(not r.converged for r in report)
        (summary,) = cv_summary(report)
        assert summary.n_converged == 0 and summary.n_failed == 2
        assert math.isnan(summary.mean_pearson) and math.isnan(summary.mean_rmse)

    def test_simulation_truth_supplies_correlation(self):
        # cor1 with no explicit corr: the truth covariance is rescaled to a
        # correlation matrix, which for a single-variance truth is its own
        # correlation matrix.
        report = run_cv(
            ["cor1"],
            design(2, 1, replicates=1, seed=40),
            sim_config=tiny_sim_config(seed=41),
        )
        assert report[0].converged

    def test_kernel_averaging_truth_supplies_distances(self):
        # Like kern1 and kernP, a ka truth lends its distances to the kernel
        # models when no dist is given.
        config = dataclasses.replace(
            tiny_sim_config(seed=48),
            structure=KernelAveraging(random_distance(3, seed=47), grid=[0.2, 2.0]),
            true_params=np.array([0.6, 0.4]),
        )
        report = run_cv(["kern1", "ka"], design(2, 1, replicates=1, seed=49),
                        sim_config=config)
        assert [r.model for r in report] == ["kern1", "ka"]

    def test_kernel_model_needs_distances(self):
        with pytest.raises(InvalidInputError, match="dist"):
            run_cv(
                ["kern1"],
                design(2, 1, replicates=1, seed=42),
                sim_config=tiny_sim_config(seed=43),
            )

    def test_input_validation(self):
        d = design(2, 1, replicates=1, seed=44)
        config = tiny_sim_config(seed=45)
        dataset = make_dataset(10, 3, seed=46)
        with pytest.raises(InvalidInputError, match="exactly one"):
            run_cv(["main"], d, sim_config=config, dataset=dataset)
        with pytest.raises(InvalidInputError, match="exactly one"):
            run_cv(["main"], d)
        with pytest.raises(InvalidInputError, match="at least one model"):
            run_cv([], d, sim_config=config)
        with pytest.raises(InvalidInputError, match="unique"):
            run_cv(["main", "main"], d, sim_config=config)
        with pytest.raises(InvalidInputError, match="lambda"):
            run_cv(["cor1"], d, sim_config=config, lambdas=[1.5])
        with pytest.raises(InvalidInputError, match="corr"):
            run_cv(["cor1"], d, dataset=dataset)
        with pytest.raises(InvalidInputError):
            CvModel(label="x", kind="fancy")
