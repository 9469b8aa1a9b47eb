"""Tests for the environmental covariate pipeline.

Covers the heat-unit formula, piecewise intercepts, standardization, the
correlation/distance constructions and their algebraic ties, the contract
every labelled square matrix keeps, the one positive-semidefiniteness rule,
blending, and the weather CSV frontend.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from gxe_reml import simulator
from gxe_reml import (
    CorrSingleVar,
    DataError,
    EmptyBinError,
    EnvCorrelationMatrix,
    EnvDistanceMatrix,
    EnvFeatureMatrix,
    GxeRemlError,
    InvalidInputError,
    NumericalError,
    RelationshipMatrix,
    ZeroVarianceError,
    blend_correlation,
    correlation_from_covariance,
    env_correlation,
    env_distance,
    gdd_accumulate,
    gdd_daily,
    piecewise_intercepts,
    process_weather,
    random_correlation,
    standardize_rows,
    weather_to_features,
)
from gxe_reml.env_features import DailyWeatherRecord

from helpers import standardized_features


class TestGddDaily:
    def test_no_caps(self):
        assert gdd_daily(60, 80) == 20.0, "uncapped case is the plain average minus base"

    def test_both_caps(self):
        assert gdd_daily(40, 90) == 18.0, "capped case must use (50 + 86)/2 - 50"

    def test_negative_value_allowed(self):
        assert gdd_daily(45, 48) == -1.0, "cold days may contribute negative heat units"

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            gdd_daily(np.nan, 80)
        with pytest.raises(InvalidInputError):
            gdd_daily(60, np.inf)

    def test_min_above_max_rejected(self):
        with pytest.raises(InvalidInputError):
            gdd_daily(80, 60)

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lo = rng.uniform(30, 80)
            hi = lo + rng.uniform(0, 30)
            d = rng.uniform(0, 5)
            assert gdd_daily(lo + d, hi + d) >= gdd_daily(lo, hi) - 1e-12, \
                "warmer days must never yield fewer heat units"

    def test_constant_once_caps_bind(self):
        assert gdd_daily(45, 90) == gdd_daily(30, 95) == 18.0, \
            "value must be constant once both caps bind"


class TestGddAccumulate:
    def test_two_equal_days(self):
        assert np.array_equal(gdd_accumulate([(60, 80), (60, 80)]), [20.0, 40.0])

    def test_single_capped_day(self):
        assert np.array_equal(gdd_accumulate([(40, 90)]), [18.0])

    def test_negative_day_decrements(self):
        assert np.array_equal(gdd_accumulate([(60, 80), (45, 48)]), [20.0, 19.0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            gdd_accumulate([])


class TestPiecewiseIntercepts:
    def test_one_point_per_bin(self):
        out = piecewise_intercepts([(50, 2.0), (150, 4.0)], 100, (0, 200))
        assert np.array_equal(out, [2.0, 4.0])

    def test_bin_mean_is_least_squares_constant(self):
        out = piecewise_intercepts([(10, 1.0), (90, 3.0)], 100, (0, 100))
        assert np.array_equal(out, [2.0])

    def test_empty_bin_named(self):
        with pytest.raises(EmptyBinError, match=r"\[0, 100\)"):
            piecewise_intercepts([(150, 4.0)], 100, (0, 200))

    def test_points_outside_window_discarded(self):
        out = piecewise_intercepts(
            [(-5, 99.0), (50, 2.0), (150, 4.0), (200, 99.0)], 100, (0, 200)
        )
        assert np.array_equal(out, [2.0, 4.0]), \
            "points at or past hi and below lo must not contribute"

    def test_bad_window_rejected(self):
        with pytest.raises(InvalidInputError):
            piecewise_intercepts([(50, 1.0)], 100, (200, 100))
        with pytest.raises(InvalidInputError):
            piecewise_intercepts([(50, 1.0)], -1, (0, 200))

    @pytest.mark.parametrize("interval, window", [
        (np.inf, (0, 200)), (np.nan, (0, 200)), (100, (0, np.inf)), (100, (np.nan, 200)),
    ])
    def test_non_finite_interval_or_window_named_non_finite(self, interval, window):
        with pytest.raises(InvalidInputError, match="must be finite"):
            piecewise_intercepts([(50, 1.0)], interval, window)


class TestStandardizeRows:
    def test_two_point_row(self):
        feats = standardize_rows(np.array([[1.0, 3.0]]))
        assert np.allclose(feats.values, [[-1.0, 1.0]])

    def test_constant_row_names_variable(self):
        with pytest.raises(ZeroVarianceError, match="width"):
            standardize_rows(np.array([[1.0, 2.0], [5.0, 5.0]]), ["depth", "width"])

    def test_three_point_row(self):
        feats = standardize_rows(np.array([[1.0, 2.0, 3.0]]))
        root = np.sqrt(1.5)
        assert np.allclose(feats.values, [[-root, 0.0, root]], atol=1e-15)

    def test_population_moments(self):
        rng = np.random.default_rng(1)
        feats = standardize_rows(rng.normal(size=(6, 9)) * 40 + 7)
        assert np.allclose(feats.values.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(feats.values.std(axis=1), 1.0, atol=1e-12), \
            "population (divide by p) scaling expected"
        feats.check_standardized()


@pytest.mark.parametrize("call, message", [
    (lambda: EnvFeatureMatrix(np.zeros(3), ["v0"], ["a"]),
     "feature matrix must be two-dimensional"),
    (lambda: EnvFeatureMatrix(np.zeros((2, 3)), ["v0"], ["a", "b", "c"]),
     "feature matrix is 2x3 but has 1 row labels and 3 column labels"),
    (lambda: EnvFeatureMatrix([[0.0, np.nan]], ["v0"], ["a", "b"]),
     "feature matrix contains non-finite entries"),
    (lambda: piecewise_intercepts([(5.0, np.nan)], 10.0, (0.0, 10.0)),
     "points must be finite"),
    (lambda: piecewise_intercepts([(1.0, 1.0)], 3.0, (0.0, 10.0)),
     "window width 10.0 is not a whole number of intervals 3.0"),
    (lambda: standardize_rows(np.zeros(3)),
     "feature matrix must be two-dimensional"),
    (lambda: standardize_rows(np.zeros((2, 1))),
     "at least two environments are required, got 1"),
    (lambda: standardize_rows([[0.0, np.inf]]),
     "feature matrix contains non-finite entries"),
    (lambda: correlation_from_covariance(np.diag([1.0, 0.0])),
     "covariance has a non-positive diagonal entry"),
], ids=["features-ndim", "features-labels", "features-non-finite",
        "points-non-finite", "window-not-whole-intervals", "standardize-ndim",
        "standardize-one-environment", "standardize-non-finite",
        "covariance-diagonal"])
def test_input_checks_name_their_fault(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


class TestEnvCorrelation:
    def test_perfect_anticorrelation(self):
        feats = EnvFeatureMatrix(
            np.array([[-1.0, 1.0], [1.0, -1.0]]), ["a", "b"], ["e1", "e2"]
        )
        corr = env_correlation(feats)
        assert corr.values[0, 1] == -1.0
        assert corr.values[0, 0] == 1.0

    def test_matches_entrywise_dot_products(self):
        feats = standardized_features(20, 4, seed=2)
        corr = env_correlation(feats)
        x = feats.values
        for i in range(4):
            for j in range(4):
                direct = float(np.dot(x[:, i], x[:, j])) / 20.0
                assert abs(corr.values[i, j] - direct) < 1e-12, \
                    f"entry ({i},{j}) deviates from the dot-product formula"

    def test_trace_is_exactly_p(self):
        for p in (2, 3, 5, 8):
            corr = env_correlation(standardized_features(11, p, seed=p))
            assert np.isclose(np.trace(corr.values), p, atol=1e-10), \
                "row standardization must pin the trace at p"

    def test_duplicated_columns_collapse(self):
        # A duplicated environment column survives row standardization when
        # p >= 3; the three entries it touches then coincide exactly.
        raw = np.array([[1.0, 1.0, 4.0], [2.0, 2.0, 8.0], [3.0, 3.0, -1.0]])
        corr = env_correlation(standardize_rows(raw))
        assert np.isclose(corr.values[0, 1], corr.values[0, 0], atol=1e-12)
        assert np.isclose(corr.values[1, 1], corr.values[0, 0], atol=1e-12)

    def test_unstandardized_rejected(self):
        feats = EnvFeatureMatrix(
            np.array([[1.0, 2.0], [0.0, 1.0]]), ["a", "b"], ["e1", "e2"]
        )
        with pytest.raises(InvalidInputError):
            env_correlation(feats)

    def test_row_permutation_invariance(self):
        feats = standardized_features(9, 4, seed=3)
        shuffled = EnvFeatureMatrix(
            feats.values[::-1].copy(),
            feats.variable_labels[::-1],
            feats.environment_labels,
        )
        assert np.allclose(
            env_correlation(feats).values, env_correlation(shuffled).values
        ), "variable order must not matter"

    def test_column_permutation_equivariance(self):
        feats = standardized_features(9, 4, seed=4)
        perm = [2, 0, 3, 1]
        swapped = EnvFeatureMatrix(
            feats.values[:, perm].copy(),
            feats.variable_labels,
            [feats.environment_labels[j] for j in perm],
        )
        base = env_correlation(feats).values
        assert np.allclose(
            env_correlation(swapped).values, base[np.ix_(perm, perm)]
        ), "environment order must permute rows and columns together"


class TestEnvDistance:
    def test_duplicated_columns_give_zero(self):
        raw = np.array([[1.0, 1.0, 4.0], [2.0, 2.0, 8.0]])
        dist = env_distance(standardize_rows(raw))
        assert dist.values[0, 1] == 0.0

    def test_unit_basis_columns(self):
        feats = EnvFeatureMatrix(
            np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"], ["e1", "e2"]
        )
        assert env_distance(feats).values[0, 1] == 2.0

    def test_identity_with_correlation(self):
        # For standardized rows, D_ij = q * (Chat_ii + Chat_jj - 2 Chat_ij);
        # with the trace pinned at p this reduces to 2q(1 - Chat_ij) only
        # when the diagonal is exactly 1 (always true at p = 2).
        q, p = 13, 5
        feats = standardized_features(q, p, seed=5)
        c = env_correlation(feats).values
        d = env_distance(feats).values
        expected = q * (np.add.outer(np.diag(c), np.diag(c)) - 2.0 * c)
        np.fill_diagonal(expected, 0.0)
        assert np.max(np.abs(d - expected)) < 1e-10

    def test_two_environment_identity(self):
        q = 7
        feats = standardized_features(q, 2, seed=6)
        c = env_correlation(feats).values
        d = env_distance(feats).values
        assert abs(d[0, 1] - 2.0 * q * (1.0 - c[0, 1])) < 1e-10, \
            "at p = 2 the diagonal is exactly 1 and the classic tie holds"

    def test_zero_diagonal_nonnegative(self):
        dist = env_distance(standardized_features(8, 6, seed=7))
        assert np.array_equal(np.diag(dist.values), np.zeros(6))
        assert np.all(dist.values >= 0.0)

    @pytest.mark.parametrize("values, message", [
        ([[0.0, 1.0], [1.0, 1e-9]], "distance matrix diagonal must be zero"),
        ([[0.0, -1e-9], [-1e-9, 0.0]], "distance matrix contains negative entries"),
    ], ids=["diagonal", "negative"])
    def test_beyond_round_off_rejected(self, values, message):
        with pytest.raises(InvalidInputError) as info:
            EnvDistanceMatrix(np.array(values), ["a", "b"])
        assert str(info.value) == message


# (class, its error, what its messages call it, a valid 3 x 3 instance's values)
LABELED = [
    (RelationshipMatrix, DataError, "relationship matrix",
     [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
    (EnvCorrelationMatrix, InvalidInputError, "correlation matrix",
     [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]),
    (EnvDistanceMatrix, InvalidInputError, "distance matrix",
     [[0.0, 1.0, 4.0], [1.0, 0.0, 2.0], [4.0, 2.0, 0.0]]),
]


def _asymmetric(v):
    v[0, 1] += 1e-6
    return v


def _non_finite(v):
    v[0, 1] = v[1, 0] = np.nan
    return v


@pytest.mark.parametrize("cls, error, what, good", LABELED,
                         ids=[case[0].__name__ for case in LABELED])
class TestLabeledMatrixContract:
    LABELS = ["a", "b", "c"]

    @pytest.mark.parametrize("values, labels, wording", [
        (lambda v: v[:2], LABELS, "must be square"),
        (lambda v: v[:0, :0], [], "has no rows"),
        (lambda v: v, LABELS[:2], "has 3 rows but 2 labels"),
        (lambda v: v, ["a", "b", "a"], "labels contain duplicates"),
        (_non_finite, LABELS, "non-finite entries"),
        (_asymmetric, LABELS, "asymmetric beyond tolerance"),
    ], ids=["square", "empty", "label-count", "duplicate", "finite", "symmetric"])
    def test_each_check_raises_the_type_error(self, cls, error, what, good,
                                              values, labels, wording):
        with pytest.raises(GxeRemlError) as exc:
            cls(values(np.array(good)), labels)
        assert type(exc.value) is error
        assert str(exc.value).startswith(f"{what} ") and wording in str(exc.value)

    def test_read_only_and_frozen_after_pickling(self, cls, error, what, good):
        matrix = cls(np.array(good), self.LABELS)
        for copy in (matrix, pickle.loads(pickle.dumps(matrix))):
            with pytest.raises(ValueError):
                copy.values[0, 1] = 9.0
            for name in ("values", "labels"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(copy, name, getattr(copy, name))
        assert np.array_equal(matrix.values, good)

    def test_in_order_permutes_rows_and_columns(self, cls, error, what, good):
        matrix = cls(np.array(good), self.LABELS)
        permuted = matrix.in_order(["c", "a", "b"])
        assert type(permuted) is cls and permuted.labels == ["c", "a", "b"]
        order = [2, 0, 1]
        assert np.array_equal(permuted.values, np.array(good)[np.ix_(order, order)])
        assert not permuted.values.flags.writeable
        with pytest.raises(error, match=what):
            matrix.in_order(["a", "b", "d"])


def _kinship(values):
    return RelationshipMatrix(values, ["a", "b", "c"]).values


def _correlation(values):
    corr = EnvCorrelationMatrix(values, ["a", "b", "c"])
    return CorrSingleVar(corr).sigma(np.array([1.0]))


def _truth_root(values):
    root = simulator._eigen_root(values, "truth covariance")
    return root @ root.T


@pytest.mark.parametrize("decide, error, what, clips", [
    (_kinship, DataError, "relationship matrix", False),
    (_correlation, InvalidInputError, "correlation matrix", True),
    (_truth_root, NumericalError, "truth covariance", False),
], ids=["kinship", "correlation", "simulated-truth"])
class TestOnePsdRule:
    """Every positive-semidefiniteness decision in the package lets the
    smallest eigenvalue reach -1e-8 times the largest, and no further."""

    @staticmethod
    def nudged(ratio):
        """A 3 x 3 matrix with eigenvalues ratio * 2, 1 and 2."""
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
        v = (q * np.array([ratio * 2.0, 1.0, 2.0])) @ q.T
        return 0.5 * (v + v.T)

    def test_accepts_round_off_inside_the_tolerance(self, decide, error, what,
                                                    clips, caplog):
        values = self.nudged(-0.5e-8)
        with caplog.at_level("WARNING", logger="gxe_reml"):
            used = decide(values)
        assert np.allclose(used, values, rtol=0.0, atol=1e-7)
        warned = [rec for rec in caplog.records if "clipped" in rec.getMessage()]
        assert len(warned) == clips
        if clips:
            assert np.linalg.eigvalsh(used)[0] >= -1e-15

    def test_rejects_beyond_it_naming_both_eigenvalues(self, decide, error,
                                                       what, clips):
        with pytest.raises(GxeRemlError) as exc:
            decide(self.nudged(-2e-8))
        assert type(exc.value) is error
        assert str(exc.value) == (
            f"{what} is not positive semidefinite "
            f"(min eigenvalue -4.000e-08, max 2.000e+00)"
        )


class TestBlendCorrelation:
    def _pair(self, p=4, seed=8):
        truth = env_correlation(standardized_features(12, p, seed))
        noise = random_correlation(p, seed + 1, labels=truth.labels)
        return truth, noise

    def test_endpoints(self):
        truth, noise = self._pair()
        assert np.array_equal(blend_correlation(truth, noise, 0.0).values, truth.values)
        assert np.array_equal(blend_correlation(truth, noise, 1.0).values, noise.values)

    def test_midpoint_entry(self):
        a = EnvCorrelationMatrix(np.array([[1.0, 0.8], [0.8, 1.0]]), ["x", "y"])
        b = EnvCorrelationMatrix(np.array([[1.0, 0.2], [0.2, 1.0]]), ["x", "y"])
        assert blend_correlation(a, b, 0.5).values[0, 1] == 0.5

    def test_preserves_symmetry_diag_psd(self):
        truth, noise = self._pair(p=5, seed=9)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = blend_correlation(truth, noise, lam)
            assert np.array_equal(out.values, out.values.T)
            eigs = np.linalg.eigvalsh(out.values)
            assert eigs[0] >= -1e-10 * max(eigs[-1], 1.0), \
                f"convex combination must stay PSD at lambda={lam}"

    def test_exact_unit_diagonal_kept(self):
        p = 3
        noise = random_correlation(p, 10)
        blended = blend_correlation(
            random_correlation(p, 11, labels=noise.labels), noise, 0.3
        )
        assert np.array_equal(np.diag(blended.values), np.ones(p)), \
            "unit diagonals on both inputs must survive blending exactly"

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32])
    def test_unit_diagonal_exact_for_any_lambda_type(self, kind):
        # (1 - lam) + lam is exactly 1 in double precision, but not when
        # 1 - lam is rounded to single precision first.
        p = 4
        noise = random_correlation(p, 13)
        corr = random_correlation(p, 14, labels=noise.labels)
        draws = np.random.default_rng(15).uniform(0.0, 1.0, 1000)
        edges = [0.0, 1e-300, 1e-8, 0.5, np.nextafter(0.5, 0.0), 1.0 - 1e-16, 1.0]
        for lam in [kind(v) for v in np.concatenate([draws, edges])]:
            blended = blend_correlation(corr, noise, lam)
            assert np.all(np.diag(blended.values) == 1.0), f"lambda {lam!r}"

    def test_result_is_read_only(self):
        truth, noise = self._pair()
        blended = blend_correlation(truth, noise, 0.5)
        assert type(blended) is EnvCorrelationMatrix
        with pytest.raises(ValueError):
            blended.values[0, 1] = 0.0

    def test_lambda_range_checked(self):
        truth, noise = self._pair()
        for lam in (-0.1, 1.1, np.nan):
            with pytest.raises(InvalidInputError):
                blend_correlation(truth, noise, lam)

    def test_label_mismatch_rejected(self):
        truth, _ = self._pair()
        other = random_correlation(truth.p, 12)
        with pytest.raises(InvalidInputError):
            blend_correlation(truth, other, 0.5)


class TestRandomCorrelation:
    def test_deterministic(self):
        a = random_correlation(5, seed=13)
        b = random_correlation(5, seed=13)
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        a = random_correlation(5, seed=13)
        b = random_correlation(5, seed=14)
        assert not np.array_equal(a.values, b.values)

    def test_psd_many_seeds(self):
        for seed in range(30):
            values = random_correlation(4, seed).values
            eigs = np.linalg.eigvalsh(values)
            assert eigs[0] >= -1e-10, f"seed {seed} produced an indefinite matrix"

    def test_unit_diagonal_exact(self):
        assert np.array_equal(np.diag(random_correlation(5, 15).values), np.ones(5))

    def test_small_p_rejected(self):
        with pytest.raises(InvalidInputError):
            random_correlation(1, seed=0)


def _weather(env, days, base=60.0, spread=20.0, extra=None):
    out = []
    for d in days:
        cov = {"rain": float(extra[d - 1])} if extra is not None else {}
        out.append(
            DailyWeatherRecord(env, d, base + 0.1 * d, base + spread + 0.1 * d, cov)
        )
    return out


class TestWeatherPipeline:
    def test_feature_rows_per_variable_and_bin(self):
        days = range(1, 41)
        records = (
            _weather("E1", days)
            + _weather("E2", days, base=55.0)
            + _weather("E3", days, base=65.0, spread=25.0)
        )
        features, labels, envs = weather_to_features(
            records, ["t_min", "t_max"], 100.0, (0.0, 400.0)
        )
        assert features.shape == (8, 3), "2 variables x 4 bins expected"
        assert envs == ["E1", "E2", "E3"]
        assert labels[0].startswith("t_min@")

    def test_covariate_columns_resolved(self):
        rng = np.random.default_rng(16)
        days = range(1, 41)
        rain = rng.uniform(0, 1, 40)
        records = _weather("E1", days, extra=rain) + _weather(
            "E2", days, base=55.0, extra=rain * 2
        )
        features, labels, _ = weather_to_features(
            records, ["rain"], 200.0, (0.0, 400.0)
        )
        assert features.shape == (2, 2)
        assert all(lab.startswith("rain@") for lab in labels)

    @pytest.mark.parametrize("n_days, variables, error, message", [
        (0, ["t_min"], DataError, "no weather records supplied"),
        (10, [], InvalidInputError, "at least one variable is required"),
    ], ids=["no-records", "no-variables"])
    def test_nothing_to_summarise(self, n_days, variables, error, message):
        records = _weather("E1", range(1, n_days + 1))
        with pytest.raises(error) as info:
            weather_to_features(records, variables, 100.0, (0.0, 100.0))
        assert type(info.value) is error and str(info.value) == message

    def test_unknown_variable_rejected(self):
        records = _weather("E1", range(1, 11))
        with pytest.raises(DataError, match="snow"):
            weather_to_features(records, ["snow"], 100.0, (0.0, 100.0))

    @pytest.mark.parametrize("variables", [["rain", "rain"], ["t_min", "rain", "t_min"]])
    def test_repeated_variable_rejected(self, variables):
        records = _weather("E1", range(1, 11), extra=np.ones(10))
        with pytest.raises(InvalidInputError) as info:
            weather_to_features(records, variables, 100.0, (0.0, 100.0))
        assert str(info.value) == f"variable {variables[-1]!r} is repeated"

    def test_day_order_enforced(self):
        records = _weather("E1", [1, 2, 2])
        with pytest.raises(DataError):
            weather_to_features(records, ["t_min"], 100.0, (0.0, 100.0))

    def test_empty_bin_names_environment(self):
        records = _weather("E1", range(1, 3))
        with pytest.raises(EmptyBinError, match="E1"):
            weather_to_features(records, ["t_min"], 100.0, (0.0, 400.0))

    @pytest.mark.parametrize("t_min, rain, named", [
        (np.nan, 0.5, "temperatures must be finite, got t_min nan, t_max 80.0"),
        (60.0, np.inf, "'rain' must be finite, got inf"),
    ], ids=["temperature", "covariate"])
    def test_non_finite_value_names_environment_and_day(self, t_min, rain, named):
        records = (_weather("E1", range(1, 11), extra=np.ones(10))
                   + _weather("E2", range(1, 11), extra=np.ones(10)))
        records[12] = DailyWeatherRecord("E2", 3, t_min, 80.0, {"rain": rain})
        with pytest.raises(DataError) as info:
            weather_to_features(records, ["rain"], 100.0, (0.0, 100.0))
        assert str(info.value) == f"environment 'E2', day 3: {named}"

    def test_every_record_checked_before_any_binning(self):
        # E1 leaves bins empty, but E2's bad day comes first: no binning
        # starts until every record has passed its checks.
        records = _weather("E1", range(1, 3)) + _weather("E2", range(1, 41))
        records[3] = DailyWeatherRecord("E2", 2, 90.0, 70.0)
        with pytest.raises(DataError) as info:
            weather_to_features(records, ["t_min"], 100.0, (0.0, 400.0))
        assert type(info.value) is DataError
        assert str(info.value) == "environment 'E2', day 2: t_min 90.0 exceeds t_max 70.0"

    def test_process_weather_outputs_agree(self):
        days = range(1, 41)
        records = (
            _weather("E1", days)
            + _weather("E2", days, base=55.0)
            + _weather("E3", days, base=65.0, spread=25.0)
        )
        features, corr, dist = process_weather(
            records, ["t_min", "t_max"], 100.0, (0.0, 400.0)
        )
        features.check_standardized()
        assert corr.labels == dist.labels == ["E1", "E2", "E3"]
        q = features.q
        c = corr.values
        expected = q * (np.add.outer(np.diag(c), np.diag(c)) - 2.0 * c)
        np.fill_diagonal(expected, 0.0)
        assert np.max(np.abs(dist.values - expected)) < 1e-10
