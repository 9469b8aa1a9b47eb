"""Tests for the covariance structures and their analytic gradients.

The central oracle is the entrywise central finite difference of
Sigma(kappa), run for every structure kind over seeded random parameter
draws; frozen hand values pin the simple cases.
"""

import numpy as np
import pytest

from gxe_reml import (
    CorrMultiVar,
    CorrSingleVar,
    DiagonalVariance,
    EnvCorrelationMatrix,
    EnvDistanceMatrix,
    InvalidInputError,
    KernelAveraging,
    KernelMultiVar,
    KernelSingleVar,
    MainEffect,
    STRUCTURE_KINDS,
    average_kernel,
    build_structure,
    gaussian_kernel,
    mean_offdiag,
)
from gxe_reml.variance_structures import structure_class

from helpers import gaussian_reference_corr, random_distance, structure_zoo


def fd_sigma_derivs(structure, kappa):
    """Central finite differences of Sigma, one matrix per parameter."""
    out = []
    for i in range(structure.n_params):
        h = 1e-6 * max(1.0, abs(kappa[i]))
        up = kappa.copy()
        dn = kappa.copy()
        up[i] += h
        dn[i] -= h
        out.append((structure.sigma(up) - structure.sigma(dn)) / (2.0 * h))
    return out


class TestGaussianKernel:
    def test_small_bandwidth_all_ones(self):
        dist = random_distance(4, seed=0, mean_off=3.0)
        kern = gaussian_kernel(dist, 1e-12)
        assert np.max(np.abs(kern - 1.0)) < 1e-9, \
            "tiny bandwidths must approach the all-ones matrix"

    def test_half_at_log_two(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.isclose(gaussian_kernel(d, np.log(2.0))[0, 1], 0.5)

    def test_huge_bandwidth_identity(self):
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        kern = gaussian_kernel(d, 1e6)
        assert kern[0, 1] < 1e-300, "off-diagonals must collapse to zero"
        assert kern[0, 0] == 1.0

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(InvalidInputError):
            gaussian_kernel(np.zeros((2, 2)), -0.5)

    def test_unit_diagonal_exact(self):
        dist = random_distance(5, seed=1)
        assert np.array_equal(np.diag(gaussian_kernel(dist, 0.7)), np.ones(5))


class TestEvaluateHandValues:
    def test_cor_single_var_identity(self):
        corr = EnvCorrelationMatrix(np.eye(2), ["a", "b"])
        structure, kappa = CorrSingleVar(corr), np.array([2.0])
        assert np.array_equal(structure.sigma(kappa), 2.0 * np.eye(2))
        assert np.array_equal(structure.derivs(kappa)[0], np.eye(2))

    def test_cor_multi_var_entry(self):
        corr = EnvCorrelationMatrix(
            np.array([[1.0, 0.5], [0.5, 1.0]]), ["a", "b"]
        )
        sigma = CorrMultiVar(corr).sigma(np.array([1.0, 4.0]))
        assert np.allclose(sigma, [[1.0, 1.0], [1.0, 4.0]]), \
            "off-diagonal must be s_1 * s_2 * C_12 = 1 * 2 * 0.5"

    def test_main_effect_is_scaled_ones(self):
        structure, kappa = MainEffect(3), np.array([1.5])
        assert np.array_equal(structure.sigma(kappa), 1.5 * np.ones((3, 3)))
        assert np.array_equal(structure.derivs(kappa)[0], np.ones((3, 3)))

    def test_diagonal_basis_derivatives(self):
        structure, kappa = DiagonalVariance(3), np.array([1.0, 2.0, 3.0])
        assert np.array_equal(structure.sigma(kappa), np.diag([1.0, 2.0, 3.0]))
        derivs = structure.derivs(kappa)
        for i in range(3):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            assert np.array_equal(derivs[i], expected)

    def test_kernel_single_var_deriv_forms(self):
        dist = random_distance(3, seed=2, mean_off=2.0)
        theta, var = 0.4, 1.7
        structure, kappa = KernelSingleVar(dist), np.array([theta, var])
        kern = np.exp(-theta * dist.values)
        assert np.allclose(structure.sigma(kappa), var * kern)
        derivs = structure.derivs(kappa)
        assert np.allclose(derivs[0], -var * dist.values * kern)
        assert np.allclose(derivs[1], kern)

    def test_corr_multi_var_deriv_entries(self):
        corr = gaussian_reference_corr(3, seed=3)
        kappa = np.array([4.0, 1.0, 0.25])
        s = np.sqrt(kappa)
        d0 = CorrMultiVar(corr).derivs(kappa)[0]
        assert d0[0, 0] == corr.values[0, 0]
        assert np.isclose(d0[0, 1], 0.5 * s[1] / s[0] * corr.values[0, 1])
        assert d0[1, 2] == 0.0, "entries not touching parameter 0 must vanish"


class TestFiniteDifferenceOracle:
    def test_all_kinds_match(self):
        # A stable seed per kind: str hashes change from process to process.
        for index, (structure, draw) in enumerate(structure_zoo(p=4, seed=4)):
            rng = np.random.default_rng(index)
            for _ in range(20):
                kappa = draw(rng)
                analytic = structure.derivs(kappa)
                numeric = fd_sigma_derivs(structure, kappa)
                for i, (a, f) in enumerate(zip(analytic, numeric)):
                    scale = max(1.0, float(np.max(np.abs(a))))
                    err = float(np.max(np.abs(a - f))) / scale
                    assert err < 1e-5, (
                        f"{structure.kind} parameter "
                        f"{structure.param_names()[i]}: FD mismatch {err:.2e}"
                    )

    def test_curvature_matches_derivative_differences(self):
        # Central differences of dSigma/dkappa_j contracted with m give
        # column j of the curvature.
        rng = np.random.default_rng(24)
        for structure, draw in structure_zoo(p=4, seed=25):
            for _ in range(10):
                kappa = draw(rng)
                m = rng.normal(size=(4, 4))
                m = m + m.T
                analytic = structure.curvature(kappa, m)
                assert np.array_equal(analytic, analytic.T), \
                    f"{structure.kind}: asymmetric curvature"
                if structure.kind in ("main", "diag", "cor1", "ka"):
                    assert not np.any(analytic), \
                        f"{structure.kind} is linear in kappa; curvature must be 0"
                numeric = np.empty_like(analytic)
                for j in range(structure.n_params):
                    h = 1e-6 * max(1.0, abs(kappa[j]))
                    up = kappa.copy()
                    dn = kappa.copy()
                    up[j] += h
                    dn[j] -= h
                    pairs = zip(structure.derivs(up), structure.derivs(dn))
                    numeric[:, j] = [np.sum((a - b) * m) / (2.0 * h) for a, b in pairs]
                err = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(analytic)))
                assert err < 1e-6, f"{structure.kind}: curvature FD mismatch {err:.2e}"


class TestStructureInvariants:
    def test_sigma_symmetric_psd(self):
        for structure, draw in structure_zoo(p=5, seed=5):
            rng = np.random.default_rng(99)
            for _ in range(5):
                sigma = structure.sigma(draw(rng))
                assert np.array_equal(sigma, sigma.T), f"{structure.kind}: asymmetric"
                eigs = np.linalg.eigvalsh(sigma)
                assert eigs[0] >= -1e-8 * max(eigs[-1], 1.0), \
                    f"{structure.kind}: indefinite Sigma"

    def test_derivatives_symmetric(self):
        for structure, draw in structure_zoo(p=4, seed=6):
            rng = np.random.default_rng(7)
            for mat in structure.derivs(draw(rng)):
                assert np.array_equal(mat, mat.T), f"{structure.kind}: asymmetric deriv"

    def test_kernel_limit_bracketing(self):
        dist = random_distance(4, seed=8, mean_off=2.0)
        structure = KernelSingleVar(dist)
        var = 1.3
        near_main = structure.sigma(np.array([1e-10, var]))
        assert np.max(np.abs(near_main - var)) < 1e-8, \
            "theta -> 0 must recover the scaled all-ones matrix"
        near_diag = structure.sigma(np.array([1e6, var]))
        assert np.max(np.abs(near_diag - var * np.eye(4))) < 1e-8, \
            "theta -> infinity must recover the scaled identity"

    def test_kernel_matches_fixed_correlation(self):
        dist = random_distance(4, seed=9, mean_off=2.0)
        theta = 0.45
        corr = EnvCorrelationMatrix(gaussian_kernel(dist, theta), list(dist.labels))
        var = 2.2
        via_kernel = KernelSingleVar(dist).sigma(np.array([theta, var]))
        via_corr = CorrSingleVar(corr).sigma(np.array([var]))
        assert np.array_equal(via_kernel, via_corr), \
            "frozen-bandwidth kernel and fixed correlation must coincide"

    def test_equal_variances_reduce_to_single(self):
        corr = gaussian_reference_corr(4, seed=10)
        var = 1.7
        multi = CorrMultiVar(corr).sigma(np.full(4, var))
        single = CorrSingleVar(corr).sigma(np.array([var]))
        assert np.allclose(multi, single, atol=1e-14)

    def test_strict_and_lenient_parameter_checks(self):
        corr = gaussian_reference_corr(3, seed=11)
        structure = CorrMultiVar(corr)
        zeroed = np.array([1.0, 0.0, 2.0])
        sigma = structure.sigma(zeroed)
        assert sigma[1, 1] == 0.0, "zero variance is legal for sigma()"
        with pytest.raises(InvalidInputError):
            structure.derivs(zeroed)
        with pytest.raises(InvalidInputError):
            structure.sigma(np.array([1.0, -0.1, 2.0]))

    def test_layout_mismatch_rejected(self):
        structure = MainEffect(3)
        with pytest.raises(InvalidInputError):
            structure.derivs(np.array([1.0, 2.0]))


class TestKernelAveraging:
    def test_single_kernel_grid(self):
        dist = random_distance(3, seed=12, mean_off=2.0)
        structure = KernelAveraging(dist, grid=[0.6])
        var = 1.9
        total, c = average_kernel(np.array([var]), structure)
        assert total == var
        expected = np.exp(-0.6 * dist.values)
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(c, expected)

    def test_equal_weights_average(self):
        dist = random_distance(3, seed=13, mean_off=2.0)
        structure = KernelAveraging(dist, grid=[0.2, 1.4])
        _, c = average_kernel(np.array([0.7, 0.7]), structure)
        mean_kern = 0.5 * (
            np.exp(-0.2 * dist.values) + np.exp(-1.4 * dist.values)
        )
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(c[off], mean_kern[off], atol=1e-14), \
            "equal weights must give the arithmetic mean of the kernels"

    def test_unit_diagonal_exact(self):
        dist = random_distance(5, seed=14)
        structure = KernelAveraging(dist, grid=[0.1, 0.5, 2.0])
        rng = np.random.default_rng(15)
        for _ in range(5):
            _, c = average_kernel(rng.uniform(0.05, 2.0, 3), structure)
            assert np.array_equal(np.diag(c), np.ones(5))

    def test_reconstruction_bitwise(self):
        dist = random_distance(4, seed=16)
        structure = KernelAveraging(dist, grid=[0.05, 0.3, 1.1, 4.0])
        rng = np.random.default_rng(17)
        for _ in range(10):
            kappa = rng.uniform(0.05, 2.0, 4)
            total, c = average_kernel(kappa, structure)
            assert np.array_equal(total * c, structure.sigma(kappa)), \
                "weighted-kernel reconstruction must be bit-identical"

    def test_zero_weights_degenerate(self):
        dist = random_distance(3, seed=18)
        structure = KernelAveraging(dist, grid=[0.2, 0.8])
        with pytest.raises(InvalidInputError):
            average_kernel(np.zeros(2), structure)

    def test_zero_weights_give_the_zero_covariance(self):
        # A simulation truth may switch every kernel off.
        structure = KernelAveraging(random_distance(3, seed=18), grid=[0.2, 0.8])
        assert np.array_equal(structure.sigma(np.zeros(2)), np.zeros((3, 3)))

    def test_wrong_structure_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            average_kernel(np.array([1.0]), MainEffect(3))

    def test_default_grid_spans_distance_scale(self):
        dist = random_distance(4, seed=19, mean_off=5.0)
        structure = KernelAveraging(dist)
        scale = 1.0 / mean_offdiag(dist)
        assert structure.grid.size == 7
        assert np.isclose(structure.grid[0], 0.1 * scale)
        assert np.isclose(structure.grid[-1], 10.0 * scale)
        assert np.all(np.diff(structure.grid) > 0.0)

    def test_bad_grids_rejected(self):
        dist = random_distance(3, seed=20)
        for grid in ([], [0.5, 0.5], [1.0, 0.5], [-1.0, 2.0], [0.0, 1.0]):
            with pytest.raises(InvalidInputError):
                KernelAveraging(dist, grid=grid)


def structure_inputs(p, seed):
    """build_structure keyword arguments for each declared input."""
    return {
        "p": {"p": p},
        "corr": {"corr": gaussian_reference_corr(p, seed=seed)},
        "dist": {"dist": random_distance(p, seed=seed + 1)},
    }


class TestBuildStructure:
    def test_every_kind_constructible(self):
        inputs = structure_inputs(4, seed=21)
        for kind in STRUCTURE_KINDS:
            structure = build_structure(kind, **inputs[structure_class(kind).needs])
            assert structure.kind == kind
            assert structure.p == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown structure kind"):
            build_structure("fancy", p=3)

    def test_missing_inputs_rejected(self):
        inputs = structure_inputs(3, seed=23)
        for kind in STRUCTURE_KINDS:
            needs = structure_class(kind).needs
            others = {
                key: value
                for name, given in inputs.items() if name != needs
                for key, value in given.items()
            }
            with pytest.raises(InvalidInputError, match="requires"):
                build_structure(kind, **others)

    def test_non_psd_correlation_rejected(self):
        bad = EnvCorrelationMatrix(
            np.array([[1.0, 1.2], [1.2, 1.0]]), ["a", "b"]
        )
        with pytest.raises(InvalidInputError, match="positive semidefinite"):
            build_structure("cor1", corr=bad)

    def test_marginally_indefinite_clipped_with_warning(self, caplog):
        c = np.array([[1.0, 0.6, 0.6], [0.6, 1.0, 0.6], [0.6, 0.6, 1.0]])
        w, v = np.linalg.eigh(c)
        w[0] = -1e-10
        nudged = EnvCorrelationMatrix((v * w) @ v.T, ["a", "b", "c"])
        with caplog.at_level("WARNING", logger="gxe_reml.variance_structures"):
            structure = build_structure("cor1", corr=nudged)
        assert any("clipped" in rec.message for rec in caplog.records)
        eigs = np.linalg.eigvalsh(structure.sigma(np.array([1.0])))
        assert eigs[0] >= -1e-15


@pytest.mark.parametrize("call, message", [
    (lambda: mean_offdiag(np.zeros((1, 1))), "at least two environments are required"),
    (lambda: MainEffect(0), "need at least one environment, got 0"),
    (lambda: MainEffect(2).sigma([np.nan]), "main parameters must be finite"),
], ids=["mean-offdiag-one-environment", "no-environment", "non-finite-kappa"])
def test_input_checks_name_their_fault(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message
