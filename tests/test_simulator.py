"""Tests for marker, kinship, and phenotype simulation.

The deep check is a Monte Carlo oracle: stacked genetic draws under a
fixed kinship must reproduce Sigma kron K in sample covariance.
"""

import pickle

import numpy as np
import pytest
import scipy.linalg

from gxe_reml import (
    CorrSingleVar,
    InvalidInputError,
    MainEffect,
    RelationshipMatrix,
    SimConfig,
    kinship_from_markers,
    simulate_markers,
    simulate_met,
)

from helpers import gaussian_reference_corr, random_kinship


def base_config(structure, params, resid_var, n=8, seed=0, **kwargs):
    return SimConfig(
        n_genotypes=n,
        n_markers=max(4 * n, 40),
        structure=structure,
        true_params=np.asarray(params, dtype=float),
        resid_var=resid_var,
        seed=seed,
        **kwargs,
    )


@pytest.mark.parametrize("call, message", [
    (lambda: base_config(MainEffect(2), [1.0], 0.5, n=4, kinship=random_kinship(3, 0)),
     "kinship is 3 x 3 but n_genotypes is 4"),
    (lambda: kinship_from_markers(np.zeros(5)),
     "marker matrix must be two-dimensional"),
    (lambda: base_config(MainEffect(2), [1.0], 0.5, n=1),
     "need n_genotypes >= 2 and n_markers >= 2, got 1 and 40"),
    (lambda: SimConfig(4, 1, MainEffect(2), np.array([1.0]), 0.5),
     "need n_genotypes >= 2 and n_markers >= 2, got 4 and 1"),
    (lambda: base_config(MainEffect(2), [1.0], 0.5, seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: base_config(MainEffect(2), [1.0], 0.5, seed=[3, -2]),
     "seed must be >= 0, got [3, -2]"),
], ids=["kinship-size", "markers-ndim", "one-genotype", "one-marker",
        "negative-seed", "negative-seed-entry"])
def test_input_checks_name_their_fault(call, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value) == message


class TestSimulateMarkers:
    def test_deterministic(self):
        assert np.array_equal(simulate_markers(20, 50, 7), simulate_markers(20, 50, 7))

    def test_seed_changes_output(self):
        assert not np.array_equal(
            simulate_markers(20, 50, 7), simulate_markers(20, 50, 8)
        )

    def test_entries_are_allele_counts(self):
        markers = simulate_markers(50, 200, 1)
        assert set(np.unique(markers)).issubset({0, 1, 2})

    def test_sample_frequencies_bounded(self):
        markers = simulate_markers(100, 10_000, 2)
        freqs = markers.mean(axis=0) / 2.0
        assert freqs.min() >= 0.03 and freqs.max() <= 0.97, \
            "n=100 draws at frequencies in [0.1, 0.9] must stay inside [0.03, 0.97]"

    def test_tiny_sizes_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate_markers(1, 50, 0)


class TestKinshipFromMarkers:
    def test_duplicated_genotypes_duplicate_rows(self):
        markers = simulate_markers(6, 80, 3)
        markers[4] = markers[1]
        k = kinship_from_markers(markers).values
        assert np.array_equal(k[4], k[1]), "identical genotypes must match in K"
        assert np.array_equal(k[:, 4], k[:, 1])

    def test_symmetric(self):
        k = kinship_from_markers(simulate_markers(30, 300, 4)).values
        assert np.max(np.abs(k - k.T)) < 1e-12

    def test_matches_centred_cross_product(self):
        markers = simulate_markers(30, 300, 30).astype(float)
        f = markers.mean(axis=0) / 2.0
        w = markers - 2.0 * f
        expected = w @ w.T / (2.0 * np.sum(f * (1.0 - f)))
        k = kinship_from_markers(markers).values
        assert np.max(np.abs(k - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_mean_diagonal_near_one(self):
        k = kinship_from_markers(simulate_markers(200, 5000, 5)).values
        assert abs(float(np.mean(np.diag(k))) - 1.0) < 0.1, \
            "centered-marker scaling targets a unit mean diagonal"

    def test_psd_to_tolerance(self):
        k = kinship_from_markers(simulate_markers(25, 200, 6)).values
        eigs = np.linalg.eigvalsh(k)
        assert eigs[0] >= -1e-8 * eigs[-1]

    def test_monomorphic_dropped_with_warning(self, caplog):
        markers = simulate_markers(10, 60, 7).astype(float)
        markers[:, 0] = 2.0
        markers[:, 1] = 0.0
        with caplog.at_level("WARNING", logger="gxe_reml.simulator"):
            k = kinship_from_markers(markers)
        assert any("monomorphic" in rec.message for rec in caplog.records)
        assert k.values.shape == (10, 10)

    def test_all_monomorphic_rejected(self):
        with pytest.raises(InvalidInputError):
            kinship_from_markers(np.full((5, 8), 2.0))

    def test_default_labels(self):
        k = kinship_from_markers(simulate_markers(3, 40, 8))
        assert k.labels == ["G0001", "G0002", "G0003"]


class TestSimulateMet:
    def test_bit_identical_per_config(self):
        corr = gaussian_reference_corr(3, seed=9)
        config = base_config(CorrSingleVar(corr), [1.0], 0.5, seed=10)
        a = simulate_met(config)
        b = simulate_met(config)
        assert np.array_equal(a.dataset.values, b.dataset.values)
        assert np.array_equal(a.true_genetic_matrix, b.true_genetic_matrix)

    def test_noise_free_equals_truth(self):
        corr = gaussian_reference_corr(3, seed=11)
        out = simulate_met(base_config(CorrSingleVar(corr), [1.0], 0.0, seed=12))
        y = out.dataset.values.reshape(3, -1).T
        assert np.array_equal(y, out.true_genetic_matrix), \
            "without noise or means the phenotype is exactly the genetic value"

    def test_env_means_shift_phenotypes(self):
        corr = gaussian_reference_corr(3, seed=11)
        means = [4.0, -1.0, 0.5]
        out = simulate_met(
            base_config(CorrSingleVar(corr), [1.0], 0.0, seed=12, env_means=means)
        )
        y = out.dataset.values.reshape(3, -1).T
        shifts = y - out.true_genetic_matrix
        assert np.allclose(shifts, np.array(means)[None, :], rtol=0.0, atol=1e-12)

    def test_scalar_env_mean_matches_vector(self):
        corr = gaussian_reference_corr(2, seed=13)
        a = simulate_met(
            base_config(CorrSingleVar(corr), [1.0], 0.4, seed=14, env_means=2.5)
        )
        b = simulate_met(
            base_config(CorrSingleVar(corr), [1.0], 0.4, seed=14, env_means=[2.5, 2.5])
        )
        assert np.array_equal(a.dataset.values, b.dataset.values)

    def test_non_finite_env_means_rejected(self):
        corr = gaussian_reference_corr(2, seed=13)
        with pytest.raises(InvalidInputError, match="finite"):
            base_config(
                CorrSingleVar(corr), [1.0], 0.4, seed=14, env_means=[2.5, np.nan]
            )

    @pytest.mark.parametrize("env_means", [[1.0, 2.0], [], "abc"])
    def test_env_means_of_another_length_rejected(self, env_means):
        # p = 3 takes one mean or three, never a traceback from NumPy
        with pytest.raises(InvalidInputError, match="env_means"):
            base_config(MainEffect(3), [1.0], 0.4, env_means=env_means)

    def test_env_means_stored_per_environment(self):
        for env_means in (2.5, [2.5]):
            config = base_config(MainEffect(3), [1.0], 0.4, env_means=env_means)
            assert np.array_equal(config.env_means, [2.5, 2.5, 2.5])

    def test_zero_covariance_zero_effects(self):
        out = simulate_met(base_config(MainEffect(3), [0.0], 0.3, seed=13))
        assert np.array_equal(out.true_genetic_matrix, np.zeros((8, 3)))

    def test_cell_order_is_environment_major(self):
        config = base_config(MainEffect(2), [1.0], 0.0, n=3, seed=15)
        assert config.environment_labels == ["E01", "E02"]
        out = simulate_met(config)
        records = out.dataset.records
        assert [r.environment for r in records[:3]] == ["E01"] * 3
        assert [r.environment for r in records[3:]] == ["E02"] * 3
        assert [r.genotype for r in records[:3]] == ["G0001", "G0002", "G0003"]
        genetic = out.true_genetic_matrix.flatten(order="F")
        assert np.array_equal(out.dataset.values, genetic), \
            "record order must be the environment-major flattening of the genetic matrix"

    def test_structure_labels_win(self):
        corr = gaussian_reference_corr(2, seed=13)
        config = base_config(CorrSingleVar(corr), [1.0], 0.4, seed=14, n=3)
        out = simulate_met(config)
        assert out.dataset.environment_labels == list(corr.labels)
        assert config.environment_labels == list(corr.labels)

    def test_monte_carlo_covariance(self):
        # Fixed kinship, 8000 fresh draws: the sample second moment of the
        # stacked cell vector must land within 5% relative Frobenius error
        # of Sigma kron K (the expected error at this replicate count is
        # under 3%).
        n, p, reps = 5, 2, 8000
        kin = random_kinship(n, seed=16)
        corr = gaussian_reference_corr(p, seed=17)
        structure = CorrSingleVar(corr)
        sigma = structure.sigma(np.array([1.3]))
        target = np.kron(sigma, kin.values)
        draws = np.empty((reps, n * p))
        for rep in range(reps):
            out = simulate_met(
                base_config(structure, [1.3], 0.0, n=n, seed=[18, rep], kinship=kin)
            )
            draws[rep] = out.true_genetic_matrix.flatten(order="F")
        sample = draws.T @ draws / reps
        rel = np.linalg.norm(sample - target) / np.linalg.norm(target)
        assert rel < 0.05, f"Monte Carlo covariance off by {rel:.3f} relative"
        sds = np.sqrt(np.diag(target))
        assert np.all(np.abs(draws.mean(axis=0)) <= 4.0 * sds / np.sqrt(reps)), \
            "cell means must be consistent with a zero-mean draw"

    def test_fixed_kinship_is_used_verbatim(self):
        kin = random_kinship(6, seed=19)
        out = simulate_met(
            base_config(MainEffect(2), [1.0], 0.2, n=6, seed=20, kinship=kin)
        )
        assert out.dataset.kinship is kin
        assert out.dataset.genotype_labels == list(kin.labels)

    def test_kinship_size_mismatch_rejected(self):
        kin = random_kinship(4, seed=21)
        with pytest.raises(InvalidInputError):
            base_config(MainEffect(2), [1.0], 0.2, n=6, seed=22, kinship=kin)

    def test_noise_scale_shares_draws(self):
        kin = random_kinship(6, seed=23)
        corr = gaussian_reference_corr(3, seed=24)
        outs = {
            rv: simulate_met(
                base_config(
                    CorrSingleVar(corr), [1.0], rv, n=6, seed=25, kinship=kin
                )
            )
            for rv in (0.0, 1.0, 4.0)
        }
        assert np.array_equal(
            outs[1.0].true_genetic_matrix, outs[4.0].true_genetic_matrix
        ), "resid_var must only scale the noise draw, not the genetic draw"
        base = outs[1.0].dataset.values - outs[0.0].dataset.values
        doubled = outs[4.0].dataset.values - outs[0.0].dataset.values
        assert np.allclose(doubled, 2.0 * base, rtol=0.0, atol=1e-12), \
            "noise must scale as the square root of resid_var for a shared seed"

    def test_marker_deficit_warns(self, caplog):
        corr = gaussian_reference_corr(2, seed=25)
        with caplog.at_level("WARNING", logger="gxe_reml.simulator"):
            SimConfig(
                n_genotypes=30,
                n_markers=10,
                structure=CorrSingleVar(corr),
                true_params=np.array([1.0]),
                resid_var=0.5,
            )
        assert any("singular" in rec.message for rec in caplog.records)

    def test_negative_resid_var_rejected(self):
        corr = gaussian_reference_corr(2, seed=26)
        with pytest.raises(InvalidInputError):
            base_config(CorrSingleVar(corr), [1.0], -0.5)

    @pytest.mark.parametrize("resid_var", [np.inf, np.nan])
    def test_non_finite_resid_var_named_non_finite(self, resid_var):
        corr = gaussian_reference_corr(2, seed=26)
        with pytest.raises(InvalidInputError, match="resid_var must be finite"):
            base_config(CorrSingleVar(corr), [1.0], resid_var)


class TestKinshipRoot:
    """The simulator draws through the kinship's eigen root, computed once
    per RelationshipMatrix."""

    def test_one_eigendecomposition_per_kinship(self, monkeypatch):
        n = 12
        kin = random_kinship(n, seed=31)
        corr = gaussian_reference_corr(2, seed=32)
        config = base_config(CorrSingleVar(corr), [1.0], 0.5, n=n, seed=32, kinship=kin)
        calls = []
        for owner, name in ((scipy.linalg, "eigh"), (scipy.linalg.lapack, "dpotrf")):
            def spy(a, *args, _name=name, _original=getattr(owner, name), **kwargs):
                calls.append((_name, np.shape(a), kwargs.get("eigvals_only", False)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        outs = [simulate_met(config) for _ in range(3)]
        assert [call for call in calls if call[1] == (n, n)] == [("eigh", (n, n), False)], \
            "one eigendecomposition with vectors, and no n x n potrf"
        assert all(np.array_equal(out.dataset.values, outs[0].dataset.values)
                   for out in outs)
        root = kin._root
        assert np.allclose(root @ root.T, kin.values, rtol=0.0, atol=1e-12)

    def test_root_is_read_only_in_a_pickled_copy(self):
        kin = random_kinship(5, seed=33)
        kin._root
        # A CV worker receives the kinship pickled, with its root.
        for copy in (kin, pickle.loads(pickle.dumps(kin))):
            assert "_root" in vars(copy)
            with pytest.raises(ValueError):
                copy._root[0, 0] = 1.0
            assert np.array_equal(copy._root, kin._root)


class TestOneBlasPool:
    """Matrices with n rows reach SciPy's LAPACK, never NumPy's, whose
    thread pool would otherwise wake beside SciPy's (package docstring)."""

    N = 40

    @pytest.fixture()
    def numpy_linalg_shapes(self, monkeypatch):
        shapes = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            def spy(a, *args, _original=getattr(np.linalg, name), **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return shapes

    def test_simulate_met(self, numpy_linalg_shapes):
        corr = gaussian_reference_corr(3, seed=27)
        config = base_config(CorrSingleVar(corr), [1.0], 0.5, n=self.N, seed=28)
        assert config.kinship is None, "markers mode: the kinship is simulated"
        simulate_met(config)
        assert (3, 3) in numpy_linalg_shapes, "the p x p truth stays on NumPy"
        assert not [s for s in numpy_linalg_shapes if self.N in s]

    def test_relationship_matrix(self, numpy_linalg_shapes):
        kin = kinship_from_markers(simulate_markers(self.N, 4 * self.N, 29))
        RelationshipMatrix(kin.values, kin.labels)
        assert not [s for s in numpy_linalg_shapes if self.N in s]
