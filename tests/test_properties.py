"""Likelihood invariances on generated instances, checked against the
dense Kronecker oracles in ``helpers``.

Each instance is a small kinship-linked trial (4-8 genotypes, 2-4
environments, some cells missing) with one structure kind and parameter
point.  Examples are derandomized so every run checks the same instances.
Whole fits are checked for independence of the units of y and D on larger
trials (12-24 genotypes) drawn from the fitted kind.  Sparse-testing splits
and their scoring are checked against the label-keyed references in
``helpers`` on trials of 4-30 genotypes in 2-6 environments.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gxe_reml import (
    CorrSingleVar,
    Dataset,
    EnvCorrelationMatrix,
    EnvDistanceMatrix,
    InvalidInputError,
    KernelSingleVar,
    PhenotypeRecord,
    STRUCTURE_KINDS,
    SparseDesign,
    build_structure,
    fit,
    gaussian_kernel,
    reml_loglik,
    score_and_ai,
    sparse_split,
    within_env_accuracy,
)
from gxe_reml import reml_core

from helpers import (
    build_design,
    centred_kinship,
    contrast_reml,
    dense_gls_beta,
    dense_projection,
    dense_reml,
    dense_score_and_ai,
    gaussian_reference_corr,
    label_sparse_split,
    label_within_env_accuracy,
    make_dataset,
    random_distance,
    random_kinship,
    structure_zoo,
)

SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)
GRID = np.geomspace(0.05, 2.0, 4)


@st.composite
def instances(draw):
    """(dataset, corr, dist, seed): every environment keeps >= 2 records."""
    n = draw(st.integers(4, 8))
    p = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**20))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, p - 1))
    drop = draw(st.sets(cells, max_size=n))
    missing = set()
    for e in range(p):
        missing |= set(sorted(c for c in drop if c[1] == e)[: n - 2])
    dataset = make_dataset(n, p, seed=seed, missing=missing)
    corr = gaussian_reference_corr(p, seed)
    dist = random_distance(p, seed + 1, mean_off=4.0)
    return dataset, corr, dist, seed


def structure_for(kind, labels, corr, dist):
    return build_structure(kind, env_labels=labels, corr=corr, dist=dist, grid=GRID)


def draw_kappa(structure, rng):
    """Well-scaled positive parameters; a bandwidth comes first."""
    kappa = rng.uniform(0.3, 3.0, structure.n_params)
    if structure.param_names()[0] == "bandwidth":
        kappa[0] = rng.uniform(0.05, 0.8)
    return kappa


def assert_close(got, want, tol, what):
    got, want = np.asarray(got), np.asarray(want)
    err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
    assert err < tol, f"{what} off by {err:.2e}"


@SETTINGS
@given(instances(), st.sampled_from(STRUCTURE_KINDS))
def test_record_permutation(instance, kind):
    # On the drawn instance and on the complete trial with its kinship, which
    # is evaluated in the contrast eigenbasis and maps P y back per record.
    dataset, corr, dist, seed = instance
    complete = make_dataset(dataset.n, dataset.p, seed=seed, kinship=dataset.kinship)
    for data in (dataset, complete):
        rng = np.random.default_rng(seed)
        structure = structure_for(kind, data.environment_labels, corr, dist)
        kappa = draw_kappa(structure, rng)
        resid = float(rng.uniform(0.4, 1.5))
        order = rng.permutation(data.n_records)
        shuffled = Dataset(
            [data.records[i] for i in order], data.kinship, data.environment_labels
        )
        sigma = structure.sigma(kappa)
        want = dense_reml(data, sigma, resid)
        assert_close(reml_loglik(shuffled, structure, kappa, resid), want, 1e-10, "loglik")
        grad, ai = score_and_ai(shuffled, structure, kappa, resid)
        ref_grad, ref_ai = dense_score_and_ai(data, structure, kappa, resid)
        assert_close(grad, ref_grad, 1e-9, "score")
        assert_close(ai, ref_ai, 1e-9, "AI matrix")
        py = reml_core._RemlWorkspace(shuffled, structure).point(sigma, resid).py
        ref_py = dense_projection(data, sigma, resid) @ data.values
        assert_close(py, ref_py[order], 1e-9, "P y")


@SETTINGS
@given(instances(), st.sampled_from(STRUCTURE_KINDS))
def test_mean_shift(instance, kind):
    dataset, corr, dist, seed = instance
    rng = np.random.default_rng(seed)
    structure = structure_for(kind, dataset.environment_labels, corr, dist)
    kappa = draw_kappa(structure, rng)
    resid = float(rng.uniform(0.4, 1.5))
    b = rng.normal(scale=10.0, size=dataset.p)
    values = dataset.values + build_design(dataset).X @ b
    shifted = Dataset(
        [PhenotypeRecord(r.genotype, r.environment, float(v))
         for r, v in zip(dataset.records, values)],
        dataset.kinship,
        dataset.environment_labels,
    )
    want = dense_reml(dataset, structure.sigma(kappa), resid)
    assert_close(reml_loglik(shifted, structure, kappa, resid), want, 1e-9, "loglik")
    grad, _ = score_and_ai(shifted, structure, kappa, resid)
    ref_grad, _ = dense_score_and_ai(dataset, structure, kappa, resid)
    assert_close(grad, ref_grad, 1e-8, "score")


@SETTINGS
@given(instances(), st.sampled_from(STRUCTURE_KINDS))
def test_environment_label_permutation(instance, kind):
    # The same records under another environment order (so another
    # reference level); parameters follow their names.
    dataset, corr, dist, seed = instance
    rng = np.random.default_rng(seed)
    labels = list(dataset.environment_labels)
    permuted = [labels[j] for j in rng.permutation(len(labels))]
    structure = structure_for(kind, labels, corr, dist)
    moved = structure_for(kind, permuted, corr, dist)
    kappa = draw_kappa(structure, rng)
    resid = float(rng.uniform(0.4, 1.5))
    names = structure.param_names() + ["resid_var"]
    moved_names = moved.param_names() + ["resid_var"]
    index = [names.index(name) for name in moved_names]
    moved_kappa = kappa[index[:-1]]
    relabelled = Dataset(dataset.records, dataset.kinship, permuted)
    want = dense_reml(dataset, structure.sigma(kappa), resid)
    got = reml_loglik(relabelled, moved, moved_kappa, resid)
    assert_close(got, want, 1e-10, "loglik")
    grad, _ = score_and_ai(relabelled, moved, moved_kappa, resid)
    ref_grad, _ = dense_score_and_ai(dataset, structure, kappa, resid)
    assert_close(grad, ref_grad[index], 1e-9, "score")


@SETTINGS
@given(instances(), st.floats(0.05, 0.8))
def test_frozen_bandwidth_kern1_is_cor1(instance, theta):
    dataset, _, dist, seed = instance
    rng = np.random.default_rng(seed)
    kernel = KernelSingleVar(dist)
    fixed_c = CorrSingleVar(
        EnvCorrelationMatrix(gaussian_kernel(dist, theta), list(dist.labels))
    )
    var = float(rng.uniform(0.3, 3.0))
    resid = float(rng.uniform(0.4, 1.5))
    want = dense_reml(dataset, fixed_c.sigma([var]), resid)
    assert_close(reml_loglik(dataset, kernel, [theta, var], resid), want, 1e-10, "loglik")
    grad, ai = score_and_ai(dataset, kernel, [theta, var], resid)
    ref_grad, ref_ai = dense_score_and_ai(dataset, fixed_c, [var], resid)
    assert_close(grad[1:], ref_grad, 1e-9, "score")
    assert_close(ai[1:, 1:], ref_ai, 1e-9, "AI matrix")
    frozen = fit(dataset, kernel, fixed={0: theta})
    plain = fit(dataset, fixed_c)
    assert frozen.kappa_hat[0] == theta
    assert abs(frozen.loglik - plain.loglik) < 1e-6
    assert_close(frozen.loglik, dense_reml(dataset, fixed_c.sigma(plain.kappa_hat),
                                           plain.resid_var_hat), 1e-10, "fitted loglik")


def point_pieces(dataset, structure, kappa, resid):
    """The evaluator class and every piece a fit reads at one point."""
    point = reml_core._RemlWorkspace(dataset, structure).point(structure.sigma(kappa), resid)
    grad, ai, corr = point.derivatives(structure, kappa)
    blups = reml_core._cell_blups(dataset, point.py, point.sigma)
    return type(point), {"loglik": point.loglik, "beta": point.beta, "score": grad,
                         "AI": ai, "C": corr, "BLUPs": blups}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 12), st.integers(2, 5), st.integers(0, 6),
       st.integers(0, 2**20), st.floats(0.05, 5.0))
def test_complete_trial_points_agree(n, p, kind, seed, resid):
    # The contrast-eigenbasis point against the dense one, forced on the
    # same complete trial.
    dataset = make_dataset(n, p, seed=seed)
    structure, draw = structure_zoo(p, seed)[kind]
    kappa = draw(np.random.default_rng(seed))
    evaluator, spectral = point_pieces(dataset, structure, kappa, resid)
    assert evaluator is reml_core._SpectralPoint
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reml_core, "_is_complete", lambda d: False)
        evaluator, dense = point_pieces(dataset, structure, kappa, resid)
    assert evaluator is reml_core._PointEvaluation
    for name, want in dense.items():
        got, want = np.asarray(spectral[name]), np.asarray(want)
        err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)
        assert err < 1e-8, f"{structure.kind}: {name} off by {err:.2e}"


@SETTINGS
@given(instances(), st.sampled_from(STRUCTURE_KINDS))
def test_dense_beta_is_the_gls_estimate(instance, kind):
    # Both points take beta as the per-environment mean of y - V P y; on
    # sparse trials (the dense point) it must equal (X'V^-1 X)^-1 X'V^-1 y,
    # at a drawn point and at the fitted one.
    dataset, corr, dist, seed = instance
    assume(dataset.n_records < dataset.n * dataset.p)
    rng = np.random.default_rng(seed)
    structure = structure_for(kind, dataset.environment_labels, corr, dist)
    kappa = draw_kappa(structure, rng)
    resid = float(rng.uniform(0.4, 1.5))
    point = reml_core._RemlWorkspace(dataset, structure).point(structure.sigma(kappa), resid)
    assert isinstance(point, reml_core._PointEvaluation)
    means = point.beta
    want = dense_gls_beta(dataset, structure.sigma(kappa), resid)
    assert_close(np.concatenate([means[:1], means[1:] - means[0]]), want, 1e-9, "point beta")
    result = fit(dataset, structure, max_iter=20)
    sigma = structure.sigma(result.kappa_hat)
    want = dense_gls_beta(dataset, sigma, result.resid_var_hat)
    assert_close(result.beta_hat, want, 1e-9, "fitted beta")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(5, 10), st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**20),
       st.sampled_from([kind for kind in STRUCTURE_KINDS if kind != "main"]),
       st.floats(-30.0, 0.0))
def test_near_complete_centred_kinship_matches_contrast_oracle(
    n, p, n_missing, seed, kind, log_resid
):
    # A near-complete trial takes the dense point.  With K 1 = 0, V is
    # nearly singular along X as resid_var -> 0, where only a likelihood in
    # error contrasts keeps its digits.  main is left out: its Sigma = v J
    # has rank 1, so L'VL is ill-conditioned in its own right.
    rng = np.random.default_rng(seed)
    cells = rng.choice(n * p, size=n_missing, replace=False)
    missing = {(int(c) % n, int(c) // n) for c in cells}
    dataset = make_dataset(n, p, seed=seed, missing=missing, kinship=centred_kinship(n, seed))
    corr = gaussian_reference_corr(p, seed)
    structure = structure_for(kind, dataset.environment_labels, corr,
                              random_distance(p, seed + 1, mean_off=4.0))
    kappa = draw_kappa(structure, rng)
    resid = float(np.exp(log_resid) * dataset.values.var())
    want = contrast_reml(dataset, structure.sigma(kappa), resid)
    got = reml_loglik(dataset, structure, kappa, resid)
    assert abs(got - want) <= 1e-9 * abs(want), \
        f"{kind} at resid_var {resid:.3e}: loglik off by {abs(got - want) / abs(want):.2e}"


def rescaled(dataset, c):
    """The dataset with every phenotype multiplied by c."""
    records = [PhenotypeRecord(r.genotype, r.environment, c * r.value) for r in dataset.records]
    return Dataset(records, dataset.kinship, dataset.environment_labels)


def fitted(result):
    return np.append(result.kappa_hat, result.resid_var_hat)


UNITS = (1e-8, 1e-4, 1e4, 1e8)


@pytest.mark.parametrize("sparse", [False, True], ids=["complete", "sparse"])
@pytest.mark.parametrize("kind", [kind for kind in STRUCTURE_KINDS if kind != "ka"])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(12, 24), st.integers(2, 4), st.integers(0, 2**20))
def test_fit_does_not_depend_on_units(kind, sparse, n, p, seed):
    # y -> c y scales every variance by c^2 and shifts l_R by -(N - p) log c;
    # D -> c D divides the bandwidth by c.  Each bound sits on its
    # coordinate's own scale, so the fit takes the same path in any units.
    # Fits that reach a bound are left out: how they end is a separate rule.
    rng = np.random.default_rng(seed)
    corr = gaussian_reference_corr(p, seed)
    dist = random_distance(p, seed + 1, mean_off=4.0)
    labels = [f"E{j}" for j in range(p)]
    structure = structure_for(kind, labels, corr, dist)
    # Phenotypes drawn from the fitted kind itself, plus unit noise.
    w, v = np.linalg.eigh(structure.sigma(draw_kappa(structure, rng)))
    kin = random_kinship(n, seed)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    genetic = np.linalg.cholesky(kin.values) @ rng.normal(size=(n, p)) @ root.T
    y = (genetic + rng.normal(size=(n, p))).T.ravel()
    keep = np.ones(n * p, dtype=bool)
    if sparse:
        keep = rng.random(n * p) > 0.3
        keep.reshape(p, n)[:, :2] = True
    missing = {(i % n, i // n) for i in np.flatnonzero(~keep)}
    dataset = make_dataset(n, p, seed=seed, missing=missing, kinship=kin, y=y[keep])
    base = fit(dataset, structure)
    assume(base.termination == "tol" and not base.boundary_params)
    bandwidth = structure.param_names()[0] == "bandwidth"
    is_var = np.arange(structure.n_params + 1) >= bandwidth
    cases = [(rescaled(dataset, c), structure, np.where(is_var, c * c, 1.0),
              (dataset.n_records - p) * np.log(c), f"y * {c:g}") for c in UNITS]
    if bandwidth:
        for c in UNITS:
            scaled = structure_for(kind, labels, corr, EnvDistanceMatrix(dist.values * c, labels))
            cases.append((dataset, scaled, np.where(is_var, 1.0, 1.0 / c), 0.0, f"D * {c:g}"))
    for data, model, factor, shift, what in cases:
        result = fit(data, model)
        assert (result.termination, result.iterations, result.boundary_params) == (
            base.termination, base.iterations, base.boundary_params), f"{kind}, {what}"
        assert abs(result.loglik + shift - base.loglik) < 1e-6, f"{kind}, {what}: loglik"
        assert_close(fitted(result) / factor / fitted(base), 1.0, 1e-6,
                     f"{kind}, {what}: estimates")


@st.composite
def split_cases(draw):
    """(dataset, design, replicate) on a trial with random missing cells.

    Environment labels run backwards, so their sorted order is not their
    index order; designs may be infeasible.
    """
    n = draw(st.integers(4, 30))
    p = draw(st.integers(2, 6))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, p - 1))
    missing = draw(st.sets(cells, max_size=n * p // 2))
    labels = [f"E{j}" for j in reversed(range(p))]
    dataset = make_dataset(n, p, seed=draw(st.integers(0, 2**20)),
                           missing=missing, env_labels=labels)
    design = SparseDesign(
        n_checks=draw(st.integers(1, 4)),
        envs_per_variety=draw(st.integers(1, p)),
        replicates=1,
        seed=draw(st.integers(0, 2**20)),
    )
    return dataset, design, draw(st.integers(0, 100))


SPLIT_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                          database=None)


@SPLIT_SETTINGS
@given(split_cases())
def test_sparse_split_matches_label_reference(case):
    dataset, design, rep = case
    try:
        want_train, want_cells = label_sparse_split(dataset, design, rep)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError) as failure:
            sparse_split(dataset, design, rep)
        assert str(failure.value) == str(exc)
        return
    train, held_out = sparse_split(dataset, design, rep)
    assert [(r.genotype, r.environment) for r in held_out.records] == want_cells
    assert len(train.records) == len(want_train.records)
    assert all(a is b for a, b in zip(train.records, want_train.records))


@SPLIT_SETTINGS
@given(split_cases(), st.data())
def test_within_env_accuracy_matches_label_reference(case, data):
    # Random values on every cell, some environments constant on one side,
    # scored on a random subset of the held-out cells (often one cell in an
    # environment): the arrays of the held-out Dataset against the cells of
    # the label-keyed split.
    dataset, design, rep = case
    try:
        _, want_cells = label_sparse_split(dataset, design, rep)
    except InvalidInputError:
        assume(False)
    _, held_out = sparse_split(dataset, design, rep)
    n, p = dataset.n, dataset.p
    rng = np.random.default_rng(data.draw(st.integers(0, 2**20)))
    predicted, truth = rng.normal(size=(2, n, p))
    per_env = st.lists(st.booleans(), min_size=p, max_size=p)
    predicted[:, data.draw(per_env)] = 1.5
    truth[:, data.draw(per_env)] = -0.5
    scored = np.array(data.draw(st.lists(
        st.booleans(), min_size=len(want_cells), max_size=len(want_cells))), dtype=bool)
    gen_of = {g: i for i, g in enumerate(dataset.genotype_labels)}
    env_of = {e: j for j, e in enumerate(dataset.environment_labels)}
    kept = [(g, e) for (g, e), s in zip(want_cells, scored) if s]
    ref_pred = {(g, e): float(predicted[gen_of[g], env_of[e]]) for g, e in kept}
    ref_truth = {(g, e): float(truth[gen_of[g], env_of[e]]) for g, e in kept}
    gen, env = held_out.gen_index_array[scored], held_out.env_index_array[scored]
    args = (predicted[gen, env], truth[gen, env],
            np.asarray(dataset.environment_labels)[env])
    if not kept:
        with pytest.raises(InvalidInputError, match="no cells to score"):
            within_env_accuracy(*args)
        return
    got = within_env_accuracy(*args)
    want = label_within_env_accuracy(ref_pred, ref_truth)
    assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
