import numpy as np
import pytest

from pptball import (
    DensityMatrix,
    HermitianOperator,
    HilbertStructure,
    SeesawConfig,
    UPBSet,
    build_complete_basis,
    build_witness,
    eig_hermitian,
    minimum_overlap,
    omega_state,
    witness_from_operator,
    witness_value,
)
from pptball.montecarlo import (
    SamplerConfig,
    sample_hs_density,
    sample_random_product_separable,
)
from pptball.witness import _seesaw_once

QUICK = SeesawConfig(restarts=40)


def test_complete_basis_overlap_is_one(complete22):
    lam = minimum_overlap(complete22, QUICK)
    assert abs(lam.value - 1.0) < 1e-12
    assert lam.converged


def test_complete_basis_multipartite_overlap_is_one():
    upb = build_complete_basis((2, 2, 2))
    lam = minimum_overlap(upb, QUICK)
    assert abs(lam.value - 1.0) < 1e-12


def test_overlaps_are_positive_and_below_ratio(tiles_lambda, pyramid_lambda, shifts_lambda):
    for lam, n, d in (
        (tiles_lambda, 5, 9),
        (pyramid_lambda, 5, 9),
        (shifts_lambda, 4, 8),
    ):
        assert 0.0 < lam.value < n / d
        assert lam.converged


def test_minimizer_achieves_the_overlap(tiles, tiles_lambda):
    v = tiles_lambda.minimizer.full_vector
    overlap = float(np.vdot(v, tiles.projector.matrix @ v).real)
    assert abs(overlap - tiles_lambda.value) < 1e-8


def test_distinct_minimizers_all_achieve_the_overlap(tiles, tiles_lambda):
    assert len(tiles_lambda.minimizers) >= 1
    p = tiles.projector.matrix
    for state in tiles_lambda.minimizers:
        v = state.full_vector
        assert abs(float(np.vdot(v, p @ v).real) - tiles_lambda.value) < 1e-8
    for i, a in enumerate(tiles_lambda.minimizers):
        for b in tiles_lambda.minimizers[i + 1 :]:
            assert a.fidelity(b) < 1 - 1e-6


def test_descent_is_monotone_per_half_step(tiles):
    mats = [tiles.local_matrix(k) for k in range(2)]
    rng = np.random.default_rng(123)
    _, _, _, history = _seesaw_once(mats, rng, 500)
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs <= 1e-12)


def test_restart_from_minimizer_is_a_fixed_point(tiles, tiles_lambda):
    mats = [tiles.local_matrix(k) for k in range(2)]
    rng = np.random.default_rng(0)
    value, _, converged, _ = _seesaw_once(
        mats, rng, 500, init=tiles_lambda.minimizer.local_vectors
    )
    assert converged
    assert abs(value - tiles_lambda.value) < 1e-12


def test_overlap_invariant_under_joint_local_rotations(tiles, tiles_lambda):
    rng = np.random.default_rng(2024)
    rotated_members = []
    us = []
    for d in tiles.structure.local_dims:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        us.append(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    for m in tiles.members:
        rotated_members.append(tuple(u @ v for u, v in zip(us, m.local_vectors)))
    rotated = UPBSet.from_vectors("tiles-rotated", (3, 3), rotated_members)
    lam_rot = minimum_overlap(rotated)
    assert abs(lam_rot.value - tiles_lambda.value) < 1e-10


def test_non_convergence_is_flagged(tiles):
    lam = minimum_overlap(tiles, SeesawConfig(restarts=3, max_iters=1))
    assert not lam.converged


@pytest.mark.parametrize("field", ["restarts", "max_iters"])
@pytest.mark.parametrize("value", [0, -1])
def test_seesaw_config_rejects_counts_below_one(field, value):
    with pytest.raises(ValueError, match="at least 1"):
        SeesawConfig(**{field: value})


def test_witness_flat_spectrum(tiles, tiles_lambda, tiles_witness):
    n, d = 5, 9
    lam = tiles_lambda.value
    w = tiles_witness
    assert abs(w.trace - 1.0) < 1e-12
    assert w.p_count == n and w.n_neg_count == d - n
    pos = (1 - lam) / (n - lam * d)
    neg = -lam / (n - lam * d)
    vals = eig_hermitian(w).eigenvalues
    assert np.abs(vals[: d - n] - neg).max() < 1e-10
    assert np.abs(vals[d - n :] - pos).max() < 1e-10
    assert abs(w.pos_part_trace - n * (1 - lam) / (n - lam * d)) < 1e-12
    assert abs(w.max_pos_eigenvalue - w.pos_part_trace / w.p_count) < 1e-10


def test_witness_detects_complement_state(tiles, tiles_lambda, tiles_witness):
    n, d = 5, 9
    omega = omega_state(tiles)
    lam = tiles_lambda.value
    assert abs(witness_value(tiles_witness, omega) - (-lam / (n - lam * d))) < 1e-12


def test_witness_vanishes_on_minimizer(tiles, tiles_lambda, tiles_witness):
    sigma = tiles_lambda.minimizer.to_density(tiles.structure)
    assert abs(witness_value(tiles_witness, sigma)) < 1e-8


def test_witness_value_on_maximally_mixed(tiles, tiles_witness):
    rho = DensityMatrix.maximally_mixed(tiles.structure)
    assert abs(witness_value(tiles_witness, rho) - 1.0 / 9.0) < 1e-12


def test_witness_nonnegative_on_product_states(tiles, tiles_witness):
    cfg = SamplerConfig(31)
    for t in range(1000):
        sigma = sample_random_product_separable(tiles.structure, 1, cfg, trial=t)
        assert witness_value(tiles_witness, sigma) >= -1e-10


def test_expectation_sandwich(tiles, tiles_witness):
    cfg = SamplerConfig(17)
    w = tiles_witness
    for t in range(1000):
        pi = sample_hs_density(tiles.structure, cfg, trial=t)
        val = witness_value(w, pi)
        assert -w.neg_part_trace - 1e-12 <= val <= w.pos_part_trace + 1e-12


def test_witness_normalizer_guard(complete22):
    with pytest.raises(ValueError, match="normalizer"):
        build_witness(complete22, 1.0)
    with pytest.raises(ValueError, match="normalizer"):
        build_witness(complete22, 0.0)


def test_witness_requires_unit_trace():
    with pytest.raises(ValueError, match="trace"):
        witness_from_operator(HermitianOperator(np.eye(3)))


def test_witness_value_dimension_mismatch(tiles_witness):
    rho = DensityMatrix.maximally_mixed(HilbertStructure((2, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        witness_value(tiles_witness, rho)


def test_spectral_split_diagonal_example(tiles_witness):
    split = witness_from_operator(HermitianOperator(np.diag([0.75, 0.75, -0.5])))
    assert split.p_count == 2 and split.n_neg_count == 1
    assert abs(split.pos_part_trace - 1.5) < 1e-14
    assert abs(split.neg_part_trace - 0.5) < 1e-14
    assert abs(split.max_pos_eigenvalue - 0.75) < 1e-14
    split = witness_from_operator(tiles_witness)
    assert abs(split.pos_part_trace - split.neg_part_trace - 1.0) < 1e-10
