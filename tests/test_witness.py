import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from pptball import (
    DensityMatrix,
    HilbertStructure,
    UPBSet,
    build_complete_basis,
    eig_hermitian,
    minimum_overlap,
    omega_state,
    partial_transpose,
    prove_product_minimum,
    witness_value,
)
from pptball.montecarlo import sample_hs_density, sample_random_product_separable
from pptball import robustness as robustness_module
from pptball import witness as witness_module
from pptball.robustness import Certificate
from pptball.upb import ProductState, _overlaps
from pptball.witness import DISTINCT_FIDELITY, MINIMIZER_VALUE_ATOL, _restart_start, _seesaw_once


@pytest.fixture
def quick(monkeypatch):
    """40 seesaw restarts instead of SEESAW_RESTARTS, for sets far from the catalog."""
    monkeypatch.setattr(witness_module, "SEESAW_RESTARTS", 40)


def test_complete_basis_overlap_is_one(complete22, quick):
    lam = minimum_overlap(complete22)
    assert abs(lam.value - 1.0) < 1e-12
    assert lam.converged


def test_complete_basis_multipartite_overlap_is_one(quick):
    upb = build_complete_basis((2, 2, 2))
    lam = minimum_overlap(upb)
    assert abs(lam.value - 1.0) < 1e-12


def _random_orthogonal_product_set(seed, dims, n):
    """n generic product vectors; member j is orthogonal to member i < j on party i % k."""
    rng = np.random.default_rng(seed)
    members = []
    for j in range(n):
        member = []
        for p, d in enumerate(dims):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            fixed = [members[i][p] for i in range(p, j, len(dims))]
            if fixed:
                q, _ = np.linalg.qr(np.column_stack(fixed))
                v = v - q @ (q.conj().T @ v)
            member.append(v / np.linalg.norm(v))
        members.append(member)
    return UPBSet.from_vectors("random", dims, members)


@pytest.mark.parametrize(
    "dims, n",
    [((3,), 2), ((3, 3), 3), ((2, 2, 2), 4), ((2, 2, 2, 2), 3)],
    ids=["1-party", "2-party", "3-party", "4-party"],
)
def test_extendible_orthogonal_sets_have_zero_overlap(dims, n, quick):
    # Each set leaves a product vector orthogonal to all its members, so the
    # descent must reach 0 for any number of parties; P >= 0 lets the proof
    # stop at lambda_min(P) = 0 without a cell.
    upb = _random_orthogonal_product_set(len(dims), dims, n)
    lam = minimum_overlap(upb)
    assert abs(lam.value) < 1e-12
    assert lam.converged
    proof = prove_product_minimum(upb.projector, upb.structure, lam.value)
    assert -1e-11 < proof.lower <= lam.value
    assert proof.cells == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "dims, n",
    [((3,), 2), ((3, 3), 3), ((2, 2, 2), 4), ((2, 2, 2, 2), 3)],
    ids=["1-party", "2-party", "3-party", "4-party"],
)
def test_extendible_sets_are_not_certified(seed, dims, n, quick):
    # The seesaw lands within rounding of 0, on either side; a lambda a few
    # ulps above 0 would give x* = 1 and an empty entangled range (x*, 1).
    # Either sign is refused with the one extendible message.
    upb = _random_orthogonal_product_set(seed, dims, n)
    lam = minimum_overlap(upb)
    with pytest.raises(ValueError, match=f"minimum overlap {re.escape(repr(lam.value))}.*extendible"):
        Certificate(upb, lam.value)


def test_overlaps_are_positive_and_below_ratio(tiles_lambda, pyramid_lambda, shifts_lambda):
    for lam, n, d, distinct in (
        (tiles_lambda, 5, 9, 4),
        (pyramid_lambda, 5, 9, 5),
        (shifts_lambda, 4, 8, 8),
    ):
        assert 0.0 < lam.value < n / d
        assert lam.converged
        assert len(lam.minimizers) == distinct


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_reported_minimizer_does_not_follow_rounding(name, request, monkeypatch):
    # Most of the 200 restarts end within 2e-13 of lambda, far inside
    # MINIMIZER_VALUE_ATOL.  Lifting the lowest of them by 1e-14 must not
    # change which minimizer comes first, nor the converged flag it carries.
    upb = request.getfixturevalue(name)
    values = []

    def record(*args):
        out = _seesaw_once(*args)
        values.append(out[0])
        return out

    monkeypatch.setattr("pptball.witness._seesaw_once", record)
    first = minimum_overlap(upb)
    lowest, calls = int(np.argmin(values)), itertools.count()

    def lift(*args):
        value, *rest = _seesaw_once(*args)
        return (value + 1e-14 if next(calls) == lowest else value, *rest)

    monkeypatch.setattr("pptball.witness._seesaw_once", lift)
    second = minimum_overlap(upb)
    assert second.minimizers[0].fidelity(first.minimizers[0]) >= 1 - 1e-12
    assert second.converged == first.converged


def test_minimizer_achieves_the_overlap(tiles, tiles_lambda):
    v = tiles_lambda.minimizers[0].full_vector
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


@pytest.mark.parametrize("name", ["tiles", "shifts"])
def test_minimizers_are_the_near_restarts_fidelity_keeps(request, monkeypatch, name):
    # The reference rule on ProductStates: a restart within
    # MINIMIZER_VALUE_ATOL of lambda is kept when its fidelity with every
    # kept one is below DISTINCT_FIDELITY.  The seesaw compares plain vectors
    # and validates one ProductState per kept minimizer, not per near restart.
    upb, finals, built = request.getfixturevalue(name), [], []
    post_init = ProductState.__post_init__
    monkeypatch.setattr(
        "pptball.witness._seesaw_once", lambda *args: finals.append(_seesaw_once(*args)) or finals[-1]
    )
    monkeypatch.setattr(ProductState, "__post_init__", lambda self: built.append(post_init(self)))
    result = minimum_overlap(upb)
    assert len(built) == len(result.minimizers)
    monkeypatch.undo()
    reference = []
    for value, phis, _ in finals:
        cand = ProductState(tuple(phis))
        if value <= result.value + MINIMIZER_VALUE_ATOL and all(
            cand.fidelity(kept) < DISTINCT_FIDELITY for kept in reference
        ):
            reference.append(cand)
    assert len(finals) > len(reference) == len(result.minimizers) > 1
    for a, b in zip(reference, result.minimizers):
        assert all(np.array_equal(u, v) for u, v in zip(a.local_vectors, b.local_vectors))


def test_descent_is_monotone_per_half_step(tiles, monkeypatch):
    # Each half-step's value is the least eigenvalue of the party operator it
    # solves; the start's value is the objective at the start vectors.
    mats = [tiles.local_matrix(k) for k in range(2)]
    start = _restart_start((3, 3), 123, 0)
    values = [float(_overlaps(mats, start).sum())]
    eigh = np.linalg.eigh

    def record(m):
        vals, vecs = eigh(m)
        values.append(float(vals[0]))
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", record)
    _seesaw_once(mats, start)
    assert len(values) >= 3
    assert np.all(np.diff(np.asarray(values)) <= 1e-12)


def test_restart_from_minimizer_is_a_fixed_point(tiles, tiles_lambda):
    mats = [tiles.local_matrix(k) for k in range(2)]
    value, _, converged = _seesaw_once(mats, tiles_lambda.minimizers[0].local_vectors)
    assert converged
    assert abs(value - tiles_lambda.value) < 1e-12


def test_restart_start_depends_only_on_seed_and_restart():
    dims = (3, 2, 4)
    forward = {r: _restart_start(dims, 0, r) for r in range(6)}
    backward = {r: _restart_start(dims, 0, r) for r in reversed(range(6))}
    for r in range(6):
        assert [v.shape for v in forward[r]] == [(d,) for d in dims]
        for a, b in zip(forward[r], backward[r]):
            assert np.array_equal(a, b)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-14
        assert not np.allclose(forward[r][0], forward[(r + 1) % 6][0])
        for a, b in zip(forward[r], _restart_start(dims, 1, r)):
            assert not np.allclose(a, b)


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (2, 4)])
def test_restart_start_is_the_inline_box_muller(dims):
    # The seesaw's starts, and so lambda and the proof cells, must not move
    # when the shared Gaussian draw changes: this is the formula they were
    # pinned with, written out.
    for r in range(21):
        gen = random.Random(f"0:{r}")
        expected = []
        for d in dims:
            u = np.array([gen.random() for _ in range(2 * d)]).reshape(2, d)
            v = np.sqrt(-2.0 * np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])
            expected.append(v / np.linalg.norm(v))
        for a, b in zip(_restart_start(dims, 0, r), expected, strict=True):
            assert np.array_equal(a, b), (dims, r)


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


def test_non_convergence_is_flagged(tiles, monkeypatch):
    monkeypatch.setattr(witness_module, "SEESAW_RESTARTS", 3)
    monkeypatch.setattr(witness_module, "SEESAW_MAX_ITERS", 1)
    lam = minimum_overlap(tiles)
    assert not lam.converged


@pytest.mark.parametrize("restarts, max_iters", [(1, 1), (3, 7)])
def test_minimum_overlap_reads_its_counts_at_call_time(tiles, monkeypatch, restarts, max_iters):
    # The counts are module constants, read on every call: one descent per
    # restart, in restart order from the seed's starts, each within the sweep
    # cap of two eigensolves (one per party of tiles) per sweep.
    calls, solves = [], []
    eigh = np.linalg.eigh

    def count(m):
        solves.append(1)
        return eigh(m)

    def record(local_mats, start):
        before = len(solves)
        out = _seesaw_once(local_mats, start)
        calls.append((start, len(solves) - before))
        return out

    monkeypatch.setattr(witness_module, "SEESAW_RESTARTS", restarts)
    monkeypatch.setattr(witness_module, "SEESAW_MAX_ITERS", max_iters)
    monkeypatch.setattr(witness_module, "_seesaw_once", record)
    monkeypatch.setattr(np.linalg, "eigh", count)
    minimum_overlap(tiles, seed=5)
    assert len(calls) == restarts
    assert all(2 <= n <= 2 * max_iters for _, n in calls)  # exactly 2 at a cap of 1
    for r, (start, _) in enumerate(calls):
        expected = _restart_start(tiles.structure.local_dims, 5, r)
        assert all(np.array_equal(a, b) for a, b in zip(start, expected))


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_witness_flat_spectrum(request, name):
    upb = request.getfixturevalue(name)
    lam = request.getfixturevalue(f"{name}_lambda").value
    w = request.getfixturevalue(f"{name}_cert").witness
    n, d = upb.cardinality, upb.total_dim
    assert abs(w.trace - 1.0) < 1e-12
    vals = eig_hermitian(w).eigenvalues
    assert np.abs(vals[: d - n] - (-lam / (n - lam * d))).max() < 1e-10
    assert np.abs(vals[d - n :] - (1 - lam) / (n - lam * d)).max() < 1e-10
    assert abs(vals[vals > 0].sum() - n * (1 - lam) / (n - lam * d)) < 1e-12


def test_witness_detects_complement_state(tiles, tiles_lambda, tiles_cert):
    n, d = 5, 9
    omega = omega_state(tiles)
    lam = tiles_lambda.value
    assert abs(witness_value(tiles_cert.witness, omega) - (-lam / (n - lam * d))) < 1e-12


def test_witness_vanishes_on_minimizer(tiles, tiles_lambda, tiles_cert):
    sigma = tiles_lambda.minimizers[0].to_density()
    assert abs(witness_value(tiles_cert.witness, sigma)) < 1e-8


def test_witness_value_of_any_hermitian_operator_is_that_of_its_matrix(tiles, tiles_cert):
    # A partial transpose and a witness are Hermitian operators that are not
    # states; Tr(W A) reads their matrices as it reads a density matrix's.
    w = tiles_cert.witness
    pt = partial_transpose(tiles_cert.omega, (1,))
    for op in (pt, w, tiles_cert.omega):
        assert witness_value(w, op) == witness_value(w, op.matrix)
    assert witness_value(w, w) == float(np.vdot(w.matrix, w.matrix).real)


def test_witness_value_on_maximally_mixed(tiles, tiles_cert):
    rho = DensityMatrix.maximally_mixed(tiles.structure)
    assert abs(witness_value(tiles_cert.witness, rho) - 1.0 / 9.0) < 1e-12


def test_witness_nonnegative_on_product_states(tiles, tiles_cert):
    for t in range(1000):
        sigma = sample_random_product_separable(tiles.structure, 1, 31, trial=t)
        assert witness_value(tiles_cert.witness, sigma) >= -1e-10


def test_expectation_sandwich(tiles, tiles_cert):
    # Tr(W pi) lies in [-Tr W-, Tr W+] for every state pi.
    w = tiles_cert.witness
    vals = eig_hermitian(w).eigenvalues
    pos_trace, neg_trace = vals[vals > 0].sum(), -vals[vals < 0].sum()
    for t in range(1000):
        pi = sample_hs_density(tiles.structure, 17, trial=t)
        val = witness_value(w, pi)
        assert -neg_trace - 1e-12 <= val <= pos_trace + 1e-12


def test_witness_normalizer_guard(complete22, tiles, monkeypatch):
    # Certificate refuses a set with n = D before it reads lambda.
    with pytest.raises(ValueError, match=r"^the set spans the whole space \(n = D\)"):
        Certificate(complete22, 0.5)
    # A non-finite or clearly negative lambda is refused before the
    # normalizer and the extendibility branch read it.
    refusals = [
        (math.inf, r"^minimum overlap must be finite, got inf$"),
        (-math.inf, r"^minimum overlap must be finite, got -inf$"),
        (math.nan, r"^minimum overlap must be finite, got nan$"),
        (-0.5, r"^minimum overlap -0\.5 is negative, a value no product overlap takes$"),
        (float(5 / 9), r"outside \(0, n/D = 0\.5555555555555556\); the normalizer"),
        (0.0, r"0\.0 is at most ZERO_EIG_ATOL = 1e-12: .* extendible"),
        (1e-13, r"1e-13 is at most ZERO_EIG_ATOL = 1e-12: .* extendible"),
        (5e-13, r"5e-13 is at most ZERO_EIG_ATOL = 1e-12: .* extendible"),
        (-1e-13, r"-1e-13 is at most ZERO_EIG_ATOL = 1e-12: .* extendible"),
    ]
    for lam, message in refusals:
        with pytest.raises(ValueError, match=message):
            Certificate(tiles, lam)
    # The float just below n/D = 5/9 passes the normalizer, which is then a
    # few ulps; the exact violation lambda/(n - lambda D) is what refuses it.
    message = r"^witness violation at lambda = 0\.5555555555555555 exceeds the 1 - 2/D ceiling$"
    with pytest.raises(ValueError, match=message):
        Certificate(tiles, 0.5555555555555555)
    # Tr W = 1 up to the members' norms, which ``UPBSet.from_vectors`` lets
    # miss 1 by UNIT_NORM_ATOL per factor; a trace outside TRACE_ATOL is refused.
    monkeypatch.setattr(robustness_module, "TRACE_ATOL", -1.0)
    with pytest.raises(ValueError, match="^witness trace must be 1"):
        Certificate(tiles, 0.0284162)


def test_witness_module_leaves_the_line_to_robustness():
    # The exact line and its zero-eigenvalue tolerance live beside their
    # callers in robustness; the witness module needs no exact arithmetic.
    for name in ("_line", "ZERO_EIG_ATOL"):
        assert not hasattr(witness_module, name) and hasattr(robustness_module, name)
    source = Path(witness_module.__file__).read_text()
    assert "fractions" not in source and "Fraction" not in source


def test_witness_value_dimension_mismatch(tiles_cert):
    rho = DensityMatrix.maximally_mixed(HilbertStructure((2, 2)))
    with pytest.raises(ValueError, match="mismatch"):
        witness_value(tiles_cert.witness, rho)
