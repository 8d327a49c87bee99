import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptball import (
    DensityMatrix,
    HermitianOperator,
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
from pptball import proof as proof_module
from pptball import robustness as robustness_module
from pptball import witness as witness_module
from pptball.proof import (
    PROOF_GAP,
    PROOF_ROUND,
    ProductMinimumBound,
    _lowest_eigenvalues,
)
from pptball.robustness import certify
from pptball.upb import _overlaps
from pptball.witness import _restart_start, _seesaw_once


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
        certify(upb, lam.value)


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
    # certify refuses a set with n = D before it reads lambda.
    with pytest.raises(ValueError, match=r"^the set spans the whole space \(n = D\)"):
        certify(complete22, 0.5)
    for lam in (float(5 / 9), math.inf, -math.inf):
        with pytest.raises(ValueError, match="normalizer"):
            certify(tiles, lam)
    with pytest.raises(ValueError, match=r"0\.0 is at most ZERO_EIG_ATOL = 1e-12: .* extendible"):
        certify(tiles, 0.0)
    with pytest.raises(ValueError, match=r"1e-13 is at most ZERO_EIG_ATOL = 1e-12: .* extendible"):
        certify(tiles, 1e-13)
    # The float just below n/D = 5/9 passes the normalizer, which is then a
    # few ulps; the exact violation lambda/(n - lambda D) is what refuses it.
    message = r"^witness violation at lambda = 0\.5555555555555555 exceeds the 1 - 2/D ceiling$"
    with pytest.raises(ValueError, match=message):
        certify(tiles, 0.5555555555555555)
    # Tr W = 1 up to the members' norms, which ``UPBSet.from_vectors`` lets
    # miss 1 by UNIT_NORM_ATOL per factor; a trace outside TRACE_ATOL is refused.
    monkeypatch.setattr(robustness_module, "TRACE_ATOL", -1.0)
    with pytest.raises(ValueError, match="^witness trace must be 1"):
        certify(tiles, 0.0284162)


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


# Minimum product overlaps of two catalog sets, from the seesaw.
LAMBDA_REF = {"tiles": 0.028416213335730, "shifts": 0.081441346456309}


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def _random_products(dims, count, rng):
    """``count`` random unit product vectors, shape (count, prod(dims))."""
    out = np.ones((count, 1), dtype=complex)
    for d in dims:
        v = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        out = (out[:, :, None] * v[:, None, :]).reshape(count, -1)
    return out


def _product_seesaw(w, dims, rng, restarts=4, sweeps=40):
    """The smallest <W> an alternating descent over product states reaches."""
    n = len(dims)
    tensor = w.matrix.reshape(dims + dims)
    best = np.inf
    for _ in range(restarts):
        vecs = [_random_products((d,), 1, rng)[0] for d in dims]
        for _ in range(sweeps):
            for k in range(n):
                order = [j for j in range(n) if j != k] + [k]
                rest = np.ones(1, dtype=complex)
                for j in order[:-1]:
                    rest = np.kron(rest, vecs[j])
                t = tensor.transpose(order + [n + j for j in order])
                t = t.reshape(rest.size, dims[k], rest.size, dims[k])
                vals, evecs = np.linalg.eigh(np.einsum("i,iajb,j->ab", rest.conj(), t, rest))
                vecs[k] = evecs[:, 0]
        best = min(best, float(vals[0]))
    return best


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]))
def test_proof_is_below_every_product_value(seed, dims):
    rng = np.random.default_rng(seed)
    w = _random_hermitian(int(np.prod(dims)), rng)
    upper = _product_seesaw(w, dims, rng)
    # A loose gap keeps the cell counts small.
    gap = 1e-3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(proof_module, "PROOF_GAP", gap)
        proof = prove_product_minimum(w, HilbertStructure(dims), upper)
    assert proof.lower <= upper
    assert proof.upper - gap <= proof.lower <= proof.upper
    vecs = _random_products(dims, 2000, rng)
    values = np.einsum("ni,ij,nj->n", vecs.conj(), w.matrix, vecs).real
    assert proof.lower <= values.min()


def test_proof_lowers_a_target_above_the_minimum(monkeypatch, tiles, tiles_lambda):
    # Starting 1e-3 too high, the target follows the cell centres down to
    # within the gap of the minimum.
    gap = 1e-6
    monkeypatch.setattr(proof_module, "PROOF_GAP", gap)
    proof = prove_product_minimum(tiles.projector, tiles.structure, tiles_lambda.value + 1e-3)
    assert proof.upper < tiles_lambda.value + gap
    assert proof.lower <= tiles_lambda.value
    assert proof.lower >= proof.upper - gap


def test_proof_cells_do_not_depend_on_the_block_size(monkeypatch, tiles, shifts):
    monkeypatch.setattr(proof_module, "PROOF_GAP", 1e-3)
    for upb in (tiles, shifts):
        runs = []
        for block in (2**15, 2**20):
            monkeypatch.setattr(proof_module, "PROOF_BLOCK_BYTES", block)
            lam = LAMBDA_REF[upb.name]
            runs.append(prove_product_minimum(upb.projector, upb.structure, lam))
        assert runs[0] == runs[1]
        assert runs[0].cells > 0


def test_proof_memory_is_a_few_vertex_blocks(monkeypatch, tiles, shifts):
    # A block's vertex matrices and its vertex offsets each take at most about
    # PROOF_BLOCK_BYTES; the level's cells take far less.  The default block
    # keeps a proof's traced peak below 1 MiB.
    assert proof_module.PROOF_BLOCK_BYTES <= 2**17
    limit = min(8 * proof_module.PROOF_BLOCK_BYTES, 2**20)
    monkeypatch.setattr(proof_module, "PROOF_GAP", 1e-4)
    for upb in (tiles, shifts):
        tracemalloc.start()
        try:
            prove_product_minimum(upb.projector, upb.structure, LAMBDA_REF[upb.name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{upb.name}: peak {peak / 2**20:.2f} MiB"


def _no_refutation(n_c, y, centre, delta):
    """A Rayleigh bound that refutes nothing: every cell goes to the vertex eigensolve."""
    return np.full(delta.shape[:2], np.inf)


def _proof_levels(w, structure, upper):
    """The proof's prelude (h4, lambda_min, norm, root) for W and a generator of its levels."""
    prelude = proof_module._prelude(w, structure)
    return prelude, proof_module._levels(structure, upper, *prelude)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(3, 3), (2, 3), (3, 2, 3)]))
def test_rayleigh_refutation_changes_no_cell(seed, dims):
    # Every cell the Rayleigh quotient refutes also fails the full vertex
    # eigensolve: each level's failed cells, and so the whole proof, are the
    # same with the refutation on and off.  Three-party proofs on a random W
    # need hundreds of thousands of cells, so they stop after a few thousand.
    rng = np.random.default_rng(seed)
    w = _random_hermitian(int(np.prod(dims)), rng)
    upper = _product_seesaw(w, dims, rng, restarts=2)
    structure = HilbertStructure(dims)

    def patch(mp, refute):
        mp.setattr(proof_module, "PROOF_GAP", 1e-3)
        mp.setattr(proof_module, "PROOF_MAX_CELLS", 50_000 if len(dims) == 2 else 3_000)
        if not refute:
            mp.setattr(proof_module, "_rayleigh_bounds", _no_refutation)

    def levels(refute):
        """The proof's prelude and level records, ending in None if it ran out of cells."""
        records = []
        with pytest.MonkeyPatch.context() as mp:
            patch(mp, refute)
            prelude, levels = _proof_levels(w, structure, upper)
            try:
                records.extend(levels)
            except RuntimeError:
                records.append(None)
        return prelude, records

    (h4, _, norm_w, root), proof = levels(refute=True)
    _, reference = levels(refute=False)
    assert len(proof) == len(reference)
    for level, plain in zip(proof, reference):
        if level is None or plain is None:
            assert level is plain
            continue
        assert (level.t, level.upper) == (plain.t, plain.upper)
        np.testing.assert_array_equal(level.failed, plain.failed)
        assert plain.refuted == 0
    # The public result with the refutation on is the bound the reference's
    # records give: t of a last level whose every cell passed, else the root.
    with pytest.MonkeyPatch.context() as mp:
        patch(mp, refute=True)
        try:
            result = prove_product_minimum(w, structure, upper)
        except RuntimeError:
            result = None
    if reference and reference[-1] is None:
        assert result is None and len(dims) == 3
    else:
        passed = bool(reference) and not reference[-1].failed.any()
        assert result == ProductMinimumBound(
            lower=reference[-1].t if passed else root,
            upper=reference[-1].upper if reference else upper,
            cells=sum(level.failed.size for level in reference),
        )
    # What the refutation rests on, vertex by vertex: the computed lowest
    # eigenvalue is at most the Rayleigh quotient, up to rounding.
    for level in proof[:-1] if proof[-1] is None else proof:
        offsets = proof_module._party_offsets(dims[:-1], level.half)
        for start in range(0, level.failed.size, 1024):
            part = slice(start, start + 1024)
            centre, vertex = proof_module._product_vectors(
                dims[:-1], level.charts[part], level.centres[part], offsets
            )
            y, n_c = proof_module._centre_matrices(h4, centre)
            delta, _ = proof_module._vertex_offsets(vertex, centre)
            quotient = proof_module._rayleigh_bounds(n_c, y, centre, delta)
            lowest_v = _lowest_eigenvalues(proof_module._vertex_stack(delta, y, n_c))
            reach = np.linalg.norm(delta, axis=2).max(axis=1)[:, None]
            size = np.linalg.norm(centre, axis=2) + reach
            assert np.all(lowest_v <= quotient + PROOF_ROUND * norm_w * size**2)


@pytest.fixture(scope="module")
def catalog_proof(tiles, pyramid, shifts, tiles_lambda, pyramid_lambda, shifts_lambda):
    """One proof per catalog set at its seed-0 lambda, run on first use and kept for the module.

    ``catalog_proof(name)`` returns the set, its lambda, the proof's prelude
    (``proof._prelude``) and the list of its level records.  Only the records
    are kept; the public result of the same proof is pinned by the acceptance
    suite's criterion 1, which runs it anyway.
    """
    sets = {"tiles": (tiles, tiles_lambda), "pyramid": (pyramid, pyramid_lambda),
            "shifts": (shifts, shifts_lambda)}
    proofs = {}

    def proof(name):
        if name not in proofs:
            upb, lam = sets[name]
            prelude, levels = _proof_levels(upb.projector, upb.structure, lam.value)
            proofs[name] = upb, lam, prelude, list(levels)
        return proofs[name]

    return proof


@pytest.mark.parametrize(
    "name, cells", [("tiles", 26637), ("pyramid", 32973), ("shifts", 83840)]
)
def test_catalog_proof_cells_are_pinned(name, cells, catalog_proof):
    # At the seed-0 seesaw lambda.  On tiles and pyramid the Rayleigh
    # quotient refutes most failing cells before their vertex eigensolve;
    # on shifts (d = 2) every cell goes to the closed form.
    _, lam, _, levels = catalog_proof(name)
    assert sum(level.failed.size for level in levels) == cells
    assert levels[-1].upper == lam.value
    # Every cell of the last level passed, so lambda_lo is its t; lambda_lo
    # > 0 is what proves the set unextendible.
    assert not levels[-1].failed.any()
    assert levels[-1].t > 0
    failed = sum(int(level.failed.sum()) for level in levels)
    refuted = sum(level.refuted for level in levels)
    if name == "shifts":
        assert refuted == 0
    else:
        assert refuted > 0.8 * failed


@pytest.mark.parametrize("dims", [(3,), (4,)])
def test_single_party_proof_is_the_lowest_eigenvalue(dims):
    w = _random_hermitian(dims[0], np.random.default_rng(dims[0]))
    lowest = float(np.linalg.eigvalsh(w.matrix)[0])
    proof = prove_product_minimum(w, HilbertStructure(dims), lowest + 1.0)
    assert abs(proof.lower - lowest) < 1e-10
    assert proof.lower <= lowest
    assert proof.upper == lowest and proof.cells == 0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_complete_basis_proof_is_one(dims):
    upb = build_complete_basis(dims)
    proof = prove_product_minimum(upb.projector, upb.structure, 1.0)
    assert 1.0 - 1e-10 < proof.lower <= 1.0
    assert proof.cells == 0


def test_proof_rejects_bad_input(tiles):
    with pytest.raises(ValueError, match="^operator dimension does not match the structure$"):
        prove_product_minimum(tiles.projector, HilbertStructure((2, 2)), 0.1)
    for upper in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            prove_product_minimum(tiles.projector, tiles.structure, upper)
    triangle = np.triu(np.ones((9, 9)), 1)
    with pytest.raises(ValueError, match="matrix is not Hermitian"):
        prove_product_minimum(triangle, tiles.structure, 0.1)
    # No product state has a value below lambda_min(W) less the margin.
    with pytest.raises(ValueError, match="upper must be at least"):
        prove_product_minimum(tiles.projector, tiles.structure, -10.0)
    with pytest.raises(ValueError, match="upper must be at least"):
        prove_product_minimum(np.diag([0.5, 1.0, 2.0]), HilbertStructure((3,)), -3.0)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_proof_stopped_at_the_root_returns_the_root(dims):
    # The first level's centres include the minimizer (value 0.1), so t falls
    # below lambda_min(W) less the margin while a cell still fails at the
    # first level's t = 0.10099999, which is above the minimum.
    w = HermitianOperator(np.diag(np.linspace(0.1, 1.0, int(np.prod(dims)))))
    structure = HilbertStructure(dims)
    (*_, root), levels = _proof_levels(w, structure, 0.101)
    levels = list(levels)
    assert len(levels) == 1 and levels[0].failed.any()
    assert levels[0].t == 0.101 - PROOF_GAP
    proof = prove_product_minimum(w, structure, 0.101)
    assert proof.lower == root
    assert proof.lower <= 0.1


def test_proof_takes_a_plain_hermitian_array(tiles, tiles_lambda):
    # The bound a01 pins for the operator tiles.projector.
    lam = tiles_lambda.value
    proof = prove_product_minimum(tiles.projector.matrix, tiles.structure, lam)
    assert proof == ProductMinimumBound(lower=lam - PROOF_GAP, upper=lam, cells=26637)


def _leaf_cells(upb, h4, levels, picks):
    """Cells ``picks`` of the proof's last level, their vertex offsets and vertex matrices.

    The matrices are rebuilt by the helpers the proof uses, whether or not
    the Rayleigh quotient refuted the cell.
    """
    dims = upb.structure.local_dims[:-1]
    level = levels[-1]
    charts, centres = level.charts[picks], level.centres[picks]
    offsets = proof_module._party_offsets(dims, level.half)
    centre, vertex = proof_module._product_vectors(dims, charts, centres, offsets)
    y, n_c = proof_module._centre_matrices(h4, centre)
    delta, _ = proof_module._vertex_offsets(vertex, centre)
    return charts, centres, offsets, proof_module._vertex_stack(delta, y, n_c)


def _interval_cholesky_succeeds(matrix):
    """True if every real symmetric matrix in the interval matrix is positive definite."""
    from mpmath import iv

    n = len(matrix)
    low = [[None] * n for _ in range(n)]
    for k in range(n):
        pivot = matrix[k][k] - sum((low[k][m] ** 2 for m in range(k)), iv.mpf(0))
        if not pivot.a > 0:
            return False
        low[k][k] = iv.sqrt(pivot)
        for i in range(k + 1, n):
            acc = matrix[i][k] - sum((low[i][m] * low[k][m] for m in range(k)), iv.mpf(0))
            low[i][k] = acc / low[k][k]
    return True


def _shifted_real_embedding(m, shift):
    """[[Re, -Im], [Im, Re]] of M - shift I for an interval matrix M of (re, im) pairs.

    It has the eigenvalues of M - shift I, each twice.
    """
    last = len(m)
    real = [[None] * (2 * last) for _ in range(2 * last)]
    for a in range(last):
        for b in range(last):
            re, im = m[a][b]
            if a == b:
                re = re - shift
            real[a][b] = real[a + last][b + last] = re
            real[a + last][b], real[a][b + last] = im, -im
    return real


def _interval_pairs(array):
    """A complex array as an object array of (re, im) interval pairs, each float taken as exact."""
    from mpmath import iv

    return np.frompyfunc(lambda x: (iv.mpf(x.real), iv.mpf(x.imag)), 1, 1)(array)


def _interval_vertex_matrix(h4, dims, chart, centre, offset):
    """L_v = X(Phi_c, Phi_v) + X(Phi_v, Phi_c) - N(Phi_c) and s_v in interval arithmetic.

    s_v = 2 Re <Phi_c|Phi_v> - |Phi_c|^2 is the same form with W = I.
    Complex numbers are (re, im) pairs of intervals, ``h4`` is W's (D', D', d, d)
    blocks (``proof._prelude``) as an array of them (``_interval_pairs``), and
    every float input is taken as exact.
    """
    from mpmath import iv

    def vectors(coords):
        out = [(iv.mpf(1), iv.mpf(0))]
        start = 0
        for j, d in enumerate(dims):
            z = [(iv.mpf(coords[start + 2 * m]), iv.mpf(coords[start + 2 * m + 1]))
                 for m in range(d - 1)]
            vec = z[: chart[j]] + [(iv.mpf(1), iv.mpf(0))] + z[chart[j] :]
            out = [(a * c - b * e, a * e + b * c) for a, b in out for c, e in vec]
            start += 2 * (d - 1)
        return out

    c, v = vectors(centre), vectors(centre + offset)
    # coef[i][j] = conj(c_i) v_j + conj(v_i) c_j - conj(c_i) c_j
    coef = [
        [
            (
                c[i][0] * v[j][0] + c[i][1] * v[j][1] + v[i][0] * c[j][0] + v[i][1] * c[j][1]
                - c[i][0] * c[j][0] - c[i][1] * c[j][1],
                c[i][0] * v[j][1] - c[i][1] * v[j][0] + v[i][0] * c[j][1] - v[i][1] * c[j][0]
                - c[i][0] * c[j][1] + c[i][1] * c[j][0],
            )
            for j in range(len(c))
        ]
        for i in range(len(c))
    ]
    rest, last = h4.shape[0], h4.shape[2]
    out = []
    for a in range(last):
        row = []
        for b in range(last):
            re, im = iv.mpf(0), iv.mpf(0)
            for i in range(rest):
                for j in range(rest):
                    h_re, h_im = h4[i, j, a, b]
                    re += coef[i][j][0] * h_re - coef[i][j][1] * h_im
                    im += coef[i][j][0] * h_im + coef[i][j][1] * h_re
            row.append((re, im))
        out.append(row)
    return out, sum((coef[i][i][0] for i in range(rest)), iv.mpf(0))


@pytest.mark.parametrize("name", ["tiles", "shifts"])
def test_rounding_margin_covers_leaf_vertex_eigenvalues(monkeypatch, name, catalog_proof):
    from mpmath import iv

    upb, _, (h4, *_), levels = catalog_proof(name)
    picks = np.linspace(0, levels[-1].failed.size - 1, 2).astype(int)
    charts, centres, offsets, stack = _leaf_cells(upb, h4, levels, picks)
    dims = upb.structure.local_dims[:-1]
    monkeypatch.setattr(iv, "prec", 200)
    h4 = _interval_pairs(h4)
    floats = _lowest_eigenvalues(stack)
    vertex_offsets = [np.concatenate(combo) for combo in itertools.product(*offsets)]
    checked = 0
    for cell in range(len(picks)):
        for v, offset in enumerate(vertex_offsets):
            m, _ = _interval_vertex_matrix(h4, dims, charts[cell], centres[cell], offset)
            for shift, proven in ((floats[cell, v] - PROOF_ROUND, True),
                                  (floats[cell, v] + 1e-9, False)):
                real = _shifted_real_embedding(m, iv.mpf(shift))
                assert _interval_cholesky_succeeds(real) is proven, (cell, v, shift)
            checked += 1
    assert checked == 2 * len(vertex_offsets)


def _audit_accepted_cells(monkeypatch, proof, count):
    """Re-check ``count`` accepted cells of a proof, and its root, in interval arithmetic.

    The cells are spaced evenly over all accepted cells of all levels, with
    no random choice.  At each of a cell's vertices v, L_v - (t s_v +
    |c| rho^2) I must be positive definite, with c = min(root - t, 0): this
    is the acceptance test without the PROOF_ROUND margin, which the margin
    must guarantee.  W - root I must be positive definite too.  Every float
    input is taken as exact.
    """
    from mpmath import iv

    monkeypatch.setattr(iv, "prec", 200)
    upb, _, (h4, _, _, root), levels = proof
    dims = upb.structure.local_dims[:-1]
    bounds = np.cumsum([0] + [2 * (d - 1) for d in dims])
    parties = list(zip(bounds[:-1], bounds[1:]))
    # h4 back to the (D, D) matrix whose lambda_min gave the root.
    h = h4.transpose(0, 2, 1, 3).reshape(upb.total_dim, upb.total_dim)
    assert _interval_cholesky_succeeds(_shifted_real_embedding(_interval_pairs(h), iv.mpf(root)))
    h4 = _interval_pairs(h4)
    accepted = [(level, cell) for level in levels for cell in np.flatnonzero(~level.failed)]
    for index in np.linspace(0, len(accepted) - 1, count).astype(int):
        level, cell = accepted[index]
        chart, centre = level.charts[cell], level.centres[cell]
        # Every examined level has t > root, so |c| = t - root.
        assert level.t > root
        curvature = iv.mpf(level.t) - iv.mpf(root)
        norms = [iv.sqrt(1 + sum(iv.mpf(x) ** 2 for x in centre[a:b])) for a, b in parties]
        radii = [iv.sqrt(sum(iv.mpf(x) ** 2 for x in level.half[a:b])) for a, b in parties]
        rho = math.prod(n + r for n, r in zip(norms, radii)) - math.prod(norms)
        offsets = proof_module._party_offsets(dims, level.half)
        for offset in map(np.concatenate, itertools.product(*offsets)):
            m, s_v = _interval_vertex_matrix(h4, dims, chart, centre, offset)
            shift = iv.mpf(level.t) * s_v + curvature * rho**2
            real = _shifted_real_embedding(m, shift)
            assert _interval_cholesky_succeeds(real), (level.level, cell)


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_accepted_cells_pass_an_interval_audit(monkeypatch, name, catalog_proof):
    _audit_accepted_cells(monkeypatch, catalog_proof(name), 8)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_a_thousand_accepted_cells_pass_an_interval_audit(monkeypatch, name, catalog_proof):
    _audit_accepted_cells(monkeypatch, catalog_proof(name), 1000)
