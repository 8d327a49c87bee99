import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    prove_product_minimum,
    witness_from_operator,
    witness_value,
)
from pptball.montecarlo import (
    SamplerConfig,
    sample_hs_density,
    sample_random_product_separable,
)
from pptball import proof as proof_module
from pptball.proof import PROOF_ROUND, _lowest_eigenvalues
from pptball.witness import _restart_start, _seesaw_once

QUICK = SeesawConfig(restarts=40)


def test_complete_basis_overlap_is_one(complete22):
    lam = minimum_overlap(complete22, QUICK)
    assert abs(lam.value - 1.0) < 1e-12
    assert lam.converged


def test_complete_basis_multipartite_overlap_is_one():
    upb = build_complete_basis((2, 2, 2))
    lam = minimum_overlap(upb, QUICK)
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
def test_extendible_orthogonal_sets_have_zero_overlap(dims, n):
    # Each set leaves a product vector orthogonal to all its members, so the
    # descent must reach 0 for any number of parties; P >= 0 lets the proof
    # stop at lambda_min(P) = 0 without a cell.
    upb = _random_orthogonal_product_set(len(dims), dims, n)
    lam = minimum_overlap(upb, QUICK)
    assert abs(lam.value) < 1e-12
    assert lam.converged
    proof = prove_product_minimum(upb.projector, upb.structure, lam.value)
    assert -1e-11 < proof.lower <= lam.value
    assert proof.cells == 0


def test_overlaps_are_positive_and_below_ratio(tiles_lambda, pyramid_lambda, shifts_lambda):
    for lam, n, d in (
        (tiles_lambda, 5, 9),
        (pyramid_lambda, 5, 9),
        (shifts_lambda, 4, 8),
    ):
        assert 0.0 < lam.value < n / d
        assert lam.converged


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


def test_descent_is_monotone_per_half_step(tiles):
    mats = [tiles.local_matrix(k) for k in range(2)]
    _, _, _, history = _seesaw_once(mats, _restart_start((3, 3), 123, 0), 500)
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs <= 1e-12)


def test_restart_from_minimizer_is_a_fixed_point(tiles, tiles_lambda):
    mats = [tiles.local_matrix(k) for k in range(2)]
    value, _, converged, _ = _seesaw_once(mats, tiles_lambda.minimizers[0].local_vectors, 500)
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
    sigma = tiles_lambda.minimizers[0].to_density(tiles.structure)
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


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(3, 3), (2, 3), (3, 2, 3)]))
def test_rayleigh_refutation_changes_no_cell(seed, dims):
    # Every cell the Rayleigh quotient refutes also fails the full vertex
    # eigensolve: each block's failed cells, and so the whole proof, are the
    # same with the refutation on and off.  Three-party proofs on a random W
    # need hundreds of thousands of cells, so they stop after a few thousand.
    rng = np.random.default_rng(seed)
    w = _random_hermitian(int(np.prod(dims)), rng)
    upper = _product_seesaw(w, dims, rng, restarts=2)
    norm_w = float(np.abs(np.linalg.eigvalsh(w.matrix)).max())
    examine = proof_module._examine_block

    def both(h4, dims, charts, centres, offsets, *rest):
        failed, lowest = examine(h4, dims, charts, centres, offsets, *rest)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(proof_module, "_rayleigh_bounds", _no_refutation)
            plain = examine(h4, dims, charts, centres, offsets, *rest)
        np.testing.assert_array_equal(failed, plain[0])
        assert lowest == plain[1]
        # What the refutation rests on, vertex by vertex: the computed lowest
        # eigenvalue is at most the Rayleigh quotient, up to rounding.
        centre, vertex = proof_module._product_vectors(dims, charts, centres, offsets)
        y, n_c = proof_module._centre_matrices(h4, centre)
        delta, _ = proof_module._vertex_offsets(vertex, centre)
        quotient = proof_module._rayleigh_bounds(n_c, y, centre, delta)
        lowest_v = _lowest_eigenvalues(proof_module._vertex_stack(delta, y, n_c))
        size = np.linalg.norm(centre, axis=2) + np.linalg.norm(delta, axis=2).max(axis=1)[:, None]
        assert np.all(lowest_v <= quotient + PROOF_ROUND * norm_w * size**2)
        return failed, lowest

    def prove(name, replacement):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(proof_module, "PROOF_GAP", 1e-3)
            mp.setattr(proof_module, "PROOF_MAX_CELLS", 50_000 if len(dims) == 2 else 3_000)
            mp.setattr(proof_module, name, replacement)
            try:
                return prove_product_minimum(w, HilbertStructure(dims), upper)
            except RuntimeError:
                return None

    proof = prove("_examine_block", both)
    assert proof == prove("_rayleigh_bounds", _no_refutation)
    assert proof is not None or len(dims) == 3


@pytest.mark.parametrize(
    "name, cells", [("tiles", 26637), ("pyramid", 32973), ("shifts", 83840)]
)
def test_catalog_proof_cells_are_pinned(name, cells, request, monkeypatch):
    # At the seed-0 seesaw lambda.  On tiles and pyramid the Rayleigh
    # quotient refutes most failing cells before their vertex eigensolve;
    # on shifts (d = 2) every cell goes to the closed form.
    upb, lam = request.getfixturevalue(name), request.getfixturevalue(f"{name}_lambda")
    examine, stack_of = proof_module._examine_block, proof_module._vertex_stack
    failed, solved = [], []

    def count_failed(*args):
        out = examine(*args)
        failed.append(int(out[0].sum()))
        return out

    def count_solved(delta, y, n_c):
        solved.append(delta.shape[0])
        return stack_of(delta, y, n_c)

    monkeypatch.setattr(proof_module, "_examine_block", count_failed)
    monkeypatch.setattr(proof_module, "_vertex_stack", count_solved)
    proof = prove_product_minimum(upb.projector, upb.structure, lam.value)
    assert proof.cells == cells
    assert proof.upper == lam.value
    # lambda_lo > 0 is what proves the set unextendible.
    assert proof.lower > 0
    refuted = cells - sum(solved)
    if name == "shifts":
        assert refuted == 0
    else:
        assert refuted > 0.8 * sum(failed)


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
    with pytest.raises(ValueError, match="mismatch"):
        prove_product_minimum(tiles.projector, HilbertStructure((2, 2)), 0.1)
    for upper in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            prove_product_minimum(tiles.projector, tiles.structure, upper)


def _leaf_cells(monkeypatch, upb, lam):
    """Cells of the last block the proof examined, with their vertex offsets and matrices.

    The matrices are rebuilt by the helpers the proof uses, for every cell
    of the block, whether or not the Rayleigh quotient refuted it.
    """
    seen = []
    examine = proof_module._examine_block

    def record(h4, dims, charts, centres, offsets, *rest):
        seen.append((h4, dims, charts, centres, offsets))
        return examine(h4, dims, charts, centres, offsets, *rest)

    monkeypatch.setattr(proof_module, "_examine_block", record)
    prove_product_minimum(upb.projector, upb.structure, lam)
    h4, dims, charts, centres, offsets = seen[-1]
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


def _interval_vertex_matrix(h4, dims, chart, centre, offset):
    """L_v = X(Phi_c, Phi_v) + X(Phi_v, Phi_c) - N(Phi_c) in interval arithmetic.

    Complex numbers are (re, im) pairs of intervals; ``h4`` is W as
    (D', d, D', d) and every float input is taken as exact.
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
    rest, last = h4.shape[0], h4.shape[1]
    out = []
    for a in range(last):
        row = []
        for b in range(last):
            re, im = iv.mpf(0), iv.mpf(0)
            for i in range(rest):
                for j in range(rest):
                    h = h4[i, a, j, b]
                    re += coef[i][j][0] * h.real - coef[i][j][1] * h.imag
                    im += coef[i][j][0] * h.imag + coef[i][j][1] * h.real
            row.append((re, im))
        out.append(row)
    return out


@pytest.mark.parametrize("name", ["tiles", "shifts"])
def test_rounding_margin_covers_leaf_vertex_eigenvalues(monkeypatch, name, tiles, shifts):
    from mpmath import iv

    upb = {"tiles": tiles, "shifts": shifts}[name]
    charts, centres, offsets, stack = _leaf_cells(monkeypatch, upb, LAMBDA_REF[name])
    dims, last = upb.structure.local_dims[:-1], upb.structure.local_dims[-1]
    rest = upb.total_dim // last
    h4 = ((upb.projector.matrix + upb.projector.matrix.conj().T) / 2).reshape(rest, last, rest, last)
    floats = _lowest_eigenvalues(stack)
    vertex_offsets = [np.concatenate(combo) for combo in itertools.product(*offsets)]
    monkeypatch.setattr(iv, "prec", 200)
    checked = 0
    for cell in np.linspace(0, charts.shape[0] - 1, 2).astype(int):
        for v, offset in enumerate(vertex_offsets):
            m = _interval_vertex_matrix(h4, dims, charts[cell], centres[cell], offset)
            for shift, proven in ((floats[cell, v] - PROOF_ROUND, True),
                                  (floats[cell, v] + 1e-9, False)):
                # Real embedding [[Re, -Im], [Im, Re]] of M - shift I: same
                # eigenvalues, each twice.
                real = [[None] * (2 * last) for _ in range(2 * last)]
                for a in range(last):
                    for b in range(last):
                        re, im = m[a][b]
                        if a == b:
                            re = re - iv.mpf(shift)
                        real[a][b] = real[a + last][b + last] = re
                        real[a + last][b], real[a][b + last] = im, -im
                assert _interval_cholesky_succeeds(real) is proven, (cell, v, shift)
            checked += 1
    assert checked == 2 * len(vertex_offsets)
