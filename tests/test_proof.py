import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptball import (
    HermitianOperator,
    HilbertStructure,
    build_complete_basis,
    prove_product_minimum,
)
from pptball import proof as proof_module
from pptball.operators import _lowest_eigenvalues
from pptball.proof import PROOF_GAP, PROOF_ROUND, ProductMinimumBound


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vertex_stack_fills_the_triangle_the_kernel_reads(d):
    # _vertex_stack builds L_v = x + x^H + N in place and only in the triangle
    # operators._lowest_eigenvalues reads: the lower one, or at d = 2 the
    # diagonal and entry [0, 1].  There it is bitwise the full sum.
    rng = np.random.default_rng(d)
    blocks, vertices, inner = 6, 8, 2 * d

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    delta = complex_normal(blocks, vertices, inner)
    y = complex_normal(blocks, inner, d, d)
    g = complex_normal(blocks, d, d)
    n_c = g + g.conj().swapaxes(-1, -2)
    x = np.matmul(delta, y.reshape(blocks, inner, d * d)).reshape(blocks, vertices, d, d)
    full = x + x.conj().swapaxes(-1, -2) + n_c[:, None]
    rows, cols = np.triu_indices(d) if d == 2 else np.tril_indices(d)
    stack = proof_module._vertex_stack(delta, y, n_c)
    assert stack.shape == full.shape
    assert stack[..., rows, cols].tobytes() == full[..., rows, cols].tobytes()


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
