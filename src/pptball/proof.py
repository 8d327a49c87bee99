"""A proven lower bound on the minimum of <W> over product states.

``prove_product_minimum`` bounds min over product states of <W> from below,
for any Hermitian operator W and structure, by a vertex branch-and-bound over
affine charts of the product states; it uses numpy alone.  The seesaw of
``witness.minimum_overlap`` only ever gives an upper estimate of the minimum
product overlap lambda; W = (P - lambda I)/(n - lambda D) is a witness only if
lambda is at most the true minimum, which this bound establishes.

The search runs level by level in the private generator ``_levels``, one
``_Level`` record per examined level.  Exit rule: ``lower`` is t of a level
whose every cell passed, or lambda_min(W) less the rounding margin when t falls
to that root first; a level with a failing cell proves nothing at its t.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, HilbertStructure, _kron_rows, _operator, _real
from .operators import _structure_of

# prove_product_minimum proves <W> >= (best product value found) - PROOF_GAP.
# The cell bound is second order in the cell size, so cells near a minimizer
# close once their size is about sqrt(PROOF_GAP).
PROOF_GAP = 1e-8
# Rounding margin of a cell bound, relative to the bound ||M|| <= (||W|| + |t|)
# prod_j (|c_j| + r_j)^2 on every vertex matrix M and on the scalar terms
# (t s_v, the remainder) beside it.  The float vertex matrix is M + E with
# |E| <= c1 u ||M|| (u = 2^-53, c1 of the order of the number of terms each
# entry sums), so by Weyl's inequality its eigenvalues move by at most |E|.
# eigvalsh is backward stable: it returns the exact eigenvalues of M + E + F
# with |F| <= c2 u ||M|| (and so does the 2x2 closed form), so
# |delta lambda| <= (c1 + c2) u ||M||.  PROOF_ROUND = 1e-12 allows c1 + c2 up
# to about 9000; for the catalog sets (at most 9 terms per entry, order 3)
# they are a few tens.  The same margin, scaled by ||W||, covers lambda_min(W).
# Before the vertex eigensolve (last party of dimension d > 2), a cell is
# tested by the Rayleigh quotients u^dag L_v u of its centre's lowest
# eigenvector u, each at least lambda_min(L_v) (Courant-Fischer).  The
# computed quotient and the computed eigenvalue each lie within one margin of
# their exact values, so a cell whose quotients miss the eigensolve's test by
# two margins fails that test too: refuting it skips the cell's vertex
# eigensolves and changes no result.
PROOF_ROUND = 1e-12
# Bytes of vertex matrices one block of cells holds (128 KiB).  A block's
# vertex matrices are built in one array, only for the cells the Rayleigh
# quotients leave, and its arrays are freed before the next block's, so a
# proof's traced peak is a few blocks: 0.34 MiB on tiles and 0.57 MiB on
# shifts, against 0.9 and 1.65 MiB at 2**19.  Smaller blocks add per-block
# overhead: a tiles proof takes 0.52 / 0.58 / 0.69 s and a shifts proof
# 0.32 / 0.39 / 0.60 s at 2**17 / 2**16 / 2**15 (median of 5, 2-vCPU VM, one
# BLAS thread), while 2**16 lowers the lambda command's peak RSS by 0.18 MB.
PROOF_BLOCK_BYTES = 2**17
# Cells a proof may examine before it gives up with RuntimeError.
PROOF_MAX_CELLS = 2_000_000


@dataclass(frozen=True)
class ProductMinimumBound:
    """Proof that <W> >= ``lower`` on every product state.

    ``upper`` is the smallest product value the search evaluated (the
    ``upper`` it was given, or a cell centre below it) and ``cells`` counts
    the cells it examined.
    """

    lower: float
    upper: float
    cells: int


# One examined level: cell i lies in chart charts[i] around centres[i] with half-widths
# ``half``; ``refuted`` counts the failed cells the Rayleigh quotients refuted (0 when the
# last party has d = 2), and ``upper`` is the least product value found so far.
_Level = namedtuple("_Level", "level t charts centres half failed refuted upper")


def _chart_vectors(d: int, charts: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Vectors of one party in its affine charts, shape (C, V, d).

    ``charts`` (C,) picks the component set to 1; ``coords`` (C, V, 2(d-1))
    holds the real and imaginary parts of the other components in order.
    """
    base = np.empty(coords.shape[:2] + (d,), dtype=complex)
    base[..., 0] = 1.0
    base[..., 1:] = coords[..., 0::2] + 1j * coords[..., 1::2]
    # pos[k] sends the chart-k layout [1, z_0, z_1, ...] to component order.
    pos = np.array([[0 if i == k else i + (i < k) for i in range(d)] for k in range(d)])
    return np.take_along_axis(base, pos[charts][:, None, :], axis=2)


def _product_vectors(dims, charts: np.ndarray, centres: np.ndarray, offsets):
    """Kronecker products of the chart vectors at the cell centres and at centre + offset.

    ``offsets[j]`` (V_j, 2(d_j - 1)) lists party j's offsets.  Returns the
    centre products Phi_c, shape (C, 1, D'), and the V = prod V_j vertex
    products Phi_v, shape (C, V, D'), which run over every combination,
    party 0 slowest.
    """
    centre = vertex = np.ones((charts.shape[0], 1, 1), dtype=complex)
    start = 0
    for j, (d, off) in enumerate(zip(dims, offsets)):
        # Row 0 is the centre, the rows after it the vertices.
        off = np.vstack([np.zeros_like(off[:1]), off])
        vec = _chart_vectors(d, charts[:, j], centres[:, None, start : start + 2 * (d - 1)] + off)
        centre, vertex = _kron_rows(centre, vec[:, :1]), _kron_rows(vertex, vec[:, 1:])
        start += 2 * (d - 1)
    return centre, vertex


def _party_offsets(dims, half):
    """Each branched party's 2**n vertex offsets (2**n, n), n of its half-widths in ``half``.

    Row k of a party's offsets negates the half-widths at the set bits of k; row 0 is +half.
    """
    bounds = np.cumsum([0] + [2 * (d - 1) for d in dims])
    return [(1.0 - 2.0 * ((np.arange(2 ** (b - a))[:, None] >> np.arange(b - a)) & 1)) * half[a:b]
            for a, b in zip(bounds[:-1], bounds[1:])]


def _lowest_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a stack; closed form for 2x2."""
    if m.shape[-1] == 2:
        a, d = m[..., 0, 0].real, m[..., 1, 1].real
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(m[..., 0, 1]))
    return np.linalg.eigvalsh(m)[..., 0]


def _centre_matrices(h4, centre):
    """Y = (<Phi_c| x I) W as (C, D', d, d) and N(Phi_c) = Y contracted with Phi_c, (C, d, d)."""
    y = np.einsum("ci,ijab->cjab", centre[:, 0].conj(), h4)
    flat = y.reshape(y.shape[0], y.shape[1], -1)
    return y, np.matmul(centre, flat).reshape(y.shape[0], *y.shape[2:])


def _vertex_offsets(vertex, centre):
    """Turn the vertex products Phi_v into the offsets Delta = Phi_v - Phi_c, in place.

    Returns Delta, shape (C, V, D'), and the linear part
    s_v = |Phi_c|^2 + 2 Re <Phi_c|Delta> of |Phi_v|^2, shape (C, V).
    """
    delta = vertex
    delta -= centre
    cross = np.matmul(delta, centre.conj().swapaxes(1, 2))[..., 0].real
    s = np.matmul(centre.conj(), centre.swapaxes(1, 2))[..., 0].real + 2 * cross
    return delta, s


def _rayleigh_bounds(n_c, y, centre, delta):
    """u^dag L_v u >= lambda_min(L_v) for every vertex of a block, shape (C, V).

    u is the lowest eigenvector of N(Phi_c).  With z_j = u^dag y_j u,
    u^dag L_v u = u^dag N(Phi_c) u + 2 Re(Delta_v . z), so no vertex matrix
    is formed.
    """
    u = np.linalg.eigh(n_c)[1][..., 0]
    z = np.einsum("ca,cjab,cb->cj", u.conj(), y, u)
    centre_value = np.einsum("cj,cj->c", centre[:, 0], z).real
    return centre_value[:, None] + 2 * np.matmul(delta, z[..., None])[..., 0].real


def _vertex_stack(delta, y, n_c):
    """Vertex matrices L_v = N(Phi_c) + X(Phi_c, Delta) + X(Delta, Phi_c), shape (C, V, d, d).

    X(A, B) = (<A| x I) W (|B> x I).  The stack is built in place in the
    array of X(Phi_c, Delta), and only the triangle ``_lowest_eigenvalues``
    reads holds L_v: the lower one (eigvalsh), or the upper one for d = 2.
    Each of its entries is x_ab + conj(x_ba) + N_ab, bit for bit the full
    Hermitian sum; the other triangle holds x_ab + N_ab.
    """
    d = y.shape[-1]
    x = np.matmul(delta, y.reshape(y.shape[:2] + (d * d,))).reshape(delta.shape[:2] + (d, d))
    # m[a, b] for a >= b is the entry the solver reads.
    m = x.swapaxes(-1, -2) if d == 2 else x
    for a in range(d):
        m[..., a, : a + 1] += m[..., : a + 1, a].conj()
    x += n_c[:, None]
    return x


def _examine_block(h4, dims, charts, centres, offsets, radii, t, scale, curvature):
    """Cells of one block failing at t, their least centre value, and how many were refuted.

    ``scale`` is PROOF_ROUND (||W|| + |t|) and ``curvature`` is
    min(lambda_min(W) - t, 0).  The block's arrays live in this frame, so
    they are freed before the next block allocates its own.
    """
    starts = np.cumsum([0] + [2 * (d - 1) for d in dims[:-1]])
    norms = np.sqrt(1.0 + np.add.reduceat(centres**2, starts, axis=1))
    centre, delta = _product_vectors(dims, charts, centres, offsets)
    delta, s = _vertex_offsets(delta, centre)
    y, n_c = _centre_matrices(h4, centre)
    lowest = float((_lowest_eigenvalues(n_c) / np.prod(norms**2, axis=1)).min())
    outer = np.prod(norms + radii, axis=1)
    rho = outer - np.prod(norms, axis=1)
    margin = scale * outer**2
    need = margin - curvature * rho**2
    failed = np.zeros(charts.shape[0], dtype=bool)
    todo = slice(None)
    if y.shape[-1] > 2:
        # A refuted cell fails the vertex eigensolve too (see PROOF_ROUND);
        # only the others have their vertex matrices built.
        failed = (_rayleigh_bounds(n_c, y, centre, delta) - t * s).min(axis=1) < need - 2 * margin
        todo = np.flatnonzero(~failed)
        delta, y, n_c = delta[todo], y[todo], n_c[todo]
    refuted = int(np.count_nonzero(failed))
    lowest_v = _lowest_eigenvalues(_vertex_stack(delta, y, n_c))
    failed[todo] = (lowest_v - t * s[todo]).min(axis=1) < need[todo]
    return failed, lowest, refuted


def _prelude(w, structure):
    """h4[i, j] = (<i| x I) h (|j> x I) for W's Hermitian part h, lambda_min(h), ||h||, root."""
    # <phi|W|phi> is real only for the Hermitian part, which the proof bounds.
    h = (w.matrix + w.matrix.conj().T) / 2
    spec = np.linalg.eigvalsh(h)
    lam_w, norm_w = float(spec[0]), float(np.abs(spec).max())
    last = structure.local_dims[-1]
    h4 = h.reshape(-1, last, h.shape[0] // last, last).transpose(0, 2, 1, 3)
    return h4, lam_w, norm_w, lam_w - PROOF_ROUND * norm_w


def _levels(structure, upper, h4, lam_w, norm_w, root):
    """Yield a ``_Level`` per examined level; the last four arguments come from ``_prelude``."""
    best = float(upper)
    dims, last = structure.local_dims[:-1], structure.local_dims[-1]
    n_coords = sum(2 * (d - 1) for d in dims)
    block = max(1, PROOF_BLOCK_BYTES // (2**n_coords * last * last * 16))
    grid = np.meshgrid(*(range(d) for d in dims), indexing="ij")
    charts = np.stack([g.reshape(-1) for g in grid], axis=1)
    centres = np.zeros((charts.shape[0], n_coords))
    half = np.ones(n_coords)
    cells = level = 0
    while charts.shape[0]:
        t = best - PROOF_GAP
        if root >= t:
            return
        cells += charts.shape[0]
        if cells > PROOF_MAX_CELLS:
            raise RuntimeError(
                f"product-minimum proof exceeded PROOF_MAX_CELLS = {PROOF_MAX_CELLS} cells "
                f"at target {t!r}"
            )
        offsets = _party_offsets(dims, half)
        radii = np.array([np.linalg.norm(off[0]) for off in offsets])
        scale, curvature = PROOF_ROUND * (norm_w + abs(t)), min(lam_w - t, 0.0)
        failed, refuted = np.empty(charts.shape[0], dtype=bool), 0
        for start in range(0, charts.shape[0], block):
            part = slice(start, start + block)
            failed[part], lowest, count = _examine_block(
                h4, dims, charts[part], centres[part], offsets, radii, t, scale, curvature
            )
            best, refuted = min(best, lowest), refuted + count
        yield _Level(level, t, charts, centres, half.copy(), failed, refuted, best)
        # Every cell of a level has the same size, so the widest axis (the
        # first, on ties) cycles through the coordinates.
        axis = level % n_coords
        half[axis] *= 0.5
        charts = np.repeat(charts[failed], 2, axis=0)
        centres = np.repeat(centres[failed], 2, axis=0)
        centres[0::2, axis] -= half[axis]
        centres[1::2, axis] += half[axis]
        level += 1


def prove_product_minimum(
    w: HermitianOperator | np.ndarray, structure: HilbertStructure | tuple, upper: float
) -> ProductMinimumBound:
    """Prove min over product states of <W> >= t by a vertex branch-and-bound.

    t starts at ``upper - PROOF_GAP`` and follows the best product value found:
    every cell centre is a product state, and its value, when lower, lowers
    t.  The last party is eliminated by its smallest eigenvalue: <W> >= t
    on every product state iff N(Phi) = (<Phi| x I)(W - tI)(|Phi> x I) is
    PSD for every product Phi of the other parties.  Each of those ranges
    over d affine charts (component k set to 1, the others in the box
    [-1, 1]^{2(d-1)}), whose cells are halved along their widest axis.  On a
    cell with centre Phi_c, N(Phi) is its multi-affine part L, whose smallest
    eigenvalue is concave in each party's offset and so least at a vertex,
    plus N(Delta) >= min(lambda_min(W) - t, 0) rho^2 I, with
    rho = prod(|c_j| + r_j) - prod |c_j| >= |Delta|.  A cell whose vertex
    minimum clears that remainder and the rounding margin is proven; the
    others are halved.  When d > 2 for the last party, the Rayleigh quotients
    of the centre's lowest eigenvector refute most failing cells first, so
    only the others have their vertex matrices built and solved; the margin
    makes the result the same.  The cells of one level share their size and t, so
    the cell count does not depend on PROOF_BLOCK_BYTES.  Raises ValueError
    for an ``upper`` that is not a real number or lies below the root, and
    RuntimeError after PROOF_MAX_CELLS cells.  W may be a plain matrix and
    ``structure`` a tuple of dimensions.
    """
    w, structure, upper = _operator(w), _structure_of(w, structure), _real(upper, "upper")
    if not np.isfinite(upper):
        raise ValueError(f"upper must be finite, got {upper!r}")
    h4, lam_w, norm_w, root = _prelude(w, structure)
    if upper < root:
        raise ValueError(f"upper must be at least lambda_min(W) - margin = {root!r}, got {upper!r}")
    if len(structure.local_dims) == 1:
        return ProductMinimumBound(lower=root, upper=min(upper, lam_w), cells=0)
    lower, best, cells = root, upper, 0
    for level in _levels(structure, upper, h4, lam_w, norm_w, root):
        lower = root if level.failed.any() else level.t
        best, cells = level.upper, cells + level.failed.size
        del level  # frees the level's cells before the next level is built
    return ProductMinimumBound(lower=lower, upper=best, cells=cells)
