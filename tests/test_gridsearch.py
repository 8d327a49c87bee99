import tracemalloc

import numpy as np
import pytest

from pptball import UPBSet, build_complete_basis, gridsearch, witness
from pptball.gridsearch import _grid_states, grid_minimum_overlap


def _angles_to_state(angles, d) -> np.ndarray:
    """Reference for one grid row: d - 1 polar angles, then d - 1 phases."""
    thetas = angles[: d - 1]
    phis = angles[d - 1 :]
    state = np.empty(d, dtype=complex)
    s = 1.0
    for k in range(d - 1):
        state[k] = s * np.cos(thetas[k])
        s = s * np.sin(thetas[k])
    state[d - 1] = s
    state[1:] = state[1:] * np.exp(1j * np.asarray(phis))
    return state


def test_angle_parameterization_is_normalized():
    for d, theta_points, phi_points in ((2, 13, 16), (3, 9, 12), (3, 4, 5)):
        states = _grid_states(d, theta_points, phi_points)
        assert states.shape == ((theta_points * phi_points) ** (d - 1), d)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12


def test_grid_states_match_single_evaluations():
    states = _grid_states(3, 4, 5)
    assert states.shape == (4 * 4 * 5 * 5, 3)
    thetas = np.linspace(0.0, np.pi / 2, 4)
    phis = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
    for row in (0, 17, states.shape[0] - 1):
        t1, t2, p1, p2 = np.unravel_index(row, (4, 4, 5, 5))
        single = _angles_to_state([thetas[t1], thetas[t2], phis[p1], phis[p2]], 3)
        assert np.abs(states[row] - single).max() < 1e-12


def test_complete_basis_overlap_is_one():
    res = grid_minimum_overlap(build_complete_basis((2, 2)))
    assert abs(res.value - 1.0) < 1e-10
    assert abs(res.grid_value - 1.0) < 1e-10


def test_grid_agreement_bipartite(tiles_lambda, tiles_grid, pyramid_lambda, pyramid_grid):
    assert abs(tiles_lambda.value - tiles_grid.value) < 1e-6
    assert abs(pyramid_lambda.value - pyramid_grid.value) < 1e-6


def test_grid_agreement_multipartite(shifts_lambda, shifts_grid):
    assert abs(shifts_lambda.value - shifts_grid.value) < 1e-5


def test_refined_value_never_exceeds_grid_value(tiles_grid, pyramid_grid, shifts_grid):
    for res in (tiles_grid, pyramid_grid, shifts_grid):
        assert res.value <= res.grid_value + 1e-15


def _random_orthogonal_product_set(seed, dims, n):
    """n generic product vectors; member j is orthogonal to member i < j on party i % k.

    Generic entries leave no exact ties in the grid objective, so the selected
    cells depend on the selection rule alone, not on tie order.
    """
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
def test_streamed_kernel_matches_dense_einsum(monkeypatch, dims, n):
    monkeypatch.setattr(gridsearch, "THETA_POINTS", {2: 4, 3: 3})
    monkeypatch.setattr(gridsearch, "PHI_POINTS", {2: 5, 3: 4})
    starts = []

    def no_descent(local_mats, start, max_iters):
        starts.append(np.concatenate(start))
        return np.inf, start, False, []

    monkeypatch.setattr(witness, "_seesaw_once", no_descent)
    upb = _random_orthogonal_product_set(len(dims), dims, n)
    res = grid_minimum_overlap(upb)

    grids = [_grid_states(d, gridsearch.THETA_POINTS[d], gridsearch.PHI_POINTS[d]) for d in dims]
    weights = [gridsearch._member_weights(upb, k, states) for k, states in enumerate(grids)]
    letters = "abcd"[: len(dims)]
    obj = np.einsum(",".join(c + "i" for c in letters) + "->" + letters, *weights)
    rows = obj.reshape(obj.shape[0], -1)
    best = rows.argmin(axis=1)
    lead = np.argsort(rows.min(axis=1))[: gridsearch.REFINE_CANDIDATES]
    expected = []
    for a in lead:
        cell = (a, *np.unravel_index(best[a], obj.shape[1:]))
        expected.append(np.concatenate([g[i] for g, i in zip(grids, cell)]))

    assert sorted(map(tuple, starts)) == sorted(map(tuple, expected))
    assert abs(res.grid_value - obj.min()) < 1e-14
    assert res.value == res.grid_value


def test_best_pairs_orders_ties_by_row_for_any_block(monkeypatch):
    # Small integer tables make every objective entry exact, so rows tie
    # exactly; 80 rows take numpy's unstable sort path.
    rng = np.random.default_rng(11)
    wa = np.repeat(rng.integers(0, 3, size=(8, 4)), 10, axis=0)[rng.permutation(80)]
    wa = wa.astype(float)
    wb = rng.integers(1, 4, size=(6, 4)).astype(float)
    keep = 16
    dense = wa @ wb.T
    mins = dense.min(axis=1)
    # The cut after `keep` rows falls inside a group of tied rows.
    assert np.sort(mins)[keep - 1] == np.sort(mins)[keep]
    expected = [
        (float(mins[a]), int(a), int(dense[a].argmin()))
        for a in np.argsort(mins, kind="stable")[:keep]
    ]
    for rows in (1, 3, wa.shape[0]):
        monkeypatch.setattr(gridsearch, "PAIR_BLOCK_DOUBLES", rows * wb.shape[0])
        assert gridsearch._best_pairs(wa, wb, keep) == expected, rows


def test_grid_oracle_memory_is_one_block(tiles, shifts):
    # The descent's polish allocates only a few small matrices per sweep.
    # With a 1 MiB block the O(N n) weight tables set the peak (about 4.4 MiB
    # on tiles, 2.4 MiB on shifts), so the bound is fixed.
    assert gridsearch.PAIR_BLOCK_DOUBLES * 8 <= 2**20
    limit = 8 * 2**20
    for upb in (tiles, shifts):
        tracemalloc.start()
        try:
            grid_minimum_overlap(upb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{upb.name}: peak {peak / 2**20:.1f} MiB"
