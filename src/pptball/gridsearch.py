"""Dense-grid starts for the minimum product-state overlap.

Local pure states are swept over an explicit generalized-spherical-angle grid,
and the best cells are polished by the alternating descent of the witness
module, ``witness._seesaw_once``, with its own sweep cap.  The grid only
supplies systematic starts in place of random ones: its value is an upper
estimate like the descent's, and only ``proof.prove_product_minimum`` bounds
the minimum from below.  For any party count the grid objective is never held
in full: it is streamed through one reused block of PAIR_BLOCK_DOUBLES
doubles, 1 MiB, which fits in a core's L2 cache.  The polished cells are the
rows with the smallest row minima, ties going to the lower row, whatever the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import witness
from .upb import UPBSet

# Per-party grid density; qutrits get a denser sweep because two of the four
# angle axes are phases.
THETA_POINTS = {2: 13, 3: 9}
PHI_POINTS = {2: 16, 3: 12}
REFINE_CANDIDATES = 8
PAIR_BLOCK_DOUBLES = 2**17


@dataclass(frozen=True)
class GridMinimum:
    """Polished minimum plus the best raw grid cell it started from."""

    value: float
    grid_value: float


def _grid_states(d, theta_points, phi_points) -> np.ndarray:
    """All grid states, shape (N, d), in C order over the angle axes."""
    axes = [np.linspace(0.0, np.pi / 2, theta_points)] * (d - 1)
    axes += [np.linspace(0.0, 2 * np.pi, phi_points, endpoint=False)] * (d - 1)
    flat = [g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")]
    n = flat[0].size
    states = np.empty((n, d), dtype=complex)
    s = np.ones(n)
    for k in range(d - 1):
        states[:, k] = s * np.cos(flat[k])
        s = s * np.sin(flat[k])
    states[:, d - 1] = s
    for k in range(1, d):
        states[:, k] = states[:, k] * np.exp(1j * flat[d - 2 + k])
    return states


def _member_weights(upb, party, states) -> np.ndarray:
    """|<grid state | member vector>|^2 table, shape (N, cardinality)."""
    v = upb.local_matrix(party)
    return np.abs(states @ v.conj().T) ** 2


def _best_pairs(wa, wb, keep):
    """The ``keep`` rows a of wa with the smallest min_b sum_i wa[a, i] wb[b, i].

    Returns (value, a, b) triples ordered by (value, a), b being the first
    best row of wb for row a.  Blocks of rows go through one reused buffer,
    so at most PAIR_BLOCK_DOUBLES doubles (1 MiB) of the objective exist at
    once; only each row's minimum and its place are kept, so the selection
    does not depend on the block size.
    """
    vals = np.empty(wa.shape[0])
    b_idx = np.empty(wa.shape[0], dtype=np.intp)
    block = max(1, PAIR_BLOCK_DOUBLES // wb.shape[0])
    buf = np.empty((min(block, wa.shape[0]), wb.shape[0]))
    for start in range(0, wa.shape[0], block):
        chunk = wa[start : start + block]
        obj = np.matmul(chunk, wb.T, out=buf[: chunk.shape[0]])
        obj.min(axis=1, out=vals[start : start + block])
        obj.argmin(axis=1, out=b_idx[start : start + block])
    order = np.argsort(vals, kind="stable")[:keep]
    return [(float(vals[a]), int(a), int(b_idx[a])) for a in order]


def grid_minimum_overlap(upb: UPBSet) -> GridMinimum:
    """Descent from the best grid cells; an upper estimate of the minimum overlap."""
    dims = upb.structure.local_dims
    states = [_grid_states(d, THETA_POINTS[d], PHI_POINTS[d]) for d in dims]
    weights = [_member_weights(upb, party, s) for party, s in enumerate(states)]
    # Parties 1.. fold into one table whose rows run over their grid cells in
    # C order; starting from a row of ones keeps single-party sets working.
    trailing = np.ones((1, upb.cardinality))
    for w in weights[1:]:
        trailing = (trailing[:, None, :] * w).reshape(-1, upb.cardinality)
    pairs = _best_pairs(weights[0], trailing, REFINE_CANDIDATES)
    shape = [len(s) for s in states[1:]]
    local_mats = [upb.local_matrix(k) for k in range(upb.n_parties)]
    polished = min(
        witness._seesaw_once(
            local_mats,
            [s[i] for s, i in zip(states, (a, *np.unravel_index(b, shape)))],
            witness.SeesawConfig.max_iters,
        )[0]
        for _, a, b in pairs
    )
    grid_value = pairs[0][0]
    return GridMinimum(value=min(polished, grid_value), grid_value=grid_value)
