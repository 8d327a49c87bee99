"""Kernel reference rows: the floors the stacked-kernel work aims at.

``eigvalsh_rows`` times one ``numpy.linalg.eigvalsh`` call per matrix against
one stacked call over the same matrices, per matrix, at the two sizes the
suites use (9x9 for the 3x3 sets, 8x8 for the 2x2x2 set).  ``grid_pair_work``
computes, from the grid oracle's own constants, the pairs, flops and bytes of
its pair product; these are computed from array sizes, not measured, so they
ignore cache traffic.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

MATRICES = 1000
REPEATS = 7
SIZES = (9, 8)
EIG_ATOL = 1e-10


def eigvalsh_rows(seed: int) -> tuple[dict[str, float], bool]:
    """Per-matrix microseconds of single and stacked eigvalsh, and whether they agree."""
    rows, agree = {}, True
    for d in SIZES:
        rng = np.random.default_rng([seed, d])
        g = rng.standard_normal((MATRICES, d, d)) + 1j * rng.standard_normal((MATRICES, d, d))
        h = g + g.conj().transpose(0, 2, 1)
        single, stacked = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            one = [np.linalg.eigvalsh(m) for m in h]
            t1 = time.perf_counter()
            many = np.linalg.eigvalsh(h)
            t2 = time.perf_counter()
            single.append((t1 - t0) / MATRICES)
            stacked.append((t2 - t1) / MATRICES)
        agree = agree and bool(np.allclose(np.array(one), many, rtol=0.0, atol=EIG_ATOL))
        rows[f"kernel.eigvalsh_single_us.{d}x{d}"] = statistics.median(single) * 1e6
        rows[f"kernel.eigvalsh_stacked_us.{d}x{d}"] = statistics.median(stacked) * 1e6
    return rows, agree


def grid_pair_work(upb) -> tuple[int, int, int]:
    """Computed (pairs, flops, bytes) of one grid-oracle pair product for ``upb``.

    Each party's grid has theta**(d-1) * phi**(d-1) states.  Every product
    tuple sums, over the n members, a product of one weight per party: k
    flops per member for k parties.  Bytes count float64 operands read and the
    objective table written; the bipartite path re-reads the second table once
    per row block.  Raises AttributeError if the grid oracle's constants are gone.
    """
    from pptball import gridsearch

    theta, phi = gridsearch.THETA_POINTS, gridsearch.PHI_POINTS
    block = gridsearch.PAIR_BLOCK_DOUBLES
    sizes = [theta[d] ** (d - 1) * phi[d] ** (d - 1) for d in upb.structure.local_dims]
    n, k = upb.cardinality, len(sizes)
    pairs = math.prod(sizes)
    flops = k * n * pairs
    if k == 2:
        rows = max(1, block // sizes[1])
        blocks = math.ceil(sizes[0] / rows)
        nbytes = 8 * (sizes[0] * n + blocks * sizes[1] * n + pairs)
    else:
        nbytes = 8 * (sum(sizes) * n + pairs)
    return pairs, flops, nbytes
