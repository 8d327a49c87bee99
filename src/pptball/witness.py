"""Minimum product-state overlap by a seeded seesaw, and the seeded random streams.

The overlap minimizer is an alternating eigenvector descent: with every local
vector but one held fixed, the objective is a quadratic form in the remaining
vector, so its optimum is the minimum-eigenvalue eigenvector of the contracted
projector and the objective never increases.  Random restarts guard against
the non-convex landscape, but the descent only ever gives an upper estimate;
``proof.prove_product_minimum`` bounds the minimum from below.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .operators import _integer
from .upb import ProductState, UPBSet, _overlaps

MINIMIZER_VALUE_ATOL = 1e-9
DISTINCT_FIDELITY = 1 - 1e-6
# A restart has converged once a full sweep lowers the objective by less than this.
SEESAW_TOL = 1e-12

# The multistart's counts.  Restart r starts from ``_restart_start(dims, seed,
# r)``.  On tiles / pyramid / shifts 173 / 200 / 200 of 200 restarts end within
# MINIMIZER_VALUE_ATOL of lambda at seed 0, so most restarts only collect
# minimizers, and none needs more than 25 of its 500 sweeps.  The counts need
# no tuning per call: the descent gives an upper estimate only, and
# ``proof.prove_product_minimum`` certifies lambda from below whatever they are.
SEESAW_RESTARTS = 200
SEESAW_MAX_ITERS = 500


@dataclass(frozen=True, eq=False)
class LambdaResult:
    """Outcome of the overlap minimization.

    ``value`` is the least over all restarts.  ``minimizers`` collects the
    distinct states (pairwise fidelity below 1 - 1e-6) of the restarts within
    MINIMIZER_VALUE_ATOL of it, in the order the restarts reached them, and
    the first of those supplies ``converged``; mixing directions use them.
    """

    value: float
    converged: bool
    minimizers: tuple[ProductState, ...]


def _stream(key: tuple[int, ...]) -> random.Random:
    """Generator seeded by ``key`` joined with ":": (seed, restart), (seed, stream, tag, trial)."""
    return random.Random(":".join(map(str, key)))


def _uniforms(gen: random.Random, n: int) -> np.ndarray:
    """``n`` draws of ``gen.random()``; map keeps the loop in C (162 draws: 12 us, not 22 us)."""
    return np.fromiter(map(random.Random.random, itertools.repeat(gen, n)), float, n)


def _complex_gaussians(gen: random.Random, n: int) -> np.ndarray:
    """``n`` complex Gaussians by Box-Muller on ``2 n`` draws of ``gen.random()``.

    z = sqrt(-2 ln(1 - u1)) e^(2 pi i u2), so the real and imaginary parts are
    independent standard normals.  The first ``n`` uniforms feed the radii and
    the next ``n`` the angles.  Only ``random()`` is used: Python keeps its
    sequence for a seed across versions, which it does not promise for
    ``gauss``, ``getrandbits`` or ``randbytes``.
    """
    u = _uniforms(gen, 2 * n)
    return np.sqrt(-2.0 * np.log1p(-u[:n])) * np.exp(2j * np.pi * u[n:])


def _restart_start(dims, seed: int, restart: int) -> list[np.ndarray]:
    """Haar-uniform unit vectors, one per party, that start restart ``restart`` of ``seed``."""
    gen = _stream((seed, restart))
    return [v / np.linalg.norm(v) for v in [_complex_gaussians(gen, d) for d in dims]]


def _seesaw_once(local_mats, start):
    """One descent run of at most SEESAW_MAX_ITERS sweeps from the local vectors ``start``.

    Returns (value, local vectors, converged).
    """
    phis = [np.array(v, dtype=complex) for v in start]
    value = float(_overlaps(local_mats, phis).sum())
    converged = False
    for _ in range(SEESAW_MAX_ITERS):
        before = value
        for k in range(len(phis)):
            v = local_mats[k]
            vals, vecs = np.linalg.eigh((v.T * _overlaps(local_mats, phis, k)) @ v.conj())
            phis[k] = vecs[:, 0]
            value = float(vals[0])
        if before - value < SEESAW_TOL:
            converged = True
            break
    return value, phis, converged


def minimum_overlap(upb: UPBSet, seed: int = 0) -> LambdaResult:
    """Minimum of <phi| P |phi> over fully product states, for any number of parties.

    Each party's vector is optimized in turn, cyclically, for at most
    SEESAW_MAX_ITERS sweeps from each of SEESAW_RESTARTS starts drawn from ``seed``.
    """
    seed = _integer(seed, "seed", 0)
    local_mats = [upb.local_matrix(k) for k in range(upb.n_parties)]
    dims = upb.structure.local_dims
    finals = [
        _seesaw_once(local_mats, _restart_start(dims, seed, r)) for r in range(SEESAW_RESTARTS)
    ]
    best_value = min(value for value, _, _ in finals)
    near = [item for item in finals if item[0] <= best_value + MINIMIZER_VALUE_ATOL]
    kept = [near[0][1]]
    for _, phis, _ in near[1:]:
        # Row i is the fidelity |<phis|kept[i]>|^2; only kept minimizers become ProductStates.
        if (_overlaps([np.array(p) for p in zip(*kept)], phis) < DISTINCT_FIDELITY).all():
            kept.append(phis)
    return LambdaResult(best_value, near[0][2], tuple(ProductState(tuple(p)) for p in kept))
