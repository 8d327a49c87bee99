"""Minimum product-state overlap and the entanglement witnesses built from it.

The overlap minimizer is an alternating eigenvector descent: with every local
vector but one held fixed, the objective is a quadratic form in the remaining
vector, so its optimum is the minimum-eigenvalue eigenvector of the contracted
projector and the objective never increases.  Random restarts guard against
the non-convex landscape, but the descent only ever gives an upper estimate.
W = (P - lambda I)/(n - lambda D) is a witness only if lambda is at most the
true minimum, which ``proof.prove_product_minimum`` establishes from below.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator, TRACE_ATOL, _integer, _operator, eig_hermitian
from .upb import ProductState, UPBSet

ZERO_EIG_ATOL = 1e-12
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


def _weights(local_mats, phis, skip=None) -> np.ndarray:
    """Per member, the product over parties but ``skip`` of |<v_k|phi_k>|^2."""
    w = np.ones(local_mats[0].shape[0])
    for j, (v_k, phi) in enumerate(zip(local_mats, phis)):
        if j != skip:
            w = w * np.abs(v_k @ phi.conj()) ** 2
    return w


def _party_operator(local_mats, phis, party) -> np.ndarray:
    v = local_mats[party]
    return (v.T * _weights(local_mats, phis, party)) @ v.conj()


def _complex_gaussians(gen: random.Random, n: int) -> np.ndarray:
    """``n`` complex Gaussians by Box-Muller on ``2 n`` draws of ``gen.random()``.

    z = sqrt(-2 ln(1 - u1)) e^(2 pi i u2), so the real and imaginary parts are
    independent standard normals.  The first ``n`` uniforms feed the radii and
    the next ``n`` the angles.  Only ``random()`` is used: Python keeps its
    sequence for a seed across versions, which it does not promise for
    ``gauss``, ``getrandbits`` or ``randbytes``.
    """
    # map over the unbound method keeps the loop in C: 162 draws take about
    # 12 us this way, against 22 us for a list comprehension of gen.random().
    u = np.fromiter(map(random.Random.random, itertools.repeat(gen, 2 * n)), float, 2 * n)
    return np.sqrt(-2.0 * np.log1p(-u[:n])) * np.exp(2j * np.pi * u[n:])


def _restart_start(dims, seed: int, restart: int) -> list[np.ndarray]:
    """Haar-uniform unit vectors, one per party, that start restart ``restart``.

    Each party's vector is ``_complex_gaussians`` of
    ``random.Random(f"{seed}:{restart}")``, normalised.  Only (seed, restart)
    decides them.
    """
    gen = random.Random(f"{seed}:{restart}")
    phis = []
    for d in dims:
        v = _complex_gaussians(gen, d)
        phis.append(v / np.linalg.norm(v))
    return phis


def _seesaw_once(local_mats, start, max_iters):
    """One descent run from the local vectors ``start``.

    Returns (value, local vectors, converged, history).
    """
    phis = [np.array(v, dtype=complex) for v in start]
    value = float(_weights(local_mats, phis).sum())
    history = [value]
    converged = False
    for _ in range(max_iters):
        before = value
        for k in range(len(phis)):
            m = _party_operator(local_mats, phis, k)
            vals, vecs = np.linalg.eigh(m)
            phis[k] = vecs[:, 0]
            value = float(vals[0])
            history.append(value)
        if before - value < SEESAW_TOL:
            converged = True
            break
    return value, phis, converged, history


def minimum_overlap(upb: UPBSet, seed: int = 0) -> LambdaResult:
    """Minimum of <phi| P |phi> over fully product states, for any number of parties.

    Each party's vector is optimized in turn, cyclically, for at most
    SEESAW_MAX_ITERS sweeps from each of SEESAW_RESTARTS starts drawn from ``seed``.
    """
    seed = _integer(seed, "seed", 0)
    local_mats = [upb.local_matrix(k) for k in range(upb.n_parties)]
    dims = upb.structure.local_dims
    finals = []
    for r in range(SEESAW_RESTARTS):
        start = _restart_start(dims, seed, r)
        value, phis, conv, _ = _seesaw_once(local_mats, start, SEESAW_MAX_ITERS)
        finals.append((value, phis, conv))
    best_value = min(value for value, _, _ in finals)
    near = [item for item in finals if item[0] <= best_value + MINIMIZER_VALUE_ATOL]
    distinct: list[ProductState] = []
    for _, phis, _ in near:
        cand = ProductState(tuple(phis))
        if all(cand.fidelity(kept) < DISTINCT_FIDELITY for kept in distinct):
            distinct.append(cand)
    return LambdaResult(value=best_value, converged=near[0][2], minimizers=tuple(distinct))


@dataclass(frozen=True, eq=False)
class Witness(HermitianOperator):
    """Unit-trace Hermitian witness with the counts and traces of its two parts.

    Eigenvalues within ZERO_EIG_ATOL of zero belong to neither part.  The part
    traces differ by exactly the trace (= 1), and for any state pi the
    expectation Tr(W pi) lies in [-neg_part_trace, pos_part_trace].
    ``max_pos_eigenvalue`` is the largest eigenvalue (0 when none is
    positive).  Build it with ``witness_from_operator``.
    """

    p_count: int
    n_neg_count: int
    pos_part_trace: float
    neg_part_trace: float
    max_pos_eigenvalue: float

    def __post_init__(self):
        super().__post_init__()
        if abs(self.pos_part_trace - self.neg_part_trace - 1.0) > TRACE_ATOL:
            raise RuntimeError("spectral split violates the part-trace identity")


def witness_from_operator(op: HermitianOperator | np.ndarray) -> Witness:
    """Split a unit-trace Hermitian operator into its positive and negative parts.

    A plain matrix is checked by ``HermitianOperator`` first.
    """
    op = _operator(op)
    if abs(op.trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"witness trace must be 1, got {op.trace!r}")
    vals = eig_hermitian(op).eigenvalues
    pos = vals > ZERO_EIG_ATOL
    neg = vals < -ZERO_EIG_ATOL
    return Witness(
        op.matrix,
        p_count=int(pos.sum()),
        n_neg_count=int(neg.sum()),
        pos_part_trace=float(vals[pos].sum()),
        neg_part_trace=float(-vals[neg].sum()),
        max_pos_eigenvalue=float(vals[-1]) if pos.any() else 0.0,
    )


def _normalizer(n: int, d: int, lam_value: float) -> float:
    """n - lambda D, the witness normalizer; lambda must lie in (ZERO_EIG_ATOL, n/D).

    The seesaw's lambda is an eigenvalue, so one within ZERO_EIG_ATOL of 0 is
    a zero product overlap: the set is extendible and has no witness.
    """
    if not 0.0 < lam_value < n / d:
        raise ValueError(
            f"minimum overlap {lam_value!r} outside (0, n/D = {n / d}); "
            "the normalizer n - lambda D must be positive"
        )
    if lam_value <= ZERO_EIG_ATOL:
        raise ValueError(
            f"minimum overlap {lam_value!r} is at most ZERO_EIG_ATOL = {ZERO_EIG_ATOL}: "
            "a product state is orthogonal to every member, so the set is extendible"
        )
    return n - lam_value * d


def build_witness(upb: UPBSet, lam: float) -> Witness:
    """Normalized witness (P - lambda I) / (n - lambda D) for a product-basis set.

    The spectrum is flat by construction: eigenvalue (1 - lambda)/(n - lambda D)
    with multiplicity n and -lambda/(n - lambda D) with multiplicity D - n.
    The violation lambda/(n - lambda D) may not exceed 1 - 2/D, compared exactly.
    """
    # Imported on use: the lambda command loads this module but builds no witness.
    from fractions import Fraction

    lam = float(lam)
    d, n = upb.total_dim, upb.cardinality
    norm = _normalizer(n, d, lam)
    if Fraction(lam) / (n - Fraction(lam) * d) > 1 - Fraction(2, d):
        raise ValueError(f"witness violation at lambda = {lam!r} exceeds the 1 - 2/D ceiling")
    return witness_from_operator((upb.projector.matrix - lam * np.eye(d)) / norm)


def witness_value(w: HermitianOperator | np.ndarray, rho: HermitianOperator | np.ndarray) -> float:
    """Tr(W rho) for Hermitian operators; a plain matrix is checked by ``HermitianOperator``."""
    w, rho = _operator(w), _operator(rho)
    if w.dim != rho.dim:
        raise ValueError(f"dimension mismatch: witness {w.dim}, state {rho.dim}")
    return _witness_value(w.matrix, rho.matrix)


def _witness_value(w_matrix: np.ndarray, m: np.ndarray) -> float:
    """Tr(W m) for W's matrix and a matrix of the same shape, unchecked."""
    return float(np.vdot(w_matrix, m).real)
