"""Minimum product-state overlap and the entanglement witnesses built from it.

The overlap minimizer is an alternating eigenvector descent: with every local
vector but one held fixed, the objective is a quadratic form in the remaining
vector, so its optimum is the minimum-eigenvalue eigenvector of the contracted
projector and the objective never increases.  Random restarts guard against
the non-convex landscape; the grid module provides an independent cross-check
of the reported minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityMatrix,
    EigenDecomposition,
    HermitianOperator,
    TRACE_ATOL,
    eig_hermitian,
)
from .upb import ProductState, UPBSet

ZERO_EIG_ATOL = 1e-12
MINIMIZER_VALUE_ATOL = 1e-9
DISTINCT_FIDELITY = 1 - 1e-6
# A restart has converged once a full sweep lowers the objective by less than this.
SEESAW_TOL = 1e-12


@dataclass(frozen=True)
class SeesawConfig:
    """Multistart settings for the alternating minimizer.

    Each restart draws its starting vectors from a generator seeded by
    (seed, restart index), so results are deterministic for a fixed seed
    regardless of scheduling.
    """

    restarts: int = 200
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class LambdaResult:
    """Outcome of the overlap minimization.

    ``minimizers`` collects the distinct minimizing product states found
    across restarts (pairwise fidelity below 1 - 1e-6), global minimizer
    first; downstream mixing directions are built from them.
    """

    value: float
    minimizer: ProductState
    restarts_used: int
    converged: bool
    minimizers: tuple[ProductState, ...]


def _objective(local_mats, phis) -> float:
    w = np.ones(local_mats[0].shape[0])
    for v_k, phi in zip(local_mats, phis):
        w = w * np.abs(v_k @ phi.conj()) ** 2
    return float(w.sum())


def _party_operator(local_mats, phis, party) -> np.ndarray:
    w = np.ones(local_mats[0].shape[0])
    for j, (v_k, phi) in enumerate(zip(local_mats, phis)):
        if j == party:
            continue
        w = w * np.abs(v_k @ phi.conj()) ** 2
    v = local_mats[party]
    return (v.T * w) @ v.conj()


def _seesaw_once(local_mats, rng, max_iters, tol, init=None):
    """One descent run; returns (value, local vectors, converged, history)."""
    dims = [v.shape[1] for v in local_mats]
    if init is None:
        phis = []
        for d in dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phis.append(v / np.linalg.norm(v))
    else:
        phis = [np.array(v, dtype=complex) for v in init]
    value = _objective(local_mats, phis)
    history = [value]
    converged = False
    for _ in range(max_iters):
        before = value
        for k in range(len(dims)):
            m = _party_operator(local_mats, phis, k)
            vals, vecs = np.linalg.eigh(m)
            phis[k] = vecs[:, 0]
            value = float(vals[0])
            history.append(value)
        if before - value < tol:
            converged = True
            break
    return value, phis, converged, history


def minimum_overlap(upb: UPBSet, cfg: SeesawConfig | None = None) -> LambdaResult:
    """Minimum of <phi| P |phi> over fully product states, for any number of parties.

    Each party's vector is optimized in turn, cyclically, from every restart.
    """
    cfg = cfg or SeesawConfig()
    local_mats = [upb.local_matrix(k) for k in range(upb.n_parties)]
    finals = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        value, phis, conv, _ = _seesaw_once(local_mats, rng, cfg.max_iters, SEESAW_TOL)
        finals.append((value, phis, conv))
    finals.sort(key=lambda item: item[0])
    best_value, best_phis, best_conv = finals[0]
    distinct: list[ProductState] = []
    for value, phis, _ in finals:
        if value > best_value + MINIMIZER_VALUE_ATOL:
            break
        cand = ProductState(tuple(phis))
        if all(cand.fidelity(kept) < DISTINCT_FIDELITY for kept in distinct):
            distinct.append(cand)
    return LambdaResult(
        value=best_value,
        minimizer=ProductState(tuple(best_phis)),
        restarts_used=cfg.restarts,
        converged=best_conv,
        minimizers=tuple(distinct),
    )


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """op = plus - minus with both parts PSD on mutually orthogonal supports."""

    op: HermitianOperator
    plus: HermitianOperator
    minus: HermitianOperator
    decomposition: EigenDecomposition
    p_count: int
    n_neg_count: int
    pos_part_trace: float
    neg_part_trace: float
    max_pos_eigenvalue: float


class Witness(SpectralSplit):
    """Unit-trace Hermitian witness with cached spectral quantities.

    The positive/negative part traces differ by exactly the trace (= 1), and
    for any state pi the expectation Tr(W pi) lies in
    [-neg_part_trace, pos_part_trace].
    """


def spectral_split(op: SpectralSplit | HermitianOperator) -> SpectralSplit:
    """Split a Hermitian operator into its positive and negative parts.

    Eigenvalues within ZERO_EIG_ATOL of zero belong to neither part.
    """
    herm = op.op if isinstance(op, SpectralSplit) else op
    dec = eig_hermitian(herm)
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    pos = vals > ZERO_EIG_ATOL
    neg = vals < -ZERO_EIG_ATOL
    plus = (vecs[:, pos] * vals[pos]) @ vecs[:, pos].conj().T
    minus = (vecs[:, neg] * (-vals[neg])) @ vecs[:, neg].conj().T
    return SpectralSplit(
        op=herm,
        plus=HermitianOperator(plus),
        minus=HermitianOperator(minus),
        decomposition=dec,
        p_count=int(pos.sum()),
        n_neg_count=int(neg.sum()),
        pos_part_trace=float(vals[pos].sum()),
        neg_part_trace=float(-vals[neg].sum()),
        max_pos_eigenvalue=float(vals[-1]) if pos.any() else 0.0,
    )


def witness_from_operator(op: HermitianOperator) -> Witness:
    """Wrap a unit-trace Hermitian operator with its cached spectral data."""
    if abs(op.trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"witness trace must be 1, got {op.trace!r}")
    split = spectral_split(op)
    if abs(split.pos_part_trace - split.neg_part_trace - 1.0) > TRACE_ATOL:
        raise RuntimeError("spectral split violates the part-trace identity")
    return Witness(**vars(split))


def build_witness(upb: UPBSet, lam: LambdaResult | float) -> Witness:
    """Normalized witness (P - lambda I) / (n - lambda D) for a product-basis set.

    The spectrum is flat by construction: eigenvalue (1 - lambda)/(n - lambda D)
    with multiplicity n and -lambda/(n - lambda D) with multiplicity D - n.
    """
    lam_value = lam.value if isinstance(lam, LambdaResult) else float(lam)
    d, n = upb.total_dim, upb.cardinality
    if not 0.0 < lam_value < n / d:
        raise ValueError(
            f"minimum overlap {lam_value!r} outside (0, n/D = {n / d}); "
            "the normalizer n - lambda D must be positive"
        )
    w = (upb.projector.matrix - lam_value * np.eye(d)) / (n - lam_value * d)
    return witness_from_operator(HermitianOperator(w))


def witness_value(w: Witness | HermitianOperator, rho: DensityMatrix | np.ndarray) -> float:
    """Tr(W rho), for a density matrix or a plain matrix."""
    mat = w.op.matrix if isinstance(w, Witness) else w.matrix
    rho = rho.matrix if isinstance(rho, DensityMatrix) else rho
    if mat.shape != rho.shape:
        raise ValueError(f"dimension mismatch: witness {mat.shape[0]}, state {rho.shape[0]}")
    return float(np.vdot(mat, rho).real)
