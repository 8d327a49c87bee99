"""Robustness geometry around bound entangled states.

Covers the white-noise family through a complement state, its entanglement
threshold, the certified ball radius around each family member, the
branch-crossing point of the radius formula, mixture decompositions through
the separable purity ball, ball membership, and the separable-mixing
thresholds with their maximal-robustness directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityMatrix,
    PSD_TOL,
    _integer,
    eig_hermitian,
    is_ppt,
    min_pt_eigenvalue,
    purity,
)
from .upb import UPBSet, omega_state
from .witness import LambdaResult, Witness, _normalizer, build_witness, witness_value

IDENTITY_ATOL = 1e-12
CROSSING_RESIDUAL = 1e-12
RANK_TOL = 1e-12
# Tr(W sigma) of a zero-witness direction is zero only up to the rounding of the trace.
WITNESS_SIGN_ATOL = 1e-10


def entanglement_threshold(lambda_rho: float, dim_total: int) -> float:
    """x* = 1/(1 + D lambda); family members with x > x* stay witness-negative."""
    dim_total = _integer(dim_total, "total dimension", 2)
    if not 0.0 < lambda_rho < np.inf:
        raise ValueError(
            "witness violation must be strictly positive and finite; a separable "
            f"base state has no entanglement threshold, got {lambda_rho!r}"
        )
    return 1.0 / (1.0 + dim_total * lambda_rho)


def entanglement_threshold_upb(
    cardinality: int, dim_total: int, lam_value: float, lambda_omega: float
) -> float:
    """Threshold for complement-state witnesses, cross-checked in both forms.

    1/(1 + D lambda_omega) must agree with 1 - lambda D / n to IDENTITY_ATOL.
    """
    general = entanglement_threshold(lambda_omega, dim_total)
    closed = _closed_threshold(cardinality, dim_total, lam_value)
    if abs(general - closed) > IDENTITY_ATOL:
        raise RuntimeError(
            f"threshold identity violated: {general!r} vs {closed!r}"
        )
    return general


def _closed_threshold(n: int, dim_total: int, lam_value: float) -> float:
    return 1.0 - lam_value * dim_total / n


def _purity_branch(x: float, dim_total: int) -> float:
    return (1.0 - x) / (dim_total - 1.0 - x)


def _witness_branch(x: float, lambda_rho: float, dim_total: int, bound: float) -> float:
    c = (x * (1.0 + dim_total * lambda_rho) - 1.0) / dim_total
    return c / (bound + c)


def _radius(x: float, dim_total: int, lambda_rho: float, bound: float) -> float:
    """The smaller of the purity branch and the witness branch with Tr(W sigma) <= bound."""
    witness = _witness_branch(x, lambda_rho, dim_total, bound)
    return float(min(_purity_branch(x, dim_total), witness))


@dataclass(frozen=True, eq=False)
class Certificate:
    """The chain from a product basis to its entanglement threshold.

    ``lam`` is the minimum product overlap as the seesaw finds it: an upper
    estimate, not the proof's lower bound ``proof.prove_product_minimum``
    gives.  ``witness`` is the normalized W = (P - lambda I)/(n - lambda D),
    ``omega`` the complement state, ``lambda_omega`` = -Tr(W omega) its
    violation and ``x_star`` the threshold above which the white-noise family
    through omega stays witness-negative.  Build it with ``certify``.
    """

    upb: UPBSet
    lam: LambdaResult
    witness: Witness
    omega: DensityMatrix
    lambda_omega: float
    x_star: float

    def x_grid(self, k: int) -> np.ndarray:
        """k >= 1 evenly spaced points strictly inside (x*, 1)."""
        k = _integer(k, "grid size", 1)
        return np.linspace(self.x_star, 1.0, k + 2)[1:-1]

    def member(self, x: float) -> DensityMatrix:
        """The white-noise family member x * omega + (1 - x) * I/D."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {x!r}")
        d = self.upb.total_dim
        m = x * self.omega.matrix + (1.0 - x) * np.eye(d) / d
        return DensityMatrix(m, self.upb.structure)

    def _check_entangled(self, x: float) -> None:
        """Raise unless x lies strictly in (x*, 1), where the family is certified entangled."""
        if not self.x_star < x < 1.0:
            raise ValueError(f"x must lie strictly between x* = {self.x_star!r} and 1, got {x!r}")

    def radius(self, x: float) -> float:
        """Certified ball radius y0(x) around the family member at x.

        Minimum of two branches: the purity-ball branch (1 - x)/(D - 1 - x),
        under which every perturbation direction mixes into the separable
        purity ball, and the witness branch, under which the mixture stays
        witness-negative even when Tr(W sigma) takes the largest eigenvalue of W.
        """
        self._check_entangled(x)
        return _radius(x, self.upb.total_dim, self.lambda_omega, self.witness.max_pos_eigenvalue)


def certify(upb: UPBSet, lam: LambdaResult) -> Certificate:
    """Build the witness, complement state, violation and threshold of a set.

    The violation must stay below the 1 - 2/D ceiling, and x* must agree in
    its two forms (see ``entanglement_threshold_upb``).
    """
    witness = build_witness(upb, lam)
    omega = omega_state(upb)
    lambda_omega = -witness_value(witness, omega)
    d = upb.total_dim
    if lambda_omega > 1.0 - 2.0 / d + IDENTITY_ATOL:
        raise RuntimeError(
            f"witness violation {lambda_omega!r} exceeds the 1 - 2/D ceiling"
        )
    x_star = entanglement_threshold_upb(upb.cardinality, d, lam.value, lambda_omega)
    return Certificate(upb, lam, witness, omega, float(lambda_omega), float(x_star))


@dataclass(frozen=True)
class CrossingResult:
    """Where the two radius branches meet, with the tabulated closed form beside it.

    ``x0_printed`` evaluates the closed-form expression as tabulated; it does
    not match the branch-equality root and is carried for comparison only,
    never used downstream.  ``residual`` is the branch gap at the root.
    """

    x0_root: float
    x0_printed: float
    branch_value: float
    residual: float


def crossing_x0(n: int, dim_total: int, lam_value: float) -> CrossingResult:
    """Unique x in (x*, 1) where the purity and witness branches are equal.

    The witness branch is that of the product-basis witness: violation
    lambda/(n - lambda D) on the complement state and flat positive eigenvalue
    (1 - lambda)/(n - lambda D).  With a = 1 + D lambda_omega and b that
    eigenvalue, branch equality reduces to (1 - x) b = (D - 2)(x a - 1)/D,
    which is linear in x; its root is
    (n(D - 2) + D(1 - lambda(D - 1))) / (n(D - 2) + D(1 - lambda)).
    The tabulated form has the same numerator but multiplies n(D - 2) by
    D(1 - lambda) in its denominator where the root adds them.  Input must
    satisfy n < D and 0 < lambda < n/D; the root must lie in (x*, 1) and close
    the branch gap to CROSSING_RESIDUAL.
    """
    n = _integer(n, "cardinality", 1)
    dim_total = _integer(dim_total, "total dimension", n + 1)
    norm = _normalizer(n, dim_total, lam_value)
    lambda_omega = lam_value / norm
    bound = (1.0 - lam_value) / norm
    x_star = _closed_threshold(n, dim_total, lam_value)
    numerator = n * (dim_total - 2) + dim_total * (1.0 - lam_value * (dim_total - 1))
    x0 = numerator / (n * (dim_total - 2) + dim_total * (1.0 - lam_value))
    if not x_star < x0 < 1.0:
        raise RuntimeError(f"branch crossing {x0!r} outside (x* = {x_star!r}, 1)")
    branch = _purity_branch(x0, dim_total)
    residual = abs(branch - _witness_branch(x0, lambda_omega, dim_total, bound))
    if residual > CROSSING_RESIDUAL:
        raise RuntimeError(f"branch gap {residual:.3e} at the closed-form crossing")
    printed = numerator / (n * (dim_total - 2) * dim_total * (1.0 - lam_value))
    return CrossingResult(
        x0_root=float(x0),
        x0_printed=float(printed),
        branch_value=float(branch),
        residual=float(residual),
    )


@dataclass(frozen=True)
class MixtureDecomposition:
    """Weights of the two-stage rewrite of y sigma + (1 - y) rho_x.

    s = 1 - x(1 - y) carries the separable-ball stage t sigma + (1 - t) I/D
    with t = y/s, and 1 - s carries the base state.
    """

    s: float
    t: float


def mixture_tau(
    cert: Certificate, sigma: DensityMatrix, x: float, y: float
) -> tuple[DensityMatrix, MixtureDecomposition]:
    """y sigma + (1 - y) rho_x together with its (s, t) decomposition.

    The rewrite tau = s {t sigma + (1 - t) I/D} + (1 - s) omega is verified to
    IDENTITY_ATOL on every call.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x!r}")
    if not 0.0 <= y < 1.0:
        raise ValueError(f"y must lie in [0, 1), got {y!r}")
    structure = cert.upb.structure
    if sigma.structure.total_dim != structure.total_dim:
        raise ValueError("sigma dimension does not match the family")
    rho_x = cert.member(x)
    tau_m = y * sigma.matrix + (1.0 - y) * rho_x.matrix
    s = 1.0 - x * (1.0 - y)
    t = y / s
    d = structure.total_dim
    inner = t * sigma.matrix + (1.0 - t) * np.eye(d) / d
    recon = s * inner + (1.0 - s) * cert.omega.matrix
    resid = float(np.abs(tau_m - recon).max())
    if resid > IDENTITY_ATOL:
        raise RuntimeError(f"mixture decomposition identity violated: residual {resid:.3e}")
    return DensityMatrix(tau_m, structure), MixtureDecomposition(float(s), float(t))


def in_gurvits_ball(rho: DensityMatrix) -> bool:
    """Purity below 1/(D - 1): sufficient (not necessary) for separability."""
    if rho.structure.n_parties != 2:
        raise ValueError("the purity-ball criterion is stated for bipartite structures")
    d = rho.structure.total_dim
    return purity(rho) < 1.0 / (d - 1)


def _center_inv_sqrt(center: DensityMatrix) -> np.ndarray:
    """center^{-1/2}; the center must have full rank."""
    dec = eig_hermitian(center)
    lo = float(dec.eigenvalues[0])
    if lo < RANK_TOL:
        raise ValueError(
            f"center must have full rank: smallest eigenvalue {lo:.3e} < RANK_TOL = {RANK_TOL:g}"
        )
    return (dec.eigenvectors / np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.conj().T


def _membership(tau: np.ndarray, inv_sqrt: np.ndarray) -> float:
    """1 - min eigenvalue of inv_sqrt tau inv_sqrt, clamped to [0, 1]."""
    lam_min = float(np.linalg.eigvalsh(inv_sqrt @ tau @ inv_sqrt)[0])
    return float(min(1.0, max(0.0, 1.0 - lam_min)))


def ball_membership(tau: DensityMatrix, center: DensityMatrix) -> float:
    """Smallest mu with tau = mu rho' + (1 - mu) center for a valid state rho'.

    Computed as 1 - min eigenvalue of center^{-1/2} tau center^{-1/2}, clamped
    to [0, 1]; tau lies in the radius-r ball around center iff the result < r.
    """
    if tau.dim != center.dim:
        raise ValueError("state and center dimensions differ")
    return _membership(tau.matrix, _center_inv_sqrt(center))


def separable_mixing_threshold(cert: Certificate) -> float:
    """Mixing weight below which any separable admixture stays witness-negative.

    Equals the minimum overlap itself: p lambda_omega / (Tr W+ + p lambda_omega);
    the identity is re-verified numerically to IDENTITY_ATOL.
    """
    p, lambda_omega = cert.witness.p_count, cert.lambda_omega
    threshold = p * lambda_omega / (cert.witness.pos_part_trace + p * lambda_omega)
    if abs(threshold - cert.lam.value) > IDENTITY_ATOL:
        raise RuntimeError(
            f"mixing-threshold identity violated: {threshold!r} vs {cert.lam.value!r}"
        )
    return float(threshold)


def ppt_mixing_threshold(cert: Certificate, sigma: DensityMatrix) -> float:
    """Per-direction mixing threshold lambda_omega / (lambda_omega + Tr(W sigma)).

    Defined for PPT directions with nonnegative witness value; mixtures below
    the threshold stay witness-negative (and PPT, both components being PPT).
    """
    val = witness_value(cert.witness, sigma)
    if val < -WITNESS_SIGN_ATOL:
        raise ValueError(
            f"direction has negative witness value {val!r}; threshold undefined"
        )
    if not is_ppt(sigma):
        raise ValueError("direction must be PPT on every bipartition")
    return float(cert.lambda_omega / (cert.lambda_omega + max(val, 0.0)))


@dataclass(frozen=True)
class DirectionCheck:
    z: float
    min_pt_eigenvalue: float
    witness_value: float
    ppt_ok: bool
    witness_ok: bool


@dataclass(frozen=True, eq=False)
class MaximalRobustnessReport:
    """Per-z PPT and witness records for mixing toward a zero-witness direction.

    Failures are reported, not raised: these checks validate a proven
    guarantee, so a failure indicates a bug or a tolerance issue, and the
    full record is the useful artifact.
    """

    x: float
    checks: tuple[DirectionCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ppt_ok and c.witness_ok for c in self.checks)


def minimizer_direction(cert: Certificate) -> DensityMatrix:
    """Uniform mixture of the collected minimizing product-state projectors."""
    structure = cert.upb.structure
    mats = [m.to_density(structure).matrix for m in cert.lam.minimizers]
    return DensityMatrix(sum(mats) / len(mats), structure)


def verify_maximal_robustness(
    cert: Certificate, sigma_dir: DensityMatrix, x: float, z_grid
) -> MaximalRobustnessReport:
    """Check z sigma_dir + (1 - z) rho_x stays PPT and witness-negative on a z grid.

    x must lie in (x*, 1) and the grid must hold at least one z in [0, 1).
    """
    cert._check_entangled(x)
    z_grid = [float(z) for z in z_grid]
    if not z_grid:
        raise ValueError("z_grid must hold at least one point")
    rho_x = cert.member(x).matrix
    checks = []
    for z in z_grid:
        if not 0.0 <= z < 1.0:
            raise ValueError(f"grid entries must lie in [0, 1), got {z!r}")
        m = z * sigma_dir.matrix + (1.0 - z) * rho_x
        lo = min_pt_eigenvalue(m, cert.upb.structure)
        wv = witness_value(cert.witness, m)
        checks.append(DirectionCheck(z, lo, wv, lo >= -PSD_TOL, wv < 0.0))
    return MaximalRobustnessReport(float(x), tuple(checks))


def robustness_profile(cert: Certificate, grid_size: int) -> dict:
    """Report data for one catalog set: thresholds, crossing point and sampled radii.

    ``radius_samples`` rows hold x, the certified radius ``y0_tight`` and
    ``y0_paper``, the radius with Tr W+ / p in place of the largest eigenvalue
    of W; the two agree for flat-spectrum witnesses.
    """
    lam = cert.lam.value
    d = cert.upb.total_dim
    crossing = crossing_x0(cert.upb.cardinality, d, lam)
    averaged = cert.witness.pos_part_trace / cert.witness.p_count
    return {
        "upb_name": cert.upb.name,
        "lambda": lam,
        "lambda_omega": cert.lambda_omega,
        "x_star": cert.x_star,
        "x0_root": crossing.x0_root,
        "x0_printed_eq32": crossing.x0_printed,
        "radius_samples": [
            {
                "x": float(x),
                "y0_tight": cert.radius(x),
                "y0_paper": _radius(x, d, cert.lambda_omega, averaged),
            }
            for x in cert.x_grid(grid_size)
        ],
        "mixing_threshold": separable_mixing_threshold(cert),
    }
