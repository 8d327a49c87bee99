"""Seeded randomized verification of the ball and mixing guarantees.

Sampling is counter-based: every draw comes from a generator seeded by
(master_seed, stream_id, tag, trial index), so outcomes are bit-identical for
a fixed configuration no matter how trials are scheduled or parallelized.
Violation margins are recorded even on success so tolerance regressions show
up as trends, not just flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import stats

from .operators import (
    DensityMatrix,
    HilbertStructure,
    PSD_TOL,
    is_ppt_all_cuts,
)
from .robustness import Certificate, LineFamily, ball_membership, mixture_tau
from .witness import witness_value

_HS_TAG = 1
_PRODUCT_TAG = 2


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling plan: master seed and stream label."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("seeds and stream ids must be nonnegative")


def _substream(cfg: SamplerConfig, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([cfg.master_seed, cfg.stream_id, tag, trial])


def sample_hs_density(
    structure: HilbertStructure, cfg: SamplerConfig, trial: int = 0
) -> DensityMatrix:
    """One Hilbert-Schmidt random state: G G^dag / Tr(G G^dag) for Gaussian G.

    Full rank with probability 1.
    """
    rng = _substream(cfg, _HS_TAG, trial)
    d = structure.total_dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix.from_matrix(m / np.trace(m).real, structure)


def sample_random_product_separable(
    structure: HilbertStructure,
    mixture_terms: int,
    cfg: SamplerConfig,
    trial: int = 0,
) -> DensityMatrix:
    """Dirichlet-weighted mixture of random product projectors; separable by construction."""
    if mixture_terms < 1:
        raise ValueError("mixture_terms must be at least 1")
    rng = _substream(cfg, _PRODUCT_TAG, trial)
    weights = rng.dirichlet(np.ones(mixture_terms))
    d = structure.total_dim
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        locals_ = []
        for dim in structure.local_dims:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            locals_.append(v / np.linalg.norm(v))
        full = reduce(np.kron, locals_)
        m += w * np.outer(full, full.conj())
    return DensityMatrix.from_matrix(m, structure)


@dataclass(frozen=True, eq=False)
class VerificationOutcome:
    """Counts and margins from one randomized suite, with its config echoed.

    ``worst_margin`` is the minimum over trials of
    min(PT min-eigenvalue + psd_tol, -witness value); it stays positive for a
    clean run.  PPT and witness violations are counted independently, and the
    substream keys of failing trials are recorded for replay.
    """

    suite: str
    trials: int
    ppt_violations: int
    witness_violations: int
    worst_margin: float
    seeds_of_failures: tuple[tuple[int, ...], ...]
    config: dict

    @property
    def ok(self) -> bool:
        return self.ppt_violations == 0 and self.witness_violations == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "ppt_violations": self.ppt_violations,
            "witness_violations": self.witness_violations,
            "worst_margin": self.worst_margin,
            "seeds_of_failures": [list(k) for k in self.seeds_of_failures],
            "config": self.config,
        }


def verify_ball_robustness(
    cert: Certificate,
    x_grid,
    y_fraction: float,
    trials: int,
    cfg: SamplerConfig,
    psd_tol: float = PSD_TOL,
) -> VerificationOutcome:
    """Perturb each family member by arbitrary random states inside its ball.

    For every x in the grid and every trial, a Hilbert-Schmidt random sigma is
    mixed in at y = y_fraction * y0(x); the mixture must stay PPT on every
    bipartition and strictly witness-negative.  Zero violations expected for
    y_fraction < 1; violations are data, not exceptions.
    """
    if not 0.0 < y_fraction < 1.0:
        raise ValueError(f"y_fraction must lie in (0, 1), got {y_fraction!r}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    upb, witness, x_star = cert.upb, cert.witness, cert.x_star
    fam = LineFamily(cert.omega)
    ppt_bad = 0
    wit_bad = 0
    worst = np.inf
    failures = []
    x_grid = [float(x) for x in x_grid]
    for xi, x in enumerate(x_grid):
        if not x_star < x < 1.0:
            raise ValueError(f"grid point {x!r} outside (x* = {x_star!r}, 1)")
        y = y_fraction * cert.radius(x)
        for t in range(trials):
            flat = xi * trials + t
            sigma = sample_hs_density(upb.structure, cfg, trial=flat)
            tau, _ = mixture_tau(fam, sigma, x, y)
            rep = is_ppt_all_cuts(tau, psd_tol)
            wv = witness_value(witness, tau)
            worst = min(worst, rep.min_eigenvalue + psd_tol, -wv)
            bad = False
            if not rep.is_ppt:
                ppt_bad += 1
                bad = True
            if wv >= 0.0:
                wit_bad += 1
                bad = True
            if bad:
                failures.append((cfg.master_seed, cfg.stream_id, _HS_TAG, flat))
    return VerificationOutcome(
        suite="ball",
        trials=len(x_grid) * trials,
        ppt_violations=ppt_bad,
        witness_violations=wit_bad,
        worst_margin=float(worst),
        seeds_of_failures=tuple(failures),
        config={
            "upb": upb.name,
            "master_seed": cfg.master_seed,
            "stream_id": cfg.stream_id,
            "trials_per_point": trials,
            "x_grid": x_grid,
            "y_fraction": y_fraction,
            "psd_tol": psd_tol,
        },
    )


def verify_separable_mixing(
    cert: Certificate,
    z_fraction: float,
    trials: int,
    cfg: SamplerConfig,
    mixture_terms: int = 4,
    psd_tol: float = PSD_TOL,
) -> VerificationOutcome:
    """Mix the complement state with random separable states below the threshold.

    z = z_fraction * lambda; every mixture is PPT by construction (both
    components are) and must stay strictly witness-negative.
    """
    if not 0.0 < z_fraction < 1.0:
        raise ValueError(f"z_fraction must lie in (0, 1), got {z_fraction!r}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    upb, witness, omega = cert.upb, cert.witness, cert.omega
    z = z_fraction * cert.lam.value
    ppt_bad = 0
    wit_bad = 0
    worst = np.inf
    failures = []
    for t in range(trials):
        sigma = sample_random_product_separable(upb.structure, mixture_terms, cfg, trial=t)
        m = z * sigma.matrix + (1.0 - z) * omega.matrix
        state = DensityMatrix.from_matrix(m, upb.structure)
        rep = is_ppt_all_cuts(state, psd_tol)
        wv = witness_value(witness, state)
        worst = min(worst, rep.min_eigenvalue + psd_tol, -wv)
        bad = False
        if not rep.is_ppt:
            ppt_bad += 1
            bad = True
        if wv >= 0.0:
            wit_bad += 1
            bad = True
        if bad:
            failures.append((cfg.master_seed, cfg.stream_id, _PRODUCT_TAG, t))
    return VerificationOutcome(
        suite="separable-mixing",
        trials=trials,
        ppt_violations=ppt_bad,
        witness_violations=wit_bad,
        worst_margin=float(worst),
        seeds_of_failures=tuple(failures),
        config={
            "upb": upb.name,
            "master_seed": cfg.master_seed,
            "stream_id": cfg.stream_id,
            "trials": trials,
            "z_fraction": z_fraction,
            "mixture_terms": mixture_terms,
            "psd_tol": psd_tol,
        },
    )


@dataclass(frozen=True)
class BallFractionEstimate:
    """Fraction of random states inside a membership ball, with a binomial CI.

    At these dimensions the certified balls are tiny in Hilbert-Schmidt
    measure, so the estimate is expected to be ~0; the value demonstrates the
    machinery, not a quantitative claim.
    """

    fraction: float
    ci_low: float
    ci_high: float
    hits: int
    trials: int
    confidence: float = 0.95


def ball_fraction_estimate(
    center: DensityMatrix, radius: float, trials: int, cfg: SamplerConfig
) -> BallFractionEstimate:
    """Estimate the Hilbert-Schmidt probability of landing inside the ball."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    hits = 0
    for t in range(trials):
        tau = sample_hs_density(center.structure, cfg, trial=t)
        if ball_membership(tau, center) < radius:
            hits += 1
    ci = stats.binomtest(hits, trials).proportion_ci(
        confidence_level=0.95, method="wilson"
    )
    return BallFractionEstimate(
        fraction=hits / trials,
        ci_low=float(ci.low),
        ci_high=float(ci.high),
        hits=hits,
        trials=trials,
    )
