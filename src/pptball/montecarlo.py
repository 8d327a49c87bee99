"""Seeded randomized verification of the ball and mixing guarantees.

Sampling is counter-based: every draw comes from a generator seeded by
(master_seed, stream_id, tag, trial index), so outcomes are bit-identical for
a fixed configuration no matter how trials are scheduled or parallelized.
Violation margins are recorded even on success so tolerance regressions show
up as trends, not just flips.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .operators import DensityMatrix, HilbertStructure, PSD_TOL, min_pt_eigenvalue
from .robustness import Certificate, _center_inv_sqrt, _membership
from .witness import Witness, witness_value

_HS_TAG = 1
_PRODUCT_TAG = 2
# Product projectors per random separable state in the mixing suite.
MIXTURE_TERMS = 4
# Two-sided 95 % normal quantile; equals scipy.special.ndtri(0.975) to the last bit.
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling plan: master seed and stream label."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("seeds and stream ids must be nonnegative")


def _key(cfg: SamplerConfig, tag: int, trial: int) -> tuple[int, int, int, int]:
    """The substream key of one draw; it seeds the draw and replays it."""
    return (cfg.master_seed, cfg.stream_id, tag, trial)


def _substream(cfg: SamplerConfig, tag: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(_key(cfg, tag, trial))


def _hs_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for a d x d complex Gaussian G."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _product_mixture(local_dims, terms: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet-weighted sum of ``terms`` random product projectors."""
    weights = rng.dirichlet(np.ones(terms))
    d = math.prod(local_dims)
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        locals_ = []
        for dim in local_dims:
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            locals_.append(v / np.linalg.norm(v))
        full = reduce(np.kron, locals_)
        m += w * np.outer(full, full.conj())
    return m


def sample_hs_density(
    structure: HilbertStructure, cfg: SamplerConfig, trial: int = 0
) -> DensityMatrix:
    """One Hilbert-Schmidt random state: G G^dag / Tr(G G^dag) for Gaussian G.

    Full rank with probability 1.
    """
    m = _hs_matrix(structure.total_dim, _substream(cfg, _HS_TAG, trial))
    return DensityMatrix.from_matrix(m, structure)


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
    return DensityMatrix.from_matrix(
        _product_mixture(structure.local_dims, mixture_terms, rng), structure
    )


@dataclass(frozen=True, eq=False)
class VerificationOutcome:
    """Counts and margins from one randomized suite, with its config echoed.

    ``ppt_margin`` is the minimum over trials of PT min-eigenvalue + PSD_TOL
    and ``witness_margin`` the minimum of -Tr(W tau); each comes with the
    substream key of the trial where it occurred, and both stay positive for
    a clean run.  PPT and witness violations are counted independently, and
    the substream keys of failing trials are recorded for replay.
    """

    suite: str
    trials: int
    ppt_violations: int
    witness_violations: int
    ppt_margin: float
    ppt_margin_key: tuple[int, ...]
    witness_margin: float
    witness_margin_key: tuple[int, ...]
    seeds_of_failures: tuple[tuple[int, ...], ...]
    config: dict

    @property
    def ok(self) -> bool:
        return self.ppt_violations == 0 and self.witness_violations == 0

    @property
    def worst_margin(self) -> float:
        return min(self.ppt_margin, self.witness_margin)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _score(
    suite: str, witness: Witness, structure: HilbertStructure, keyed_matrices, config: dict
) -> VerificationOutcome:
    """Check every (substream key, matrix) pair: PPT on every cut, witness-negative."""
    trials = ppt_bad = wit_bad = 0
    ppt_margin = witness_margin = np.inf
    ppt_key = witness_key = ()
    failures = []
    for key, m in keyed_matrices:
        trials += 1
        lo = min_pt_eigenvalue(m, structure)
        wv = witness_value(witness, m)
        if lo + PSD_TOL < ppt_margin:
            ppt_margin, ppt_key = lo + PSD_TOL, key
        if -wv < witness_margin:
            witness_margin, witness_key = -wv, key
        ppt_ok = lo >= -PSD_TOL
        ppt_bad += not ppt_ok
        wit_bad += wv >= 0.0
        if not ppt_ok or wv >= 0.0:
            failures.append(key)
    return VerificationOutcome(
        suite=suite,
        trials=trials,
        ppt_violations=ppt_bad,
        witness_violations=wit_bad,
        ppt_margin=float(ppt_margin),
        ppt_margin_key=ppt_key,
        witness_margin=float(witness_margin),
        witness_margin_key=witness_key,
        seeds_of_failures=tuple(failures),
        config=config,
    )


def verify_ball_robustness(
    cert: Certificate,
    x_grid,
    y_fraction: float,
    trials: int,
    cfg: SamplerConfig,
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
    x_grid = [float(x) for x in x_grid]
    if not x_grid:
        raise ValueError("x_grid must hold at least one point")
    for x in x_grid:
        if not cert.x_star < x < 1.0:
            raise ValueError(f"grid point {x!r} outside (x* = {cert.x_star!r}, 1)")
    structure = cert.upb.structure

    def keyed_matrices():
        for xi, x in enumerate(x_grid):
            y = y_fraction * cert.radius(x)
            rho_x = cert.member(x).matrix
            for t in range(xi * trials, (xi + 1) * trials):
                sigma = _hs_matrix(structure.total_dim, _substream(cfg, _HS_TAG, t))
                yield _key(cfg, _HS_TAG, t), y * sigma + (1.0 - y) * rho_x

    return _score(
        "ball",
        cert.witness,
        structure,
        keyed_matrices(),
        {
            "upb": cert.upb.name,
            "master_seed": cfg.master_seed,
            "stream_id": cfg.stream_id,
            "trials_per_point": trials,
            "x_grid": x_grid,
            "y_fraction": y_fraction,
            "psd_tol": PSD_TOL,
        },
    )


def verify_separable_mixing(
    cert: Certificate,
    z_fraction: float,
    trials: int,
    cfg: SamplerConfig,
) -> VerificationOutcome:
    """Mix the complement state with random separable states below the threshold.

    z = z_fraction * lambda; each separable state mixes MIXTURE_TERMS random
    product projectors.  Every mixture is PPT by construction (both components
    are) and must stay strictly witness-negative.
    """
    if not 0.0 < z_fraction < 1.0:
        raise ValueError(f"z_fraction must lie in (0, 1), got {z_fraction!r}")
    if trials < 1:
        raise ValueError("at least one trial is required")
    structure = cert.upb.structure
    z = z_fraction * cert.lam.value

    def keyed_matrices():
        for t in range(trials):
            rng = _substream(cfg, _PRODUCT_TAG, t)
            sigma = _product_mixture(structure.local_dims, MIXTURE_TERMS, rng)
            yield _key(cfg, _PRODUCT_TAG, t), z * sigma + (1.0 - z) * cert.omega.matrix

    return _score(
        "separable-mixing",
        cert.witness,
        structure,
        keyed_matrices(),
        {
            "upb": cert.upb.name,
            "master_seed": cfg.master_seed,
            "stream_id": cfg.stream_id,
            "trials": trials,
            "z_fraction": z_fraction,
            "mixture_terms": MIXTURE_TERMS,
            "psd_tol": PSD_TOL,
        },
    )


@dataclass(frozen=True)
class BallFractionEstimate:
    """Fraction of random states inside a membership ball, with a 95 % Wilson interval.

    At these dimensions the certified balls are tiny in Hilbert-Schmidt
    measure, so the estimate is expected to be ~0; the value demonstrates the
    machinery, not a quantitative claim.
    """

    fraction: float
    ci_low: float
    ci_high: float
    hits: int
    trials: int


def _wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Two-sided 95 % Wilson score interval for k successes in n trials.

    Newcombe's (1998) form, evaluated in the same order as scipy's binomtest
    Wilson interval so the bounds agree with it bit for bit.
    """
    p = k / n
    denom = 2 * (n + WILSON_Z**2)
    center = (2 * n * p + WILSON_Z**2) / denom
    delta = WILSON_Z / denom * math.sqrt(4 * n * p * (1 - p) + WILSON_Z**2)
    low = 0.0 if k == 0 else center - delta
    high = 1.0 if k == n else center + delta
    return low, high


def ball_fraction_estimate(
    center: DensityMatrix, radius: float, trials: int, cfg: SamplerConfig
) -> BallFractionEstimate:
    """Estimate the Hilbert-Schmidt probability of landing inside the ball.

    Scores each trial as ``ball_membership`` does, with the center's inverse
    square root computed once.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    inv_sqrt = _center_inv_sqrt(center)
    hits = 0
    for t in range(trials):
        tau = _hs_matrix(center.dim, _substream(cfg, _HS_TAG, t))
        if _membership(tau, inv_sqrt) < radius:
            hits += 1
    low, high = _wilson_interval(hits, trials)
    return BallFractionEstimate(
        fraction=hits / trials, ci_low=low, ci_high=high, hits=hits, trials=trials
    )

