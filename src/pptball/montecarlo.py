"""Verification of the ball, mixing and maximal-robustness guarantees.

Three suites score mixtures of validated states in one loop, ``_score``, by
the unchecked kernels of ``min_pt_eigenvalue`` and ``witness_value``: random
states in each certified ball, random separable states below the mixing
threshold, and a z grid toward a zero-witness direction.  The first two
probe each proven bound at ``PROBE_FRACTION`` of it: y = PROBE_FRACTION y0(x)
in the ball, z = PROBE_FRACTION lambda in the mixing suite.  Sampling is counter-based:
every draw comes from ``witness._stream``, a ``random.Random`` seeded by the
string "seed:stream_id:tag:trial", so outcomes are bit-identical for a fixed
configuration no matter how trials are scheduled or parallelized.  Each
randomized suite takes a plain seed and owns a stream:
ball 1, separable mixing 2, ball fraction 3; the public samplers take seed,
trial and stream as plain integers.  Gaussians come from
``witness._complex_gaussians``, the Box-Muller draw that also starts the
seesaw, and only ``random()`` is called, whose sequence for a seed Python
keeps across versions; no sampler loads ``numpy.random``.
Violation margins are recorded even on success so tolerance regressions show
up as trends, not just flips.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .operators import DensityMatrix, HilbertStructure, PSD_TOL, _integer, _kron_rows, _structure
from .operators import _min_pt_eigenvalue, _operator, _real, _sequence, _state, _trace_product
from .operators import all_bipartitions
from .robustness import Certificate, _center_inv_sqrt, _membership
from .witness import _complex_gaussians, _stream, _uniforms

_HS_TAG = 1
_PRODUCT_TAG = 2
_BALL_STREAM = 1
_MIXING_STREAM = 2
_MEMBERSHIP_STREAM = 3
# Product projectors per random separable state in the mixing suite.
MIXTURE_TERMS = 4
# The ball and mixing suites test each proven bound at this fraction of it, so
# a violation means the bound is wrong by more than 1 %.
PROBE_FRACTION = 0.99
# Two-sided 95 % normal quantile; equals scipy.special.ndtri(0.975) to the last bit.
WILSON_Z = 1.959963984540054


def _sampler_key(seed, stream_id, tag: int, trial) -> tuple[int, int, int, int]:
    """A public sampler's key, with its seed, stream and trial checked on entry."""
    seed, stream_id = _integer(seed, "seed", 0), _integer(stream_id, "stream_id", 0)
    return seed, stream_id, tag, _integer(trial, "trial", 0)


def _hs_matrix(d: int, gen: random.Random) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for a d x d complex Gaussian G."""
    g = _complex_gaussians(gen, d * d).reshape(d, d)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _dirichlet(gen: random.Random, terms: int) -> np.ndarray:
    """Dirichlet(1, ..., 1) weights: E / sum(E) with E = -ln(1 - u) per uniform."""
    e = -np.log1p(-_uniforms(gen, terms))
    return e / e.sum()


def _product_mixture(local_dims, terms: int, gen: random.Random) -> np.ndarray:
    """Dirichlet-weighted sum of ``terms`` random product projectors.

    The weights come first from ``gen``.  Row t of one Gaussian draw then
    holds term t's local vectors, party after party.  Each squared norm is
    the dot product ``np.linalg.norm`` computes, on the same strided views,
    so the state is bit-identical to normalising every local vector on its
    own.
    """
    weights = _dirichlet(gen, terms)
    gauss = _complex_gaussians(gen, terms * sum(local_dims)).reshape(terms, -1)
    locals_ = []
    start = 0
    for dim in local_dims:
        v = gauss[:, None, start : start + dim]
        start += dim
        sq = v.real @ v.real.transpose(0, 2, 1) + v.imag @ v.imag.transpose(0, 2, 1)
        locals_.append(v / np.sqrt(sq))
    full = reduce(_kron_rows, locals_)[:, 0]
    m = np.zeros((full.shape[1],) * 2, dtype=complex)
    for w, f in zip(weights, full):
        m += w * np.outer(f, f.conj())
    return m


def sample_hs_density(
    structure: HilbertStructure | tuple, seed: int, trial: int = 0, stream_id: int = 0
) -> DensityMatrix:
    """One Hilbert-Schmidt random state: G G^dag / Tr(G G^dag) for Gaussian G.

    Full rank with probability 1.
    """
    gen = _stream(_sampler_key(seed, stream_id, _HS_TAG, trial))
    return DensityMatrix(_hs_matrix(_structure(structure).total_dim, gen), structure)


def sample_random_product_separable(
    structure: HilbertStructure | tuple,
    mixture_terms: int,
    seed: int,
    trial: int = 0,
    stream_id: int = 0,
) -> DensityMatrix:
    """Dirichlet-weighted mixture of random product projectors; separable by construction."""
    structure, mixture_terms = _structure(structure), _integer(mixture_terms, "mixture_terms", 1)
    gen = _stream(_sampler_key(seed, stream_id, _PRODUCT_TAG, trial))
    return DensityMatrix(_product_mixture(structure.local_dims, mixture_terms, gen), structure)


@dataclass(frozen=True, eq=False)
class VerificationOutcome:
    """Counts and margins from one verification suite, with its config echoed.

    ``ppt_margin`` is the minimum over trials of PT min-eigenvalue + PSD_TOL
    and ``witness_margin`` the minimum of -Tr(W tau); each comes with the key
    of the trial where it occurred (the substream key of a random draw, or
    the z index of a grid point), and both stay positive for a clean run.
    PPT and witness violations are counted independently, and the keys of
    failing trials are recorded for replay.
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


def _score(suite: str, cert: Certificate, keyed_matrices, **config) -> VerificationOutcome:
    """Check every (key, matrix) pair: PPT on every cut, witness-negative.

    The echoed config is the set, the suite's own ``config``, then PSD_TOL.
    """
    trials = ppt_bad = wit_bad = 0
    ppt_margin = witness_margin = np.inf
    ppt_key = witness_key = ()
    failures = []
    dims, cuts = cert.upb.structure.local_dims, all_bipartitions(cert.upb.structure)
    w = cert.witness.matrix
    for key, m in keyed_matrices:
        trials += 1
        lo = _min_pt_eigenvalue(m, dims, cuts)
        wv = _trace_product(w, m)
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
        config={"upb": cert.upb.name, **config, "psd_tol": PSD_TOL},
    )


def verify_ball_robustness(
    cert: Certificate, grid: int, trials: int, seed: int
) -> VerificationOutcome:
    """Perturb each family member by arbitrary random states inside its ball.

    For every x in ``cert.x_grid(grid)`` and every trial, a Hilbert-Schmidt
    random sigma is mixed in at y = PROBE_FRACTION * y0(x); the mixture must
    stay PPT on every bipartition and strictly witness-negative.  Zero
    violations expected; violations are data, not exceptions.
    """
    trials, seed = _integer(trials, "trials", 1), _integer(seed, "seed", 0)
    x_grid = [float(x) for x in cert.x_grid(grid)]

    def keyed_matrices():
        for xi, x in enumerate(x_grid):
            y = PROBE_FRACTION * cert.radius(x)
            rho_x = cert.member(x).matrix
            for t in range(xi * trials, (xi + 1) * trials):
                key = (seed, _BALL_STREAM, _HS_TAG, t)
                sigma = _hs_matrix(cert.upb.total_dim, _stream(key))
                yield key, y * sigma + (1.0 - y) * rho_x

    return _score(
        "ball",
        cert,
        keyed_matrices(),
        master_seed=seed,
        stream_id=_BALL_STREAM,
        trials_per_point=trials,
        x_grid=x_grid,
        y_fraction=PROBE_FRACTION,
    )


def verify_separable_mixing(cert: Certificate, trials: int, seed: int) -> VerificationOutcome:
    """Mix the complement state with random separable states below the threshold.

    z = PROBE_FRACTION * lambda; each separable state mixes MIXTURE_TERMS random
    product projectors.  Every mixture is PPT by construction (both components
    are) and must stay strictly witness-negative.

    On each cut omega^Gamma has an n-dimensional kernel and sigma^Gamma one of
    dimension at least D - MIXTURE_TERMS.  When n > MIXTURE_TERMS (tiles and
    pyramid: n = 5, D = 9) the two kernels meet, so every mixture's smallest
    PT eigenvalue is exactly 0: ``ppt_margin`` is PSD_TOL up to rounding and
    ``ppt_margin_key`` names the trial that rounding happened to favour.  On
    shifts (n = 4, D = 8) the kernels need not meet and the margin exceeds
    PSD_TOL.
    """
    trials, seed = _integer(trials, "trials", 1), _integer(seed, "seed", 0)
    z = PROBE_FRACTION * cert.lam

    def keyed_matrices():
        for t in range(trials):
            key = (seed, _MIXING_STREAM, _PRODUCT_TAG, t)
            sigma = _product_mixture(cert.upb.structure.local_dims, MIXTURE_TERMS, _stream(key))
            yield key, z * sigma + (1.0 - z) * cert.omega.matrix

    return _score(
        "separable-mixing",
        cert,
        keyed_matrices(),
        master_seed=seed,
        stream_id=_MIXING_STREAM,
        trials=trials,
        z_fraction=PROBE_FRACTION,
        mixture_terms=MIXTURE_TERMS,
    )


def verify_maximal_robustness(
    cert: Certificate, sigma_dir: DensityMatrix | np.ndarray, x: float, z_grid
) -> VerificationOutcome:
    """Check z sigma_dir + (1 - z) rho_x stays PPT and witness-negative on a z grid.

    x must lie in (x*, 1), sigma_dir must be a state on the family's structure
    (a plain matrix is validated as one) and the grid must hold at least one real
    z in [0, 1); all are checked before any mixture is scored.  The mixture at
    z_grid[i] is keyed (i,).  Failures are data, not exceptions: the grid checks a
    proven guarantee, so a failure points to a bug or to a tolerance that is too tight.
    """
    x, sigma_dir = cert._check_entangled(x), _state(sigma_dir, cert.upb.structure)
    z_grid = [_real(z, "grid entry") for z in _sequence(z_grid, "grid entries")]
    for z in z_grid:
        if not 0.0 <= z < 1.0:
            raise ValueError(f"grid entries must lie in [0, 1), got {z!r}")
    rho_x = cert.member(x).matrix
    keyed_matrices = (
        ((i,), z * sigma_dir.matrix + (1.0 - z) * rho_x) for i, z in enumerate(z_grid)
    )
    return _score("maximal-direction", cert, keyed_matrices, x=x, z_grid=z_grid)


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
    center: DensityMatrix | np.ndarray, radius: float, trials: int, seed: int
) -> BallFractionEstimate:
    """Estimate the Hilbert-Schmidt probability of landing inside the ball.

    Scores each trial as ``ball_membership`` does, with the center's inverse
    square root computed once.
    """
    trials = _integer(trials, "trials", 1)
    seed, center, radius = _integer(seed, "seed", 0), _operator(center), _real(radius, "radius")
    if not 0.0 <= radius <= 1.0:
        raise ValueError(f"radius must lie in [0, 1], got {radius!r}")
    inv_sqrt = _center_inv_sqrt(center)
    hits = 0
    for t in range(trials):
        tau = _hs_matrix(center.dim, _stream((seed, _MEMBERSHIP_STREAM, _HS_TAG, t)))
        if _membership(tau, inv_sqrt) < radius:
            hits += 1
    low, high = _wilson_interval(hits, trials)
    return BallFractionEstimate(
        fraction=hits / trials, ci_low=low, ci_high=high, hits=hits, trials=trials
    )

