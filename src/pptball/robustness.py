"""Robustness geometry around bound entangled states.

Covers the white-noise family through a complement state, its entanglement
threshold, the certified ball radius around each family member, the
branch-crossing point of the radius formula, mixture decompositions through
the separable purity ball, ball membership, the separable-mixing thresholds,
and the minimizer direction, a separable state with zero witness value;
``montecarlo.verify_maximal_robustness`` checks mixtures toward it.

``Certificate(upb, lam)`` is the one constructor of the witness
W = (P - lambda I)/(n - lambda D), a witness only if lambda is at most the
true minimum product overlap, which ``proof.prove_product_minimum``
establishes from below.  It checks lambda once, through ``_line``; every
later number reads its checked lambda.  Every certificate number
(lambda_omega, x*, x0, y0(x)) is a rational function of n, D and lambda,
evaluated exactly from the float lambda (``_line``, ``_branches``,
``_crossing``) and rounded once, a bound outward: x* up, lambda_omega and y0
down; exact for the float lambda and set (Gram deviation 3.3e-16 to 6.7e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .operators import DensityMatrix, HermitianOperator, TRACE_ATOL, _integer, _lowest_eigenvalues
from .operators import _operator, _real, _sequence, _state, eig_hermitian, is_ppt, purity
from .operators import witness_value
from .upb import ProductState, UPBSet, omega_state

RANK_TOL = 1e-12
ZERO_EIG_ATOL = 1e-12
# Tr(W sigma) of a zero-witness direction is zero only up to the rounding of the trace.
WITNESS_SIGN_ATOL = 1e-10


def _line(n: int, d: int, lam: float) -> tuple[Fraction, Fraction]:
    """Check lambda; lambda_omega = lambda/(n - lambda D) and x* = 1 - lambda D/n, exactly.

    lambda_omega is -Tr(W omega) and x* = 1/(1 + D lambda_omega), exact for
    the float lambda.  ``Certificate`` is the one caller: it checks lambda
    here once per certificate.  lambda must be a finite real number, at least
    -ZERO_EIG_ATOL (no product overlap is negative), below n/D, so that the
    normalizer n - lambda D is positive, and above ZERO_EIG_ATOL.  The
    seesaw's lambda is an eigenvalue, so one within ZERO_EIG_ATOL of 0 is a
    zero product overlap: the set is extendible.
    """
    lam = _real(lam, "minimum overlap")
    if not math.isfinite(lam):
        raise ValueError(f"minimum overlap must be finite, got {lam!r}")
    if lam < -ZERO_EIG_ATOL:
        raise ValueError(f"minimum overlap {lam!r} is negative, a value no product overlap takes")
    if lam >= n / d:
        raise ValueError(
            f"minimum overlap {lam!r} outside (0, n/D = {n / d}); "
            "the normalizer n - lambda D must be positive"
        )
    if lam <= ZERO_EIG_ATOL:
        raise ValueError(
            f"minimum overlap {lam!r} is at most ZERO_EIG_ATOL = {ZERO_EIG_ATOL}: "
            "a product state is orthogonal to every member, so the set is extendible"
        )
    lam = Fraction(lam)
    return lam / (n - lam * d), 1 - lam * d / n


def _branches(x: float, n: int, d: int, lam: float) -> tuple[Fraction, Fraction]:
    """The purity and witness branches at x, exactly; the radius y0(x) is the smaller.

    Under the purity branch (1 - x)/(D - 1 - x) every direction mixes into the
    separable purity ball.  Under the witness branch (nx - n + lambda D)/(nx - n + D)
    the mixture stays witness-negative even when Tr(W sigma) is W's largest
    eigenvalue w_max = (1 - lambda)/(n - lambda D): it is c/(w_max + c) with
    c = -Tr(W rho_x) = (nx - n + lambda D)/(D(n - lambda D)).  lambda is the
    certificate's, already checked.
    """
    x, lam = Fraction(x), Fraction(lam)
    return (1 - x) / (d - 1 - x), (n * x - n + lam * d) / (n * x - n + d)


def _outward(q: Fraction, up: bool) -> float:
    """float(q), one ulp further up (``up``) or down when rounding crossed q the other way."""
    f = float(q)
    if Fraction(f) < q if up else Fraction(f) > q:
        f = math.nextafter(f, math.inf if up else -math.inf)
    return f


@dataclass(frozen=True, eq=False)
class Certificate:
    """The chain from a product basis to its entanglement threshold, built from (set, lambda) alone.

    ``lam`` is the float lambda, such as the seesaw's upper estimate of the
    minimum product overlap or the proven lower bound; every other field is
    derived and checked here.  ``witness`` is W = (P - lambda I)/(n - lambda D),
    formed nowhere else, with a flat spectrum: (1 - lambda)/(n - lambda D) n
    times and -lambda/(n - lambda D) D - n times.  ``omega`` is the complement
    state, so a set with n = D is refused first; ``_line`` then checks lambda.
    ``lambda_omega`` = -Tr(W omega) = lambda/(n - lambda D) is the violation,
    at most 1 - 2/D (compared exactly), and ``x_star`` = 1 - lambda D/n the
    threshold above which the white-noise family through omega stays
    witness-negative.  Both numbers are exact functions of (n, D, lambda)
    rounded once, ``lambda_omega`` down and ``x_star`` up.
    """

    upb: UPBSet
    lam: float
    witness: HermitianOperator = field(init=False)
    omega: DensityMatrix = field(init=False)
    lambda_omega: float = field(init=False)
    x_star: float = field(init=False)

    def __post_init__(self):
        upb = self.upb
        if not isinstance(upb, UPBSet):
            raise ValueError(f"upb must be a UPBSet, got {type(upb).__name__}")
        object.__setattr__(self, "omega", omega_state(upb))
        d, n = upb.total_dim, upb.cardinality
        lambda_omega, x_star = _line(n, d, self.lam)
        lam = float(self.lam)
        if d * lambda_omega > d - 2:
            raise ValueError(f"witness violation at lambda = {lam!r} exceeds the 1 - 2/D ceiling")
        witness = HermitianOperator((upb.projector.matrix - lam * np.eye(d)) / (n - lam * d))
        if abs(witness.trace - 1.0) > TRACE_ATOL:
            raise ValueError(f"witness trace must be 1, got {witness.trace!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "lambda_omega", _outward(lambda_omega, up=False))
        object.__setattr__(self, "x_star", _outward(x_star, up=True))

    def x_grid(self, k: int) -> tuple[float, ...]:
        """k >= 1 evenly spaced points strictly inside (x*, 1)."""
        k = _integer(k, "grid size", 1)
        return tuple(np.linspace(self.x_star, 1.0, k + 2)[1:-1].tolist())

    def _noise_line(self, x: float) -> np.ndarray:
        """The matrix x * omega + (1 - x) * I/D, for x in [0, 1]; unvalidated as a state."""
        x = _real(x, "mixing parameter")
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {x!r}")
        d = self.upb.total_dim
        return x * self.omega.matrix + (1.0 - x) * np.eye(d) / d

    def member(self, x: float) -> DensityMatrix:
        """The white-noise family member x * omega + (1 - x) * I/D."""
        return DensityMatrix(self._noise_line(x), self.upb.structure)

    def _check_entangled(self, x: float) -> float:
        """x as a float; raise unless it lies strictly in (x*, 1), where the family is entangled."""
        x = _real(x, "x")
        if not self.x_star < x < 1.0:
            raise ValueError(f"x must lie strictly between x* = {self.x_star!r} and 1, got {x!r}")
        return x

    def radius(self, x: float) -> float:
        """Certified ball radius y0(x) at x: the smaller branch of ``_branches``, rounded down."""
        x = self._check_entangled(x)
        y0 = min(_branches(x, self.upb.cardinality, self.upb.total_dim, self.lam))
        return _outward(y0, up=False)


X0_NOTE = (
    "x0_root is the root of branch equality, (n(D-2) + D(1 - lambda(D-1))) / "
    "(n(D-2) + D(1 - lambda)); x0_printed_eq32 evaluates the tabulated closed "
    "form, whose denominator multiplies n(D-2) by D(1 - lambda) where the root "
    "adds them, so it disagrees with the root and is carried for comparison only."
)


def _crossing(n: int, d: int, lam: float) -> tuple[Fraction, Fraction]:
    """The x0 in (x*, 1) where the two branches of ``_branches`` meet, and the tabulated form.

    Branch equality (1 - x)(nx - n + D) = (D - 1 - x)(nx - n + lambda D) is
    linear in x, as the x^2 terms cancel; its root is
    (n(D - 2) + D(1 - lambda(D - 1))) / (n(D - 2) + D(1 - lambda)).
    The tabulated form has the same numerator but multiplies n(D - 2) by
    D(1 - lambda) in its denominator where the root adds them; it is carried
    for comparison only, never used downstream.  Both are exact.  lambda is
    the certificate's, already checked.
    """
    lam = Fraction(lam)
    numerator = n * (d - 2) + d * (1 - lam * (d - 1))
    # The root lies in (x*, 1) for every certificate: 1 - x0 =
    # D lambda (D - 2)/(n(D - 2) + D(1 - lambda)), whose denominator is
    # positive for lambda < 1, so x0 < 1 iff lambda (D - 2) > 0, and
    # x0 > x* = 1 - lambda D/n iff lambda < 1.  Certificate's _line gives
    # 0 < lambda < n/D < 1 (omega_state refuses n >= D), and its
    # 1 - 2/D ceiling refuses D = 2, since lambda_omega > 0.
    x0 = numerator / (n * (d - 2) + d * (1 - lam))
    return x0, numerator / (n * (d - 2) * d * (1 - lam))


@dataclass(frozen=True)
class MixtureDecomposition:
    """Weights of the two-stage rewrite of y sigma + (1 - y) rho_x.

    s = 1 - x(1 - y) carries the separable-ball stage t sigma + (1 - t) I/D
    with t = y/s, and 1 - s carries the base state.
    """

    s: float
    t: float


def mixture_tau(
    cert: Certificate, sigma: DensityMatrix | np.ndarray, x: float, y: float
) -> tuple[DensityMatrix, MixtureDecomposition]:
    """y sigma + (1 - y) rho_x together with its (s, t) decomposition.

    The rewrite tau = s {t sigma + (1 - t) I/D} + (1 - s) omega is an identity
    in x and y; acceptance criterion a08 checks it in floats, to 1e-12.  sigma
    may be a plain matrix on the family's space.
    """
    x, y = _real(x, "x"), _real(y, "y")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x!r}")
    if not 0.0 <= y < 1.0:
        raise ValueError(f"y must lie in [0, 1), got {y!r}")
    structure = cert.upb.structure
    sigma = _state(sigma, structure)
    tau_m = y * sigma.matrix + (1.0 - y) * cert._noise_line(x)
    s = 1.0 - x * (1.0 - y)
    return DensityMatrix(tau_m, structure), MixtureDecomposition(s, y / s)


def in_gurvits_ball(rho: DensityMatrix) -> bool:
    """Purity below 1/(D - 1): sufficient (not necessary) for separability."""
    rho = _state(rho)
    if rho.structure.n_parties != 2:
        raise ValueError("the purity-ball criterion is stated for bipartite structures")
    return purity(rho) < 1.0 / (rho.dim - 1)


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
    return min(1.0, max(0.0, 1.0 - float(_lowest_eigenvalues(inv_sqrt @ tau @ inv_sqrt))))


def ball_membership(
    tau: HermitianOperator | np.ndarray, center: HermitianOperator | np.ndarray
) -> float:
    """Smallest mu with tau = mu rho' + (1 - mu) center for a valid state rho'.

    Computed as 1 - min eigenvalue of center^{-1/2} tau center^{-1/2}, clamped
    to [0, 1]; tau lies in the radius-r ball around center iff the result < r.
    Either argument may be a plain matrix, which ``HermitianOperator``
    checks; the center must have full rank.
    """
    tau, center = _operator(tau), _operator(center)
    if tau.dim != center.dim:
        raise ValueError("state and center dimensions differ")
    return _membership(tau.matrix, _center_inv_sqrt(center))


def ppt_mixing_threshold(cert: Certificate, sigma: DensityMatrix | np.ndarray) -> float:
    """Per-direction mixing threshold lambda_omega / (lambda_omega + Tr(W sigma)).

    Defined for PPT directions (a plain matrix too) with nonnegative witness value;
    mixtures below the threshold stay witness-negative, and PPT as both components are.
    """
    sigma = _state(sigma, cert.upb.structure)
    val = witness_value(cert.witness, sigma)
    if val < -WITNESS_SIGN_ATOL:
        raise ValueError(f"direction has negative witness value {val!r}; threshold undefined")
    if not is_ppt(sigma):
        raise ValueError("direction must be PPT on every bipartition")
    return float(cert.lambda_omega / (cert.lambda_omega + max(val, 0.0)))


def minimizer_direction(minimizers: tuple[ProductState, ...]) -> DensityMatrix:
    """Uniform mixture of the projectors onto product states, such as the seesaw's minimizers."""
    minimizers = _sequence(minimizers, "minimizers")
    for m in minimizers:
        if not isinstance(m, ProductState):
            raise ValueError(f"a minimizer must be a ProductState, got {type(m).__name__}")
    dims = {m.local_dims for m in minimizers}
    if len(dims) != 1:
        raise ValueError(f"need product states on one set of local dimensions, got {sorted(dims)}")
    mats = [m.to_density().matrix for m in minimizers]
    return DensityMatrix(sum(mats) / len(mats), dims.pop())


def robustness_profile(cert: Certificate, grid_size: int) -> dict:
    """Report data for one catalog set: thresholds, crossing point and sampled radii.

    ``radius_samples`` rows hold x and the certified radius ``y0_tight``.
    Tr W+ / p = w_max with p = n, so the paper's averaged radius is ``y0_tight``.
    p lambda_omega / (Tr W+ + p lambda_omega) = lambda, as lambda_omega + w_max =
    1/(n - lambda D), so the separable-mixing threshold is ``lambda``.
    ``x0_note`` explains the two crossing points.
    """
    x0, x0_printed = _crossing(cert.upb.cardinality, cert.upb.total_dim, cert.lam)
    return {
        "lambda": cert.lam,
        "lambda_omega": cert.lambda_omega,
        "x_star": cert.x_star,
        "x0_root": float(x0),
        "x0_printed_eq32": float(x0_printed),
        "radius_samples": [{"x": x, "y0_tight": cert.radius(x)} for x in cert.x_grid(grid_size)],
        "x0_note": X0_NOTE,
    }
