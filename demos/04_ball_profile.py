"""Certified robustness ball along the white-noise line through a catalog state.

Prints the entanglement threshold, the separable-mixing threshold (lambda
itself), Tr W+ / p beside w_max (so the paper's averaged radius is the tight
one), the radius curve with its two branches,
the branch-crossing point (the closed-form root of branch equality beside
the tabulated closed form, which disagrees and is reported for comparison
only), x*, x0 and one radius beside their exact rational values, and a
descriptive probe just outside the certified radius: the radius is
sufficient, not necessary, so violations beyond it may or may not occur and
are simply recorded.
"""

import math
from decimal import Decimal
from fractions import Fraction

from pptball import (
    Certificate,
    eig_hermitian,
    get_upb,
    is_ppt,
    minimum_overlap,
    mixture_tau,
    robustness_profile,
    sample_hs_density,
    witness_value,
)

upb = get_upb("tiles")
lam = minimum_overlap(upb)
cert = Certificate(upb, lam.value)
profile = robustness_profile(cert, grid_size=12)

print(f"lambda          = {profile['lambda']:.12f}")
print(f"lambda_omega    = {profile['lambda_omega']:.12f}")
print(f"x*              = {profile['x_star']:.12f}  (family entangled for x > x*)")
print(f"x0 (root)       = {profile['x0_root']:.12f}")
print(f"x0 (printed)    = {profile['x0_printed_eq32']:.12f}  <- tabulated closed form, "
      f"disagrees with the root; comparison only")
print(f"mixing threshold = {profile['lambda']:.12f}  (= p lambda_omega / (Tr W+ + p lambda_omega))")

# Each number is a rational function of n, D and lambda, evaluated exactly and
# rounded once: x* up and y0 down, the safe sides of the bounds, and x0, which
# bounds nothing, to nearest.
print()
n, d, l = upb.cardinality, upb.total_dim, Fraction(lam.value)
lambda_omega, w_max = l / (n - l * d), (1 - l) / (n - l * d)
x_mid = Fraction(cert.x_grid(1)[0])
c = (x_mid * (1 + d * lambda_omega) - 1) / d
exact = {
    "x*": 1 - l * d / n,
    "x0": (n * (d - 2) + d * (1 - l * (d - 1))) / (n * (d - 2) + d * (1 - l)),
    f"y0({float(x_mid):.6f})": min((1 - x_mid) / (d - 1 - x_mid), c / (w_max + c)),
}
reported = [profile["x_star"], profile["x0_root"], cert.radius(float(x_mid))]
for (label, q), value in zip(exact.items(), reported):
    ulps = float((Fraction(value) - q) / Fraction(math.ulp(value)))
    print(f"{label:<12} {value:.17g}  exact {Decimal(q.numerator) / Decimal(q.denominator):.20g}"
          f"  ({ulps:+.3f} ulp)")

# The paper's averaged radius puts Tr W+ / p in place of W's largest
# eigenvalue w_max; W+ is n copies of w_max, so the two radii are one.
print()
spectrum = eig_hermitian(cert.witness).eigenvalues
positive = spectrum[spectrum > 0]
print(f"Tr W+ / p = {positive.sum() / positive.size:.17g}  (p = {positive.size})")
print(f"w_max     = {float(w_max):.17g}  (exact, rounded once)")

print()
print(f"{'x':>10}{'y0 tight':>14}")
for row in profile["radius_samples"]:
    print(f"{row['x']:>10.6f}{row['y0_tight']:>14.8f}")
print("the curve rises on the witness branch, peaks at x0, and falls on the "
      "purity branch")

# Descriptive probe around the certified radius: nothing is asserted here.
x = (profile["x_star"] + profile["x0_root"]) / 2
y0 = cert.radius(x)
for factor in (0.99, 1.05, 1.5):
    y = min(factor * y0, 0.999)
    bad = 0
    for t in range(200):
        sigma = sample_hs_density(upb.structure, 99, trial=t)
        tau, _ = mixture_tau(cert, sigma, x, y)
        if not is_ppt(tau) or witness_value(cert.witness, tau) >= 0:
            bad += 1
    print(f"perturbation at {factor:.2f} * y0 (x = {x:.4f}): "
          f"{bad}/200 draws broke PPT or the witness sign")
