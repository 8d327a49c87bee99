"""Certified robustness ball along the white-noise line through a catalog state.

Prints the entanglement threshold, the radius curve with its two branches,
the branch-crossing point (the closed-form root of branch equality beside
the tabulated closed form, which disagrees and is reported for comparison
only), and a descriptive probe just outside the certified radius: the radius
is sufficient, not necessary, so violations beyond it may or may not occur
and are simply recorded.
"""

from pptball import (
    SamplerConfig,
    certify,
    crossing_x0,
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
cert = certify(upb, lam)
profile = robustness_profile(cert, grid_size=12)

print(f"lambda          = {profile.lambda_value:.12f}")
print(f"lambda_omega    = {profile.lambda_omega:.12f}")
print(f"x*              = {profile.x_star:.12f}  (family entangled for x > x*)")
print(f"x0 (root)       = {profile.x0_root:.12f}")
print(f"x0 (printed)    = {profile.x0_printed:.12f}  <- tabulated closed form, "
      f"disagrees with the root; comparison only")
res = crossing_x0(upb.cardinality, upb.total_dim, lam.value)
print(f"branch value at root = {res.branch_value:.12f}, branch gap {res.residual:.1e}")
print(f"mixing threshold = {profile.mixing_threshold:.12f} (= lambda)")

print()
print(f"{'x':>10}{'y0 tight':>14}{'y0 averaged':>14}")
for x, tight, averaged in profile.radius_samples:
    print(f"{x:>10.6f}{tight:>14.8f}{averaged:>14.8f}")
print("the curve rises on the witness branch, peaks at x0, and falls on the "
      "purity branch")

# Descriptive probe around the certified radius: nothing is asserted here.
x = (profile.x_star + profile.x0_root) / 2
y0 = cert.radius(x)
cfg = SamplerConfig(99)
for factor in (0.99, 1.05, 1.5):
    y = min(factor * y0, 0.999)
    bad = 0
    for t in range(200):
        sigma = sample_hs_density(upb.structure, cfg, trial=t)
        tau, _ = mixture_tau(cert, sigma, x, y)
        if not is_ppt(tau) or witness_value(cert.witness, tau) >= 0:
            bad += 1
    print(f"perturbation at {factor:.2f} * y0 (x = {x:.4f}): "
          f"{bad}/200 draws broke PPT or the witness sign")
