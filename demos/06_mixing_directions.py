"""Separable mixing thresholds and maximally robust directions.

Mixing the complement state with any separable state keeps it entangled below
a universal threshold (equal to the minimum overlap itself); per-direction
thresholds are larger, and along directions built from overlap minimizers the
mixture stays bound entangled for every weight short of 1.
"""

from pptball import (
    DensityMatrix,
    certify,
    get_upb,
    minimizer_direction,
    minimum_overlap,
    ppt_mixing_threshold,
    verify_maximal_robustness,
)

upb = get_upb("tiles")
lam = minimum_overlap(upb)
cert = certify(upb, lam.value)

universal = cert.lam
print(f"universal separable-mixing threshold = {universal:.12f} (= lambda)")

mixed = DensityMatrix.maximally_mixed(upb.structure)
sigma_dir = minimizer_direction(lam.minimizers)
print("per-direction thresholds:")
print(f"  white noise I/D      : {ppt_mixing_threshold(cert, mixed):.12f}")
print(f"  minimizer direction  : {ppt_mixing_threshold(cert, sigma_dir):.12f} "
      f"(zero witness value, maximal robustness)")

x = (cert.x_star + 1.0) / 2
zs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
out = verify_maximal_robustness(cert, sigma_dir, x, zs)
ppt_z, witness_z = zs[out.ppt_margin_key[0]], zs[out.witness_margin_key[0]]
print()
print(f"mixing toward the minimizer direction at x = {x:.6f}, {out.trials} z values:")
print(f"  PPT margin     (min PT eig + tol) : {out.ppt_margin:.2e} at z = {ppt_z}")
print(f"  witness margin (-Tr W tau)        : {out.witness_margin:.2e} at z = {witness_z}")
print(f"all grid points bound entangled: {out.ok}")
