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
    separable_mixing_threshold,
    verify_maximal_robustness,
)

upb = get_upb("tiles")
cert = certify(upb, minimum_overlap(upb))

universal = separable_mixing_threshold(cert)
print(f"universal separable-mixing threshold = {universal:.12f} (= lambda)")

mixed = DensityMatrix.maximally_mixed(upb.structure)
sigma_dir = minimizer_direction(cert)
print(f"per-direction thresholds:")
print(f"  white noise I/D      : {ppt_mixing_threshold(cert, mixed):.12f}")
print(f"  minimizer direction  : {ppt_mixing_threshold(cert, sigma_dir):.12f} "
      f"(zero witness value, maximal robustness)")

x = (cert.x_star + 1.0) / 2
zs = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
report = verify_maximal_robustness(cert, sigma_dir, x, zs)
print()
print(f"mixing toward the minimizer direction at x = {x:.6f}:")
print(f"{'z':>8}{'min PT eig':>14}{'witness':>14}{'PPT':>6}{'neg':>6}")
for c in report.checks:
    print(f"{c.z:>8.3f}{c.min_pt_eigenvalue:>14.2e}{c.witness_value:>14.2e}"
          f"{str(c.ppt_ok):>6}{str(c.witness_ok):>6}")
print(f"all grid points bound entangled: {report.all_ok}")
