"""Spectral anatomy of the normalized witness and its contract identities.

The witness (P - lambda I)/(n - lambda D) has a flat two-level spectrum, unit
trace, and nonnegative expectation on every separable state; its most negative
expectation over the catalog states is achieved by the complement state.
"""

import numpy as np

from pptball import (
    DensityMatrix,
    build_witness,
    eig_hermitian,
    get_upb,
    minimum_overlap,
    omega_state,
    sample_hs_density,
    sample_random_product_separable,
    witness_value,
)

upb = get_upb("tiles")
lam = minimum_overlap(upb)
w = build_witness(upb, lam.value)
omega = omega_state(upb)
n, d = upb.cardinality, upb.total_dim

print("witness spectrum (ascending):")
print(" ", np.round(eig_hermitian(w).eigenvalues, 10))
print(f"positive count p = {w.p_count}, negative count = {w.n_neg_count}")
print(f"Tr W        = {w.trace:.15f}")
print(f"Tr W+       = {w.pos_part_trace:.15f} "
      f"(closed form n(1-lambda)/(n-lambda D) = {n*(1-lam.value)/(n-lam.value*d):.15f})")
print(f"Tr W+ - Tr W- = {w.pos_part_trace - w.neg_part_trace:.15f}")
print(f"max positive eigenvalue = {w.max_pos_eigenvalue:.15f} "
      f"(= Tr W+/p for this flat spectrum)")

print()
print(f"Tr(W Omega) = {witness_value(w, omega):.15f} "
      f"(closed form -lambda/(n-lambda D) = {-lam.value/(n-lam.value*d):.15f})")
sigma_min = lam.minimizers[0].to_density(upb.structure)
print(f"Tr(W sigma_min) = {witness_value(w, sigma_min):.2e} (zero-crossing direction)")
mixed = DensityMatrix.maximally_mixed(upb.structure)
print(f"Tr(W I/D)   = {witness_value(w, mixed):.15f} (= 1/D)")

vals = [witness_value(w, sample_hs_density(upb.structure, 11, trial=t))
        for t in range(2000)]
print()
print(f"2000 random states: expectations in "
      f"[{min(vals):.6f}, {max(vals):.6f}] vs bounds "
      f"[-{w.neg_part_trace:.6f}, {w.pos_part_trace:.6f}]")
sep_vals = [
    witness_value(w, sample_random_product_separable(upb.structure, 3, 12, trial=t))
    for t in range(2000)
]
print(f"2000 separable states: minimum expectation {min(sep_vals):.3e} (must be >= 0)")
