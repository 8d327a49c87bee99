"""Tour of the built-in product-basis catalog and the states it generates.

Builds each catalog set, re-checks its defining numerics, and constructs the
normalized complement-projector state, which is entangled yet positive under
every partial transposition.
"""

import numpy as np

from pptball import (
    CATALOG,
    all_bipartitions,
    eig_hermitian,
    get_upb,
    is_ppt,
    min_pt_eigenvalue,
    omega_state,
)

for name in ("tiles", "pyramid", "shifts"):
    upb = get_upb(name)
    full = np.column_stack([m.full_vector for m in upb.members])
    gram_dev = np.abs(full.conj().T @ full - np.eye(upb.cardinality)).max()
    print(f"== {name} ==")
    print(f"  local dims      : {upb.structure.local_dims}")
    print(f"  members n       : {upb.cardinality} (total dim D = {upb.total_dim})")
    print(f"  gram deviation  : {gram_dev:.2e}")
    print(f"  projector trace : {upb.projector.trace:.12f}")

    omega = omega_state(upb)
    vals = eig_hermitian(omega).eigenvalues
    print(f"  complement state: rank {np.sum(vals > 1e-12)}, "
          f"nonzero eigenvalues all {vals[-1]:.6f}")
    cuts = len(all_bipartitions(upb.structure))
    print(f"  PPT on all cuts : {is_ppt(omega)} "
          f"(min PT eigenvalue {min_pt_eigenvalue(omega):.2e} over {cuts} cuts)")
    overlaps = [abs(np.vdot(m.full_vector, omega.matrix @ m.full_vector))
                for m in upb.members]
    print(f"  member overlap  : max |<w|Omega|w>| = {max(overlaps):.2e}")

print()
print("catalog entries:", ", ".join(sorted(CATALOG)))
