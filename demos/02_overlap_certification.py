"""Minimum product-state overlap: an estimate and a proof.

The alternating eigenvector descent (multistart) gives an upper estimate of
the overlap.  The vertex branch-and-bound proves a lower bound just below it,
so the true minimum lies in the printed interval [proven, descent]; that is
what makes W = (P - lambda I)/(n - lambda D) a witness.  Only the proof
certifies: the descent alone could stop above the minimum.  A complete product
basis is included as the trivial control: its projector is the identity, so
the overlap is exactly 1.
"""

import time

from pptball import get_upb, minimum_overlap, prove_product_minimum

print(f"{'set':<14}{'proven':>16}{'descent':>16}{'width':>10}{'cells':>8}{'minimizers':>12}")
for name in ("tiles", "pyramid", "shifts", "complete-2x2"):
    upb = get_upb(name)
    t0 = time.monotonic()
    lam = minimum_overlap(upb)
    proof = prove_product_minimum(upb.projector, upb.structure, lam.value)
    t1 = time.monotonic()
    print(f"{name:<14}{proof.lower:>16.12f}{lam.value:>16.12f}"
          f"{lam.value - proof.lower:>10.1e}{proof.cells:>8}"
          f"{len(lam.minimizers):>12}   ({t1 - t0:.1f}s)")

upb = get_upb("tiles")
lam = minimum_overlap(upb)
print()
print("tiles minimizer (one product state achieving the overlap):")
for k, vec in enumerate(lam.minimizers[0].local_vectors):
    print(f"  party {k}: {vec}")
print(f"upper bound n/D = {upb.cardinality}/{upb.total_dim} "
      f"= {upb.cardinality / upb.total_dim:.6f}; overlap must stay below it "
      f"for the witness normalization to exist")
