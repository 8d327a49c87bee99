"""Seeded randomized verification of the ball and mixing guarantees.

Both suites must report zero violations: inside the certified radius every
random perturbation direction keeps the state PPT (on every bipartition) and
witness-negative, and below the mixing threshold every random separable
admixture does the same.  Each suite prints its PPT margin (smallest PT
eigenvalue plus the PSD tolerance) and its witness margin (smallest -Tr(W tau))
separately.  In the mixing suite the PPT margin stays near the tolerance,
because the complement state's partial transposes are singular, and the
witness margin is the one that shows how close the suite came to failing.
The ball-fraction estimator then shows why absolute volumes are not reported:
the certified balls are far too small to hit by Hilbert-Schmidt sampling at
these dimensions.
"""

from pptball import (
    ball_fraction_estimate,
    certify,
    get_upb,
    minimum_overlap,
    verify_ball_robustness,
    verify_separable_mixing,
)

certs = {}
for name in ("tiles", "shifts"):
    upb = get_upb(name)
    cert = certs[name] = certify(upb, minimum_overlap(upb))
    ball = verify_ball_robustness(cert, 10, 0.99, 300, 42)
    mixing = verify_separable_mixing(cert, 0.99, 300, 42)
    print(f"== {name} ==")
    print(f"  ball suite    : {ball.trials} trials, "
          f"{ball.ppt_violations} PPT violations, "
          f"{ball.witness_violations} witness violations, "
          f"PPT margin {ball.ppt_margin:.2e}, "
          f"witness margin {ball.witness_margin:.2e}")
    print(f"  mixing suite  : {mixing.trials} trials, "
          f"{mixing.ppt_violations} PPT violations, "
          f"{mixing.witness_violations} witness violations, "
          f"PPT margin {mixing.ppt_margin:.2e}, "
          f"witness margin {mixing.witness_margin:.2e}")

cert = certs["tiles"]
x = (cert.x_star + 1.0) / 2
center = cert.member(x)
radius = cert.radius(x)
est = ball_fraction_estimate(center, radius, 2000, 7)
print()
print(f"ball-fraction estimate at x = {x:.4f}, radius = {radius:.2e}: "
      f"{est.hits}/{est.trials} hits, "
      f"95% CI [{est.ci_low:.2e}, {est.ci_high:.2e}]")
print("a ~0 fraction is expected; the estimator demonstrates the membership "
      "machinery, not a volume claim")
