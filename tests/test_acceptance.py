"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from pptball import (
    DensityMatrix,
    ball_membership,
    build_pyramid,
    build_shifts,
    build_tiles,
    certify,
    crossing_x0,
    eig_hermitian,
    entanglement_threshold,
    in_gurvits_ball,
    is_ppt,
    min_pt_eigenvalue,
    minimizer_direction,
    minimum_overlap,
    mixture_tau,
    prove_product_minimum,
    omega_state,
    sample_hs_density,
    sample_random_product_separable,
    verify_ball_robustness,
    verify_maximal_robustness,
    verify_separable_mixing,
    witness_value,
)
from pptball.cli import main
from pptball.proof import PROOF_GAP, ProductMinimumBound


def gram_deviation(upb):
    full = np.column_stack([m.full_vector for m in upb.members])
    return float(np.abs(full.conj().T @ full - np.eye(upb.cardinality)).max())


def lambda_omega_of(witness, omega):
    return -witness_value(witness, omega)


def test_a01_catalog_validity_and_dual_method_overlap():
    start = time.monotonic()
    results = {}
    for build, tol, cells in ((build_tiles, 1e-6, 26637), (build_pyramid, 1e-6, 32973),
                              (build_shifts, 1e-5, 83840)):
        upb = build()
        assert gram_deviation(upb) < 1e-10
        lam = minimum_overlap(upb)
        proof = prove_product_minimum(upb.projector, upb.structure, lam.value)
        assert lam.value > 0.0
        assert lam.converged
        assert 0.0 <= lam.value - proof.lower < tol
        # The proof at the seed-0 lambda, pinned: no centre beats lambda, and
        # every cell of the last level passed at t = lambda - PROOF_GAP.  The
        # cell counts are those test_witness pins from the proof's levels.
        assert proof == ProductMinimumBound(lower=lam.value - PROOF_GAP, upper=lam.value,
                                            cells=cells)
        results[upb.name] = (lam.value, lam.value - proof.lower)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    detail = ", ".join(
        f"{name} lambda={val:.9f} (seesaw-proven={gap:.1e})"
        for name, (val, gap) in results.items()
    )
    print(f"[PASS] criterion 1: catalog validity + dual-method overlap "
          f"({detail}; {elapsed:.1f}s)")


def test_a02_complement_state_contract(
    tiles, pyramid, shifts, tiles_lambda, pyramid_lambda, shifts_lambda,
    tiles_witness, pyramid_witness, shifts_witness,
):
    for upb, lam, witness in (
        (tiles, tiles_lambda, tiles_witness),
        (pyramid, pyramid_lambda, pyramid_witness),
        (shifts, shifts_lambda, shifts_witness),
    ):
        d, n = upb.total_dim, upb.cardinality
        omega = omega_state(upb)
        vals = eig_hermitian(omega).eigenvalues
        assert np.abs(vals[:n]).max() < 1e-10
        assert np.abs(vals[n:] - 1.0 / (d - n)).max() < 1e-10
        assert min_pt_eigenvalue(omega) >= -1e-9
        expected = -lam.value / (n - lam.value * d)
        assert abs(witness_value(witness, omega) - expected) < 1e-12
    print("[PASS] criterion 2: complement-state contract "
          "(flat spectrum, PPT on every cut, witness value identity)")


def test_a03_witness_algebra(tiles, tiles_lambda, tiles_witness, shifts, shifts_witness):
    d, n, lam = 9, 5, tiles_lambda.value
    w = tiles_witness
    assert abs(w.trace - 1.0) < 1e-12
    assert abs(w.pos_part_trace - n * (1 - lam) / (n - lam * d)) < 1e-12
    for t in range(10_000):
        pi = sample_hs_density(tiles.structure, 2024, trial=t)
        val = witness_value(w, pi)
        assert -w.neg_part_trace - 1e-12 <= val <= w.pos_part_trace + 1e-12
    for upb, witness in ((tiles, w), (shifts, shifts_witness)):
        for t in range(10_000):
            sigma = sample_random_product_separable(upb.structure, 3, 2025, trial=t)
            assert witness_value(witness, sigma) >= -1e-10
    print("[PASS] criterion 3: witness algebra "
          "(trace, positive-part trace, expectation sandwich x1e4, "
          "separable nonnegativity x1e4)")


def test_a04_threshold_identities(
    tiles, pyramid, shifts, tiles_lambda, pyramid_lambda, shifts_lambda,
    tiles_witness, pyramid_witness, shifts_witness,
):
    for upb, lam, witness in (
        (tiles, tiles_lambda, tiles_witness),
        (pyramid, pyramid_lambda, pyramid_witness),
        (shifts, shifts_lambda, shifts_witness),
    ):
        d, n = upb.total_dim, upb.cardinality
        lo = lambda_omega_of(witness, omega_state(upb))
        assert abs(1.0 / (1.0 + d * lo) - (1.0 - lam.value * d / n)) < 1e-12
        assert lo <= 1.0 - 2.0 / d
        mixing = n * lo / (witness.pos_part_trace + n * lo)
        assert abs(mixing - lam.value) < 1e-12
    print("[PASS] criterion 4: threshold identities "
          "(x* both forms, violation ceiling, mixing-threshold identity)")


def test_a05_ball_verification(
    tiles, shifts, tiles_lambda, shifts_lambda, tiles_witness, shifts_witness
):
    start = time.monotonic()
    worst = {}
    for upb, lam, witness in (
        (tiles, tiles_lambda, tiles_witness),
        (shifts, shifts_lambda, shifts_witness),
    ):
        lo = lambda_omega_of(witness, omega_state(upb))
        x_star = entanglement_threshold(lo, upb.total_dim)
        xs = np.linspace(x_star, 1.0, 12)[1:-1]
        out = verify_ball_robustness(certify(upb, lam.value), 10, 1000, 42)
        # The suite draws its points from the certificate; they must be the
        # grid over the x* computed here from the witness value alone.
        assert np.max(np.abs(np.array(out.config["x_grid"]) - xs)) < 1e-12
        assert out.trials == 10_000
        assert out.ppt_violations == 0
        assert out.witness_violations == 0
        assert out.worst_margin > 0
        worst[upb.name] = out.worst_margin
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0
    print(f"[PASS] criterion 5: ball verification, zero violations over 2x1e4 "
          f"trials (worst margins {worst}; {elapsed:.1f}s)")


def test_a06_separable_mixing_verification(tiles, shifts, tiles_lambda, shifts_lambda):
    for upb, lam in ((tiles, tiles_lambda), (shifts, shifts_lambda)):
        cert = certify(upb, lam.value)
        out = verify_separable_mixing(cert, 1000, 42)
        assert out.ppt_violations == 0
        assert out.witness_violations == 0
        sigma_dir = minimizer_direction(lam.minimizers)
        zs = list(np.linspace(0.0, 0.9, 10)) + [0.99, 0.999]
        for x in ((cert.x_star + 1.0) / 2, 0.99):
            report = verify_maximal_robustness(cert, sigma_dir, x, zs)
            assert report.ok
    print("[PASS] criterion 6: separable mixing below threshold + "
          "maximal-direction grid up to z = 0.999")


def test_a07_branch_crossing(tiles_lambda, pyramid_lambda, shifts_lambda, tiles, pyramid, shifts):
    lines = []
    for upb, lam in ((tiles, tiles_lambda), (pyramid, pyramid_lambda), (shifts, shifts_lambda)):
        d, n = upb.total_dim, upb.cardinality
        res = crossing_x0(n, d, lam.value)
        assert res.residual < 1e-12
        purity_branch = (1 - res.x0_root) / (d - 1 - res.x0_root)
        witness_branch = (n * res.x0_root - n + lam.value * d) / (
            n * res.x0_root - n + d
        )
        assert abs(purity_branch - witness_branch) < 1e-10
        lines.append(
            f"{upb.name}: root={res.x0_root:.12f} printed={res.x0_printed:.12f}"
        )
    print("[PASS] criterion 7: branch crossing (side-by-side record: "
          + "; ".join(lines) + ")")


def test_a08_decomposition_identity_and_inner_mixture(tiles, tiles_cert):
    d = 9
    rng = np.random.default_rng(777)
    checked_inner = 0
    for t in range(1000):
        sigma = sample_hs_density(tiles.structure, 777, trial=t)
        x = float(rng.uniform(0.05, 0.95))
        bound = (1 - x) / (d - 1 - x)
        if t % 2 == 0:
            y = float(rng.uniform(0.0, 0.999 * bound))
        else:
            y = float(rng.uniform(0.0, 0.95))
        tau, dec = mixture_tau(tiles_cert, sigma, x, y)
        if y < bound:
            inner = DensityMatrix(
                dec.t * sigma.matrix + (1 - dec.t) * np.eye(d) / d, tiles.structure
            )
            assert in_gurvits_ball(inner)
            assert is_ppt(inner)
            checked_inner += 1
    assert checked_inner >= 500
    print(f"[PASS] criterion 8: decomposition identity x1e3 "
          f"(inner mixture separable-ball + PPT on {checked_inner} qualifying draws)")


def test_a09_ball_membership(tiles, tiles_cert):
    center = tiles_cert.member(0.9)
    assert ball_membership(center, center) <= 1e-10
    pure = DensityMatrix.from_pure(np.eye(9)[4], tiles.structure)
    assert abs(ball_membership(pure, center) - 1.0) <= 1e-10
    rng = np.random.default_rng(31337)
    for t in range(1000):
        sigma = sample_hs_density(tiles.structure, 31337, trial=t)
        y = float(rng.uniform(0.0, 1.0))
        tau = DensityMatrix(
            y * sigma.matrix + (1 - y) * center.matrix, tiles.structure
        )
        assert ball_membership(tau, center) <= y + 1e-10
    print("[PASS] criterion 9: ball membership (center 0, pure 1, "
          "constructed mixtures bounded by their weight x1e3)")


def test_a10_cli_determinism(tmp_path):
    args = ["verify", "--upb", "tiles", "--trials", "200", "--grid", "4", "--seed", "42"]
    paths = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main([*args, "--output", str(out)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    lam_paths = []
    for name in ("l1.json", "l2.json"):
        out = tmp_path / name
        assert main(["lambda", "--upb", "tiles", "--seed", "7", "--output", str(out)]) == 0
        lam_paths.append(out)
    assert lam_paths[0].read_bytes() == lam_paths[1].read_bytes()
    print("[PASS] criterion 10: repeated CLI runs with identical seeds are "
          "byte-identical (verify + lambda)")
