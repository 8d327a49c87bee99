import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptball import (
    DensityMatrix,
    HilbertStructure,
    PSD_TOL,
    ball_membership,
    certify,
    crossing_x0,
    entanglement_threshold,
    in_gurvits_ball,
    is_ppt,
    min_pt_eigenvalue,
    minimizer_direction,
    mixture_tau,
    omega_state,
    ppt_mixing_threshold,
    purity,
    robustness_profile,
    separable_mixing_threshold,
    verify_maximal_robustness,
    witness_value,
)
from pptball.montecarlo import sample_hs_density
from pptball.robustness import _branches, _line
from pptball.witness import ZERO_EIG_ATOL

TILES_N, TILES_D = 5, 9


def rounded_up(f, q):
    """f is the least float at or above the exact q."""
    return Fraction(math.nextafter(f, -math.inf)) < q <= Fraction(f)


def rounded_down(f, q):
    """f is the greatest float at or below the exact q."""
    return Fraction(f) <= q < Fraction(math.nextafter(f, math.inf))


def test_family_endpoints(tiles_cert):
    assert np.abs(tiles_cert.member(1.0).matrix - tiles_cert.omega.matrix).max() < 1e-15
    assert np.abs(tiles_cert.member(0.0).matrix - np.eye(9) / 9).max() < 1e-15
    with pytest.raises(ValueError):
        tiles_cert.member(1.5)


def test_family_witness_value_is_linear(tiles_cert):
    for x in (0.2, 0.9, 0.97):
        expected = (1.0 - x * (1.0 + TILES_D * tiles_cert.lambda_omega)) / TILES_D
        assert abs(witness_value(tiles_cert.witness, tiles_cert.member(x)) - expected) < 1e-13


def test_witness_value_changes_sign_at_threshold(tiles_cert):
    x_star = tiles_cert.x_star
    assert witness_value(tiles_cert.witness, tiles_cert.member(x_star - 1e-9)) > 0
    assert witness_value(tiles_cert.witness, tiles_cert.member(x_star + 1e-9)) < 0


def test_family_members_stay_ppt_and_detected(tiles_cert):
    for x in tiles_cert.x_grid(50):
        rho = tiles_cert.member(x)
        assert is_ppt(rho)
        assert witness_value(tiles_cert.witness, rho) < 0
        assert tiles_cert.radius(x) > 0


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_min_pt_eigenvalue_on_noise_line_is_closed_form(request, name):
    # omega^Gamma = (I - P')/(D - n) with P' an orthogonal projector, so on the
    # noise line the smallest eigenvalue over every cut is (1 - x)/D.
    cert = request.getfixturevalue(f"{name}_cert")
    d = cert.upb.total_dim
    for x in np.linspace(0.0, 1.0, 22)[:-1]:
        assert abs(min_pt_eigenvalue(cert.member(x)) - (1.0 - x) / d) < 1e-12


def test_entanglement_threshold_forms():
    assert abs(entanglement_threshold(1 - 2 / 9, 9) - 1 / 8) < 1e-15
    with pytest.raises(ValueError):
        entanglement_threshold(0.0, 9)
    with pytest.raises(ValueError):
        entanglement_threshold(-0.5, 9)
    assert entanglement_threshold(1e-9, 9) > 0.99999
    for lam, dim, match in (
        (0.1, -20, "total dimension must be at least 2, got -20"),
        (0.1, 2.5, "total dimension must be an integer, got 2.5"),
        (0.1, True, "total dimension must be an integer, got True"),
        (float("inf"), 9, "strictly positive and finite"),
    ):
        with pytest.raises(ValueError, match=match):
            entanglement_threshold(lam, dim)


def test_threshold_identity_cross_check(tiles_cert):
    # The identities once re-checked in floats at run time hold exactly in the
    # Fractions the certificate is rounded from: the two forms of x*, the
    # mixing threshold p lambda_omega / (Tr W+ + p lambda_omega) = lambda with
    # p = n and Tr W+ = n w_max, and branch equality at the exact x0.
    n, d, value = TILES_N, TILES_D, tiles_cert.lam
    lam = Fraction(value)
    lambda_omega, w_max, x_star = _line(n, d, value)
    assert lambda_omega == lam / (n - lam * d)
    assert w_max == (1 - lam) / (n - lam * d)
    assert 1 / (1 + d * lambda_omega) == x_star == 1 - lam * d / n
    assert n * lambda_omega / (n * w_max + n * lambda_omega) == lam
    x0 = (n * (d - 2) + d * (1 - lam * (d - 1))) / (n * (d - 2) + d * (1 - lam))
    c = (x0 * (1 + d * lambda_omega) - 1) / d
    assert (1 - x0) / (d - 1 - x0) == c / (w_max + c)
    assert _branches(x0, n, d, value) == ((1 - x0) / (d - 1 - x0), c / (w_max + c))


@pytest.mark.parametrize("name", ["tiles", "shifts"])
def test_certificate_matches_closed_forms(request, name):
    cert = request.getfixturevalue(f"{name}_cert")
    upb, lam = cert.upb, cert.lam
    d, n = upb.total_dim, upb.cardinality
    assert type(lam) is float and lam == request.getfixturevalue(f"{name}_lambda").value
    lambda_omega, w_max, x_star = _line(n, d, lam)
    assert rounded_up(cert.x_star, x_star)
    assert rounded_down(cert.lambda_omega, lambda_omega)
    assert np.array_equal(cert.omega.matrix, omega_state(upb).matrix)
    witness = request.getfixturevalue(f"{name}_witness")
    assert np.array_equal(cert.witness.matrix, witness.matrix)
    xs = cert.x_grid(7)
    assert len(xs) == 7
    assert np.all((cert.x_star < xs) & (xs < 1.0))
    assert np.all(np.diff(xs) > 0)
    for x in xs:
        assert rounded_down(cert.radius(x), min(_branches(x, n, d, lam)))
    # The float spectrum of W agrees with the exact numbers to rounding.
    assert abs(cert.witness.max_pos_eigenvalue - w_max) < 1e-12
    assert abs(-witness_value(cert.witness, cert.omega) - lambda_omega) < 1e-12


@pytest.mark.parametrize("name", ["tiles", "shifts"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_certificate_rounds_outward_across_lambda(tiles, shifts, name, data):
    # Any lambda in (0, n/D), not just the seesaw's: x* is rounded up, and
    # lambda_omega and every radius on the grid down, each by at most one ulp;
    # past the 1 - 2/D ceiling the certificate is refused.
    upb = {"tiles": tiles, "shifts": shifts}[name]
    n, d = upb.cardinality, upb.total_dim
    lam = data.draw(st.floats(ZERO_EIG_ATOL, n / d, exclude_min=True, exclude_max=True))
    lambda_omega, w_max, x_star = _line(n, d, lam)
    if lambda_omega > 1 - Fraction(2, d):
        with pytest.raises(ValueError, match="exceeds the 1 - 2/D ceiling"):
            certify(upb, lam)
        return
    cert = certify(upb, lam)
    assert rounded_up(cert.x_star, x_star)
    assert rounded_down(cert.lambda_omega, lambda_omega)
    for x in cert.x_grid(9):
        assert rounded_down(cert.radius(x), min(_branches(x, n, d, lam)))


def test_radius_limits_and_positivity(tiles_cert):
    x_star = tiles_cert.x_star
    near_star = tiles_cert.radius(x_star + 1e-8)
    near_one = tiles_cert.radius(1.0 - 1e-8)
    assert 0 < near_star < 1e-6
    assert 0 < near_one < 1e-6
    mid = tiles_cert.radius((x_star + 1.0) / 2)
    assert mid > near_star and mid > near_one
    with pytest.raises(ValueError, match="strictly between"):
        tiles_cert.radius(x_star)
    with pytest.raises(ValueError, match="strictly between"):
        tiles_cert.radius(1.0)


def test_radius_modes_agree_for_flat_spectrum(request):
    for name in ("tiles", "pyramid", "shifts"):
        upb, lam = request.getfixturevalue(name), request.getfixturevalue(f"{name}_lambda")
        profile = robustness_profile(certify(upb, lam.value), grid_size=21)
        for row in profile["radius_samples"]:
            assert abs(row["y0_tight"] - row["y0_paper"]) < 1e-12


def test_crossing_root_and_branch_equality(tiles_lambda):
    lam = tiles_lambda.value
    res = crossing_x0(TILES_N, TILES_D, lam)
    x_star = 1 - lam * TILES_D / TILES_N
    assert x_star < res.x0_root < 1.0
    assert res.residual < 1e-12
    purity_branch = (1 - res.x0_root) / (TILES_D - 1 - res.x0_root)
    witness_branch = (TILES_N * res.x0_root - TILES_N + lam * TILES_D) / (
        TILES_N * res.x0_root - TILES_N + TILES_D
    )
    assert abs(purity_branch - witness_branch) < 1e-10
    closed = (TILES_N * (TILES_D - 2) + TILES_D * (1 - lam * (TILES_D - 1))) / (
        TILES_N * (TILES_D - 2) + TILES_D * (1 - lam)
    )
    assert abs(res.x0_root - closed) < 1e-10
    assert res.x0_printed != pytest.approx(res.x0_root, abs=1e-3)
    # Bad input is a ValueError, as for build_witness, not a failed contract.
    for n, d, bad, message in (
        (TILES_N, TILES_D, 0.6, r"outside \(0, n/D"),
        (TILES_N, TILES_D, 0.0, r"outside \(0, n/D"),
        (TILES_N, TILES_D, np.nan, r"outside \(0, n/D"),
        (TILES_D, TILES_D, 0.5, "total dimension must be at least 10, got 9"),
        (5.5, TILES_D, 0.02, "cardinality must be an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            crossing_x0(n, d, bad)


def test_crossing_sweep_is_monotone():
    lams = np.linspace(0.02, TILES_N / TILES_D - 0.02, 12)
    stars = [1 - lam * TILES_D / TILES_N for lam in lams]
    roots = [crossing_x0(TILES_N, TILES_D, lam).x0_root for lam in lams]
    assert np.all(np.diff(stars) < 0)
    assert np.all(np.diff(roots) < 0)
    for s, r in zip(stars, roots):
        assert s < r < 1.0


def test_mixture_tau_zero_noise(tiles, tiles_cert):
    tau, dec = mixture_tau(tiles_cert, DensityMatrix.maximally_mixed(tiles.structure), 0.4, 0.0)
    assert abs(dec.s - 0.6) < 1e-15
    assert dec.t == 0.0
    assert np.abs(tau.matrix - tiles_cert.member(0.4).matrix).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    x=st.floats(0.02, 0.98),
    y=st.floats(0.0, 0.97),
)
def test_mixture_decomposition_identity(tiles, tiles_cert, seed, x, y):
    sigma = sample_hs_density(tiles.structure, seed, trial=0)
    tau, dec = mixture_tau(tiles_cert, sigma, x, y)
    assert 0.0 < dec.s <= 1.0
    assert 0.0 <= dec.t < 1.0
    assert abs(dec.s - (1 - x * (1 - y))) < 1e-15
    assert abs(dec.t - y / dec.s) < 1e-15


def test_mixture_witness_value_identity(tiles, tiles_cert):
    witness, lambda_omega = tiles_cert.witness, tiles_cert.lambda_omega
    rng = np.random.default_rng(8)
    for t in range(50):
        sigma = sample_hs_density(tiles.structure, 5, trial=t)
        x = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(0.0, 0.95))
        tau, _ = mixture_tau(tiles_cert, sigma, x, y)
        expected = y * witness_value(witness, sigma) - (1 - y) * (
            x * (1 + TILES_D * lambda_omega) - 1
        ) / TILES_D
        assert abs(witness_value(witness, tau) - expected) < 1e-12


def test_mixture_tau_range_validation(tiles, tiles_cert):
    mixed = DensityMatrix.maximally_mixed(tiles.structure)
    with pytest.raises(ValueError):
        mixture_tau(tiles_cert, mixed, 0.0, 0.1)
    with pytest.raises(ValueError):
        mixture_tau(tiles_cert, mixed, 0.5, 1.0)


def test_gurvits_ball_basics():
    structure = HilbertStructure((3, 3))
    assert in_gurvits_ball(DensityMatrix.maximally_mixed(structure))
    pure = DensityMatrix.from_pure(np.eye(9)[0], structure)
    assert not in_gurvits_ball(pure)
    with pytest.raises(ValueError, match="bipartite"):
        in_gurvits_ball(DensityMatrix.maximally_mixed(HilbertStructure((2, 2, 2))))


def test_gurvits_ball_boundary_mixture_is_ppt():
    structure = HilbertStructure((3, 3))
    bell = np.zeros(9)
    bell[[0, 4, 8]] = 1 / np.sqrt(3)
    pure = DensityMatrix.from_pure(bell, structure)
    mu = 1 / 8 - 1e-6
    rho = DensityMatrix(
        mu * pure.matrix + (1 - mu) * np.eye(9) / 9, structure
    )
    assert in_gurvits_ball(rho)
    assert purity(rho) < 1 / 8
    assert is_ppt(rho)


def test_ball_membership_basics(tiles, tiles_cert):
    center = tiles_cert.member(0.9)
    assert ball_membership(center, center) < 1e-10
    pure = DensityMatrix.from_pure(np.eye(9)[3], tiles.structure)
    assert abs(ball_membership(pure, center) - 1.0) < 1e-10
    # Plain matrices pass the operator entry check and give what the states give.
    assert ball_membership(pure.matrix, center.matrix) == ball_membership(pure, center)
    assert ball_membership(np.eye(9) / 9, np.eye(9) / 9) < 1e-10
    with pytest.raises(ValueError, match="^state and center dimensions differ$"):
        ball_membership(np.eye(4) / 4, center)


def test_ball_membership_of_constructed_mixtures(tiles, tiles_cert):
    center = tiles_cert.member(0.9)
    rng = np.random.default_rng(13)
    for t in range(100):
        sigma = sample_hs_density(tiles.structure, 13, trial=t)
        y = float(rng.uniform(0.0, 1.0))
        tau = DensityMatrix(
            y * sigma.matrix + (1 - y) * center.matrix, tiles.structure
        )
        assert ball_membership(tau, center) <= y + 1e-10


def test_ball_membership_is_bounded_by_line_weights(tiles_cert):
    x, delta = 0.7, 0.05
    center = tiles_cert.member(x)
    up = ball_membership(tiles_cert.member(x + delta), center)
    down = ball_membership(tiles_cert.member(x - delta), center)
    assert up <= delta / (1 - x) + 1e-12
    assert down <= delta / x + 1e-12


def test_ball_membership_rejects_rank_deficient_center(tiles_omega, shifts_cert):
    pure = DensityMatrix.from_pure(np.eye(9)[0], tiles_omega.structure)
    with pytest.raises(ValueError, match="full rank"):
        ball_membership(pure, tiles_omega)
    # x = 0.999999999999 lies in (x*, 1), but the member's smallest
    # eigenvalue (1 - x)/D ~ 1.25e-13 is below RANK_TOL.
    center = shifts_cert.member(0.999999999999)
    with pytest.raises(ValueError) as error:
        ball_membership(center, center)
    message = "center must have full rank: smallest eigenvalue 1.250e-13 < RANK_TOL = 1e-12"
    assert str(error.value) == message


def test_separable_mixing_threshold_identity(tiles_cert):
    # p lambda_omega / (Tr W+ + p lambda_omega) is lambda exactly on the line,
    # and the witness's float counts and traces give it to rounding.
    lam, w = tiles_cert.lam, tiles_cert.witness
    assert separable_mixing_threshold(tiles_cert) == lam
    lambda_omega, w_max, _ = _line(TILES_N, TILES_D, lam)
    p = w.p_count
    assert p * lambda_omega / (p * w_max + p * lambda_omega) == Fraction(lam)
    lambda_omega = tiles_cert.lambda_omega
    assert abs(p * lambda_omega / (w.pos_part_trace + p * lambda_omega) - lam) < 1e-12


def test_ppt_mixing_threshold_directions(tiles, tiles_lambda, tiles_cert):
    lambda_omega = tiles_cert.lambda_omega
    sigma_min = tiles_lambda.minimizers[0].to_density(tiles.structure)
    assert abs(ppt_mixing_threshold(tiles_cert, sigma_min) - 1.0) < 1e-6
    mixed = DensityMatrix.maximally_mixed(tiles.structure)
    expected = lambda_omega / (lambda_omega + 1.0 / TILES_D)
    assert abs(ppt_mixing_threshold(tiles_cert, mixed) - expected) < 1e-12
    with pytest.raises(ValueError, match="negative witness value"):
        ppt_mixing_threshold(tiles_cert, tiles_cert.omega)


def test_minimizer_direction_mixes_product_states_of_one_shape(tiles_lambda, shifts_lambda):
    # The direction is the uniform mixture of the minimizers' projectors, on
    # their own local dimensions; an empty list or mixed dimensions is refused.
    minimizers = tiles_lambda.minimizers
    direction = minimizer_direction(minimizers)
    mats = [m.to_density().matrix for m in minimizers]
    assert direction.structure.local_dims == (3, 3)
    assert np.array_equal(direction.matrix, sum(mats) / len(mats))
    for bad in ((), (minimizers[0], shifts_lambda.minimizers[0])):
        with pytest.raises(ValueError, match="^need product states on one set of local dimensions"):
            minimizer_direction(bad)


def test_maximal_robustness_direction(tiles_lambda, tiles_cert):
    sigma_dir = minimizer_direction(tiles_lambda.minimizers)
    x_star = tiles_cert.x_star
    x = (x_star + 1.0) / 2
    zs = [0.0, 0.3, 0.6, 0.9, 0.99, 0.999]
    out = verify_maximal_robustness(tiles_cert, sigma_dir, x, zs)
    assert out.ok
    assert out.trials == len(zs)
    assert out.suite == "maximal-direction"
    assert list(out.config.items()) == [
        ("upb", "tiles"), ("x", x), ("z_grid", zs), ("psd_tol", PSD_TOL)
    ]
    # The direction has zero witness value, so the mixture at z has (1 - z)
    # times the family member's, and the last z holds the smallest margin.
    assert abs(witness_value(tiles_cert.witness, sigma_dir)) < 1e-7
    v_x = witness_value(tiles_cert.witness, tiles_cert.member(x))
    assert out.witness_margin_key == (5,)
    assert abs(out.witness_margin - -(1 - 0.999) * v_x) < 1e-7
    # White noise has Tr(W I/D) = 1/D > 0, so past its mixing threshold the
    # mixture is PPT but witness-positive: a failure reported, not raised.
    mixed = DensityMatrix.maximally_mixed(tiles_cert.upb.structure)
    noisy = verify_maximal_robustness(tiles_cert, mixed, x, [0.0, 0.5, 0.9])
    assert (noisy.ppt_violations, noisy.witness_violations) == (0, 2)
    assert noisy.seeds_of_failures == ((1,), (2,))
    assert noisy.witness_margin < 0 and noisy.witness_margin_key == (2,)
    other = DensityMatrix.maximally_mixed(HilbertStructure((2, 2)))
    with pytest.raises(ValueError, match="sigma dimension does not match the family"):
        verify_maximal_robustness(tiles_cert, other, x, [0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        verify_maximal_robustness(tiles_cert, sigma_dir, x, [1.0])
    with pytest.raises(ValueError, match="at least one point"):
        verify_maximal_robustness(tiles_cert, sigma_dir, x, [])
    for outside in (x_star / 2, x_star, 1.0):
        with pytest.raises(ValueError, match="strictly between"):
            verify_maximal_robustness(tiles_cert, sigma_dir, outside, zs)


@pytest.mark.parametrize(
    "where", ["below", "x-star", "one", "above-one", "nan"]
)
def test_entangled_range_is_one_check(tiles_cert, where):
    # radius and verify_maximal_robustness refuse x outside (x*, 1) with the
    # same words, NaN included.
    x_star = tiles_cert.x_star
    x = {"below": x_star / 2, "x-star": x_star, "one": 1.0, "above-one": 1.5,
         "nan": float("nan")}[where]
    message = f"x must lie strictly between x* = {x_star!r} and 1, got {x!r}"
    with pytest.raises(ValueError) as radius_error:
        tiles_cert.radius(x)
    with pytest.raises(ValueError) as verify_error:
        verify_maximal_robustness(tiles_cert, tiles_cert.omega, x, [0.0])
    assert str(radius_error.value) == str(verify_error.value) == message


def test_profile_contents_and_serialization(tiles_cert, tiles_lambda):
    data = robustness_profile(tiles_cert, grid_size=12)
    assert data["lambda_omega"] <= 1 - 2 / TILES_D
    assert set(data) == {
        "lambda",
        "lambda_omega",
        "x_star",
        "x0_root",
        "x0_printed_eq32",
        "radius_samples",
        "mixing_threshold",
    }
    assert len(data["radius_samples"]) == 12
    for row in data["radius_samples"]:
        assert set(row) == {"x", "y0_tight", "y0_paper"}
        assert row["y0_tight"] > 0
        assert abs(row["y0_tight"] - row["y0_paper"]) < 1e-12
    assert data["x_star"] < data["x0_root"] < 1.0
    assert abs(data["mixing_threshold"] - tiles_lambda.value) < 1e-12
