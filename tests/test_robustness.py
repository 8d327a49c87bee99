import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptball import (
    DensityMatrix,
    HilbertStructure,
    LineFamily,
    ball_membership,
    crossing_x0,
    entanglement_threshold,
    entanglement_threshold_upb,
    in_gurvits_ball,
    is_ppt,
    minimizer_direction,
    mixture_tau,
    omega_state,
    ppt_mixing_threshold,
    purity,
    radius_from_witness,
    radius_y0,
    robustness_profile,
    separable_mixing_threshold,
    verify_maximal_robustness,
    witness_value,
)
from pptball.montecarlo import SamplerConfig, sample_hs_density

TILES_N, TILES_D = 5, 9


@pytest.fixture(scope="module")
def tiles_setup(tiles, tiles_lambda, tiles_witness, tiles_omega):
    lambda_omega = -witness_value(tiles_witness, tiles_omega)
    fam = LineFamily(tiles_omega)
    x_star = entanglement_threshold(lambda_omega, TILES_D)
    return fam, tiles_lambda, tiles_witness, lambda_omega, x_star


def test_family_endpoints(tiles_omega):
    fam = LineFamily(tiles_omega)
    assert np.abs(fam.member(1.0).matrix - tiles_omega.matrix).max() < 1e-15
    assert np.abs(fam.member(0.0).matrix - np.eye(9) / 9).max() < 1e-15
    with pytest.raises(ValueError):
        fam.member(1.5)


def test_family_witness_value_is_linear(tiles_setup):
    fam, _, witness, lambda_omega, _ = tiles_setup
    for x in (0.2, 0.9, 0.97):
        expected = (1.0 - x * (1.0 + TILES_D * lambda_omega)) / TILES_D
        assert abs(witness_value(witness, fam.member(x)) - expected) < 1e-13


def test_witness_value_changes_sign_at_threshold(tiles_setup):
    fam, _, witness, _, x_star = tiles_setup
    assert witness_value(witness, fam.member(x_star - 1e-9)) > 0
    assert witness_value(witness, fam.member(x_star + 1e-9)) < 0


def test_family_members_stay_ppt_and_detected(tiles_setup):
    fam, _, witness, lambda_omega, x_star = tiles_setup
    for x in np.linspace(x_star, 1.0, 52)[1:-1]:
        rho = fam.member(x)
        assert is_ppt(rho)
        assert witness_value(witness, rho) < 0
        assert radius_from_witness(x, witness, lambda_omega) > 0


def test_entanglement_threshold_forms():
    assert abs(entanglement_threshold(1 - 2 / 9, 9) - 1 / 8) < 1e-15
    with pytest.raises(ValueError):
        entanglement_threshold(0.0, 9)
    with pytest.raises(ValueError):
        entanglement_threshold(-0.5, 9)
    assert entanglement_threshold(1e-9, 9) > 0.99999


def test_threshold_identity_cross_check(tiles_setup):
    _, lam, _, lambda_omega, x_star = tiles_setup
    closed = 1.0 - lam.value * TILES_D / TILES_N
    assert abs(x_star - closed) < 1e-12
    assert (
        entanglement_threshold_upb(TILES_N, TILES_D, lam.value, lambda_omega) == x_star
    )
    with pytest.raises(RuntimeError, match="identity"):
        entanglement_threshold_upb(TILES_N, TILES_D, lam.value, lambda_omega * 1.01)


@pytest.mark.parametrize("name", ["tiles", "shifts"])
def test_certificate_matches_closed_forms(request, name):
    cert = request.getfixturevalue(f"{name}_cert")
    upb, lam = cert.upb, cert.lam.value
    d, n = upb.total_dim, upb.cardinality
    assert cert.lam is request.getfixturevalue(f"{name}_lambda")
    assert abs(cert.x_star - (1.0 - lam * d / n)) < 1e-12
    assert abs(cert.lambda_omega - lam / (n - lam * d)) < 1e-12
    assert np.array_equal(cert.omega.matrix, omega_state(upb).matrix)
    witness = request.getfixturevalue(f"{name}_witness")
    assert np.array_equal(cert.witness.op.matrix, witness.op.matrix)
    xs = cert.x_grid(7)
    assert len(xs) == 7
    assert np.all((cert.x_star < xs) & (xs < 1.0))
    assert np.all(np.diff(xs) > 0)
    for x in xs:
        for mode in ("tight", "averaged"):
            expected = radius_from_witness(x, cert.witness, cert.lambda_omega, mode=mode)
            assert cert.radius(x, mode) == expected


def test_radius_limits_and_positivity(tiles_setup):
    _, _, witness, lambda_omega, x_star = tiles_setup
    near_star = radius_from_witness(x_star + 1e-8, witness, lambda_omega)
    near_one = radius_from_witness(1.0 - 1e-8, witness, lambda_omega)
    assert 0 < near_star < 1e-6
    assert 0 < near_one < 1e-6
    mid = radius_from_witness((x_star + 1.0) / 2, witness, lambda_omega)
    assert mid > near_star and mid > near_one
    with pytest.raises(ValueError):
        radius_from_witness(x_star, witness, lambda_omega)
    with pytest.raises(ValueError):
        radius_from_witness(1.0, witness, lambda_omega)


def test_radius_modes_agree_for_flat_spectrum(
    tiles_witness, pyramid_witness, shifts_witness,
    tiles_omega, pyramid, shifts,
):
    cases = (
        (tiles_witness, tiles_omega),
        (pyramid_witness, omega_state(pyramid)),
        (shifts_witness, omega_state(shifts)),
    )
    for witness, omega in cases:
        lambda_omega = -witness_value(witness, omega)
        x_star = entanglement_threshold(lambda_omega, witness.op.dim)
        for x in np.linspace(x_star, 1.0, 23)[1:-1]:
            tight = radius_from_witness(x, witness, lambda_omega, mode="tight")
            averaged = radius_from_witness(x, witness, lambda_omega, mode="averaged")
            assert abs(tight - averaged) < 1e-12


def test_radius_modes_differ_for_non_flat_spectrum():
    kwargs = dict(
        lambda_rho=0.05,
        dim_total=9,
        pos_part_trace=1.25,
        p_count=2,
        max_pos_eigenvalue=0.9,
    )
    tight = radius_y0(0.7, mode="tight", **kwargs)
    averaged = radius_y0(0.7, mode="averaged", **kwargs)
    assert tight < averaged
    with pytest.raises(ValueError, match="mode"):
        radius_y0(0.7, mode="loose", **kwargs)


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


def test_crossing_sweep_is_monotone():
    lams = np.linspace(0.02, TILES_N / TILES_D - 0.02, 12)
    stars = [1 - lam * TILES_D / TILES_N for lam in lams]
    roots = [crossing_x0(TILES_N, TILES_D, lam).x0_root for lam in lams]
    assert np.all(np.diff(stars) < 0)
    assert np.all(np.diff(roots) < 0)
    for s, r in zip(stars, roots):
        assert s < r < 1.0


def test_mixture_tau_zero_noise(tiles_setup):
    fam, *_ = tiles_setup
    tau, dec = mixture_tau(fam, DensityMatrix.maximally_mixed(fam.structure), 0.4, 0.0)
    assert abs(dec.s - 0.6) < 1e-15
    assert dec.t == 0.0
    assert np.abs(tau.matrix - fam.member(0.4).matrix).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    x=st.floats(0.02, 0.98),
    y=st.floats(0.0, 0.97),
)
def test_mixture_decomposition_identity(tiles_omega, seed, x, y):
    fam = LineFamily(tiles_omega)
    sigma = sample_hs_density(fam.structure, SamplerConfig(seed), trial=0)
    tau, dec = mixture_tau(fam, sigma, x, y)
    assert 0.0 < dec.s <= 1.0
    assert 0.0 <= dec.t < 1.0
    assert abs(dec.s - (1 - x * (1 - y))) < 1e-15
    assert abs(dec.t - y / dec.s) < 1e-15


def test_mixture_witness_value_identity(tiles_setup):
    fam, _, witness, lambda_omega, _ = tiles_setup
    cfg = SamplerConfig(5)
    rng = np.random.default_rng(8)
    for t in range(50):
        sigma = sample_hs_density(fam.structure, cfg, trial=t)
        x = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(0.0, 0.95))
        tau, _ = mixture_tau(fam, sigma, x, y)
        expected = y * witness_value(witness, sigma) - (1 - y) * (
            x * (1 + TILES_D * lambda_omega) - 1
        ) / TILES_D
        assert abs(witness_value(witness, tau) - expected) < 1e-12


def test_mixture_tau_range_validation(tiles_setup):
    fam, *_ = tiles_setup
    mixed = DensityMatrix.maximally_mixed(fam.structure)
    with pytest.raises(ValueError):
        mixture_tau(fam, mixed, 0.0, 0.1)
    with pytest.raises(ValueError):
        mixture_tau(fam, mixed, 0.5, 1.0)


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
    rho = DensityMatrix.from_matrix(
        mu * pure.matrix + (1 - mu) * np.eye(9) / 9, structure
    )
    assert in_gurvits_ball(rho)
    assert purity(rho) < 1 / 8
    assert is_ppt(rho)


def test_ball_membership_basics(tiles_setup):
    fam, *_ = tiles_setup
    center = fam.member(0.9)
    assert ball_membership(center, center) < 1e-10
    pure = DensityMatrix.from_pure(np.eye(9)[3], fam.structure)
    assert abs(ball_membership(pure, center) - 1.0) < 1e-10


def test_ball_membership_of_constructed_mixtures(tiles_setup):
    fam, *_ = tiles_setup
    center = fam.member(0.9)
    cfg = SamplerConfig(13)
    rng = np.random.default_rng(13)
    for t in range(100):
        sigma = sample_hs_density(fam.structure, cfg, trial=t)
        y = float(rng.uniform(0.0, 1.0))
        tau = DensityMatrix.from_matrix(
            y * sigma.matrix + (1 - y) * center.matrix, fam.structure
        )
        assert ball_membership(tau, center) <= y + 1e-10


def test_ball_membership_is_bounded_by_line_weights(tiles_setup):
    fam, *_ = tiles_setup
    x, delta = 0.7, 0.05
    center = fam.member(x)
    up = ball_membership(fam.member(x + delta), center)
    down = ball_membership(fam.member(x - delta), center)
    assert up <= delta / (1 - x) + 1e-12
    assert down <= delta / x + 1e-12


def test_ball_membership_rejects_rank_deficient_center(tiles_omega):
    pure = DensityMatrix.from_pure(np.eye(9)[0], tiles_omega.structure)
    with pytest.raises(ValueError, match="full rank"):
        ball_membership(pure, tiles_omega)


def test_separable_mixing_threshold_identity(tiles_setup):
    _, lam, witness, lambda_omega, _ = tiles_setup
    threshold = separable_mixing_threshold(witness, lambda_omega, lam.value)
    assert abs(threshold - lam.value) < 1e-12
    with pytest.raises(RuntimeError, match="identity"):
        separable_mixing_threshold(witness, lambda_omega * 1.01, lam.value)


def test_ppt_mixing_threshold_directions(tiles, tiles_setup):
    fam, lam, witness, lambda_omega, _ = tiles_setup
    sigma_min = lam.minimizer.to_density(tiles.structure)
    assert abs(ppt_mixing_threshold(witness, lambda_omega, sigma_min) - 1.0) < 1e-6
    mixed = DensityMatrix.maximally_mixed(tiles.structure)
    expected = lambda_omega / (lambda_omega + 1.0 / TILES_D)
    assert abs(ppt_mixing_threshold(witness, lambda_omega, mixed) - expected) < 1e-12
    with pytest.raises(ValueError, match="negative witness value"):
        ppt_mixing_threshold(witness, lambda_omega, fam.base)


def test_maximal_robustness_direction(tiles, tiles_setup):
    fam, lam, witness, lambda_omega, x_star = tiles_setup
    sigma_dir = minimizer_direction(lam, tiles.structure)
    x = (x_star + 1.0) / 2
    zs = [0.0, 0.3, 0.6, 0.9, 0.99, 0.999]
    report = verify_maximal_robustness(fam, sigma_dir, witness, x, zs)
    assert report.all_ok
    v_x = witness_value(witness, fam.member(x))
    for check in report.checks:
        assert abs(check.witness_value - (1 - check.z) * v_x) < 1e-7
    with pytest.raises(ValueError):
        verify_maximal_robustness(fam, sigma_dir, witness, x, [1.0])


def test_profile_contents_and_serialization(tiles_cert, tiles_lambda):
    profile = robustness_profile(tiles_cert, grid_size=12)
    assert profile.lambda_omega <= 1 - 2 / TILES_D
    data = profile.to_json_dict()
    assert set(data) == {
        "upb_name",
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
