import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptball import (
    DensityMatrix,
    HermitianOperator,
    HilbertStructure,
    PSD_TOL,
    ProductState,
    UPBSet,
    ball_fraction_estimate,
    ball_membership,
    build_complete_basis,
    certify,
    eig_hermitian,
    in_gurvits_ball,
    is_ppt,
    min_pt_eigenvalue,
    minimizer_direction,
    mixture_tau,
    omega_state,
    partial_transpose,
    ppt_mixing_threshold,
    prove_product_minimum,
    purity,
    robustness_profile,
    verify_maximal_robustness,
    witness_value,
)
from pptball import robustness as robustness_module
from pptball.montecarlo import sample_hs_density, sample_random_product_separable
from pptball.robustness import X0_NOTE, ZERO_EIG_ATOL, _branches, _crossing, _line

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


@pytest.mark.parametrize("name", ["tiles", "pyramid", "shifts"])
def test_certify_evaluates_the_line_once(request, monkeypatch, name):
    # The exact (n, D, lambda) line is evaluated once per certificate, by certify.
    upb = request.getfixturevalue(name)
    lam = request.getfixturevalue(f"{name}_lambda").value
    calls = []

    def counted(n, d, value):
        calls.append((n, d, value))
        return _line(n, d, value)

    monkeypatch.setattr(robustness_module, "_line", counted)
    cert = certify(upb, lam)
    assert calls == [(upb.cardinality, upb.total_dim, lam)]
    assert type(cert.witness) is HermitianOperator


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
    assert type(cert.witness) is HermitianOperator
    witness = (upb.projector.matrix - lam * np.eye(d)) / (n - lam * d)
    assert np.array_equal(cert.witness.matrix, witness)
    xs = cert.x_grid(7)
    assert len(xs) == 7
    assert np.all((cert.x_star < xs) & (xs < 1.0))
    assert np.all(np.diff(xs) > 0)
    for x in xs:
        assert rounded_down(cert.radius(x), min(_branches(x, n, d, lam)))
    # The float spectrum of W agrees with the exact numbers to rounding.
    assert abs(eig_hermitian(cert.witness).eigenvalues[-1] - w_max) < 1e-12
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


def test_crossing_root_and_branch_equality(tiles_lambda):
    lam = tiles_lambda.value
    x0, printed = _crossing(TILES_N, TILES_D, lam)
    root = float(x0)
    x_star = 1 - lam * TILES_D / TILES_N
    assert x_star < root < 1.0
    purity_branch, witness_branch = _branches(root, TILES_N, TILES_D, lam)
    assert abs(purity_branch - witness_branch) < 1e-12
    purity_branch = (1 - root) / (TILES_D - 1 - root)
    witness_branch = (TILES_N * root - TILES_N + lam * TILES_D) / (
        TILES_N * root - TILES_N + TILES_D
    )
    assert abs(purity_branch - witness_branch) < 1e-10
    closed = (TILES_N * (TILES_D - 2) + TILES_D * (1 - lam * (TILES_D - 1))) / (
        TILES_N * (TILES_D - 2) + TILES_D * (1 - lam)
    )
    assert abs(root - closed) < 1e-10
    assert float(printed) != pytest.approx(root, abs=1e-3)
    # Bad input is a ValueError, as for certify, not a failed contract.
    for bad in (0.6, np.nan):
        with pytest.raises(ValueError, match=r"outside \(0, n/D"):
            _crossing(TILES_N, TILES_D, bad)
    with pytest.raises(ValueError, match="extendible"):
        _crossing(TILES_N, TILES_D, 0.0)


def test_crossing_sweep_is_monotone():
    lams = np.linspace(0.02, TILES_N / TILES_D - 0.02, 12)
    stars = [1 - lam * TILES_D / TILES_N for lam in lams]
    roots = [_crossing(TILES_N, TILES_D, lam)[0] for lam in lams]
    assert np.all(np.diff(stars) < 0)
    assert all(a > b for a, b in zip(roots, roots[1:]))
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


def test_mixture_tau_identity_is_a_contract(monkeypatch, tiles, tiles_cert):
    # A rewrite residual above IDENTITY_ATOL is a RuntimeError, which the CLI
    # maps to exit 4; a negative tolerance forces it.
    monkeypatch.setattr("pptball.robustness.IDENTITY_ATOL", -1.0)
    mixed = DensityMatrix.maximally_mixed(tiles.structure)
    with pytest.raises(RuntimeError, match="^mixture decomposition identity violated"):
        mixture_tau(tiles_cert, mixed, 0.4, 0.1)


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


@pytest.mark.parametrize("name", ["tiles", "shifts"])
def test_separable_mixing_threshold_identity(request, name):
    # W+ has p = n eigenvalues, each w_max, so Tr W+ / p = w_max: the paper's
    # averaged radius is the tight one.  p lambda_omega / (Tr W+ + p lambda_omega)
    # is lambda exactly on the line, and the witness's float spectrum gives
    # both to rounding.
    cert = request.getfixturevalue(f"{name}_cert")
    lam, n = cert.lam, cert.upb.cardinality
    lambda_omega, w_max, _ = _line(n, cert.upb.total_dim, lam)
    pos = eig_hermitian(cert.witness).eigenvalues
    pos = pos[pos > 0]
    p = pos.size
    assert p == n
    assert abs(pos.sum() / p - w_max) < 1e-12
    assert p * lambda_omega / (p * w_max + p * lambda_omega) == Fraction(lam)
    lambda_omega = cert.lambda_omega
    assert abs(p * lambda_omega / (pos.sum() + p * lambda_omega) - lam) < 1e-12


def test_ppt_mixing_threshold_directions(tiles, tiles_lambda, tiles_cert):
    lambda_omega = tiles_cert.lambda_omega
    sigma_min = tiles_lambda.minimizers[0].to_density()
    assert abs(ppt_mixing_threshold(tiles_cert, sigma_min) - 1.0) < 1e-6
    mixed = DensityMatrix.maximally_mixed(tiles.structure)
    expected = lambda_omega / (lambda_omega + 1.0 / TILES_D)
    assert abs(ppt_mixing_threshold(tiles_cert, mixed) - expected) < 1e-12
    with pytest.raises(ValueError, match="negative witness value"):
        ppt_mixing_threshold(tiles_cert, tiles_cert.omega)
    # The maximally entangled state has witness value (<Phi|P|Phi> - lambda)/(n - lambda D)
    # > 0, since <Phi|P|Phi> >= 1/6 from the member (e0, (e0 - e1)/sqrt 2), but it is
    # not PPT, so the threshold is refused.
    phi = DensityMatrix.from_pure(np.eye(3).reshape(-1), tiles.structure)
    assert witness_value(tiles_cert.witness, phi) > 0 and not is_ppt(phi)
    with pytest.raises(ValueError, match="^direction must be PPT on every bipartition$"):
        ppt_mixing_threshold(tiles_cert, phi)


def test_minimizer_direction_mixes_product_states_of_one_shape(tiles_lambda, shifts_lambda):
    # The direction is the uniform mixture of the minimizers' projectors, on
    # their own local dimensions; an empty list or mixed dimensions is refused.
    minimizers = tiles_lambda.minimizers
    direction = minimizer_direction(minimizers)
    mats = [m.to_density().matrix for m in minimizers]
    assert direction.structure.local_dims == (3, 3)
    assert np.array_equal(direction.matrix, sum(mats) / len(mats))
    with pytest.raises(ValueError, match="^need product states on one set of local dimensions"):
        minimizer_direction((minimizers[0], shifts_lambda.minimizers[0]))
    with pytest.raises(ValueError, match="^number of minimizers must be at least 1, got 0$"):
        minimizer_direction(())


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
    mismatch = r"^explicit structure \(3, 3\) does not match the state's \(2, 2\)$"
    with pytest.raises(ValueError, match=mismatch):
        verify_maximal_robustness(tiles_cert, other, x, [0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        verify_maximal_robustness(tiles_cert, sigma_dir, x, [1.0])
    with pytest.raises(ValueError, match="^number of grid entries must be at least 1, got 0$"):
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
        "x0_note",
    }
    assert data["x0_note"] == X0_NOTE
    assert len(data["radius_samples"]) == 12
    for row in data["radius_samples"]:
        assert set(row) == {"x", "y0_tight"}
        assert row["y0_tight"] > 0
    assert data["x_star"] < data["x0_root"] < 1.0
    assert data["lambda"] == tiles_lambda.value


def _midpoint(cert):
    return (cert.x_star + 1.0) / 2


# Every real argument of the paper's constructions, as (where, name, call):
# call(cert, sigma, value) passes value as that argument and valid values as
# the others.  operators._real checks each before its range test.
REAL_ARGUMENTS = [
    ("member.x", "mixing parameter", lambda c, s, v: c.member(v)),
    ("radius.x", "x", lambda c, s, v: c.radius(v)),
    ("mixture_tau.x", "x", lambda c, s, v: mixture_tau(c, s, v, 0.1)),
    ("mixture_tau.y", "y", lambda c, s, v: mixture_tau(c, s, _midpoint(c), v)),
    ("maximal.x", "x", lambda c, s, v: verify_maximal_robustness(c, s, v, [0.1])),
    (
        "maximal.z",
        "grid entry",
        lambda c, s, v: verify_maximal_robustness(c, s, _midpoint(c), [0.1, v]),
    ),
    (
        "ball_fraction.radius",
        "radius",
        lambda c, s, v: ball_fraction_estimate(c.member(_midpoint(c)), v, 1, 0),
    ),
]
# A 4 x 4 state where a state on the 3 x 3 family is expected is refused by
# _structure_of, and a 4 x 3 matrix where a bare operator is expected by
# HermitianOperator.
ON_STRUCTURE = (np.eye(4) / 4, "^operator dimension does not match the structure$")
BARE = (np.eye(4, 3), r"^expected a square matrix, got shape \(4, 3\)$")
STATE_ARGUMENTS = [
    ("mixture_tau.sigma", ON_STRUCTURE, lambda c, v: mixture_tau(c, v, _midpoint(c), 0.1)),
    (
        "maximal.sigma_dir",
        ON_STRUCTURE,
        lambda c, v: verify_maximal_robustness(c, v, _midpoint(c), [0.1]),
    ),
    ("ppt_mixing_threshold.sigma", ON_STRUCTURE, ppt_mixing_threshold),
    ("prove_product_minimum.w", ON_STRUCTURE, lambda c, v: prove_product_minimum(v, (3, 3), 0.1)),
    (
        "in_gurvits_ball.rho",
        (np.eye(4) / 4, "^a bare operator or plain matrix needs an explicit structure$"),
        lambda c, v: in_gurvits_ball(v),
    ),
    ("purity.rho", BARE, lambda c, v: purity(v)),
    ("ball_fraction.center", BARE, lambda c, v: ball_fraction_estimate(v, 0.5, 1, 0)),
]


@pytest.fixture(scope="module")
def tiles_direction(tiles):
    """A separable state on tiles' space: PPT, with a nonnegative witness value."""
    return sample_random_product_separable(tiles.structure, 4, seed=0)


@pytest.mark.parametrize("value", ["0.5", True, 0.5 + 0j], ids=["str", "bool", "complex"])
@pytest.mark.parametrize(
    "what, call", [r[1:] for r in REAL_ARGUMENTS], ids=[r[0] for r in REAL_ARGUMENTS]
)
def test_real_arguments_share_one_entry_rule(tiles_cert, tiles_direction, what, call, value):
    # A str, a bool or a complex is refused in _real's words before any range
    # test; none escapes as the TypeError of a comparison, and True is not 1.
    with pytest.raises(ValueError) as error:
        call(tiles_cert, tiles_direction, value)
    assert str(error.value) == f"{what} must be a real number, got {value!r}"


@pytest.mark.parametrize(
    "wrong, call", [r[1:] for r in STATE_ARGUMENTS], ids=[r[0] for r in STATE_ARGUMENTS]
)
def test_state_arguments_share_one_entry_rule(tiles_cert, wrong, call):
    # A plain matrix of the wrong shape is refused in the words of the helper
    # that checks that kind of argument, never by an AttributeError.
    matrix, message = wrong
    with pytest.raises(ValueError, match=message):
        call(tiles_cert, matrix)


def test_state_structure_must_match_the_family(tiles_cert, tiles_direction):
    # A DensityMatrix on the family's total dimension but other local
    # dimensions is refused; a plain matrix takes the family's structure.
    flat = DensityMatrix(tiles_direction.matrix, (9,))
    message = r"^explicit structure \(3, 3\) does not match the state's \(9,\)$"
    for call in (
        lambda v: mixture_tau(tiles_cert, v, _midpoint(tiles_cert), 0.1),
        lambda v: verify_maximal_robustness(tiles_cert, v, _midpoint(tiles_cert), [0.1]),
        lambda v: ppt_mixing_threshold(tiles_cert, v),
    ):
        with pytest.raises(ValueError, match=message):
            call(flat)


def test_plain_matrices_give_the_state_results(tiles_cert, tiles_direction):
    # A valid plain matrix, here a nested list, gives bit for bit what the
    # DensityMatrix gives.
    sigma, plain = tiles_direction, tiles_direction.matrix.tolist()
    x = _midpoint(tiles_cert)
    center = tiles_cert.member(x)
    tau, parts = mixture_tau(tiles_cert, sigma, x, 0.1)
    plain_tau, plain_parts = mixture_tau(tiles_cert, plain, x, 0.1)
    assert np.array_equal(tau.matrix, plain_tau.matrix) and parts == plain_parts
    assert plain_tau.structure.local_dims == tau.structure.local_dims
    zs = [0.0, 0.3, 0.9]
    assert (
        verify_maximal_robustness(tiles_cert, plain, x, zs).to_json_dict()
        == verify_maximal_robustness(tiles_cert, sigma, x, zs).to_json_dict()
    )
    assert ppt_mixing_threshold(tiles_cert, plain) == ppt_mixing_threshold(tiles_cert, sigma)
    assert purity(plain) == purity(sigma)
    radius = tiles_cert.radius(x)
    assert ball_fraction_estimate(center.matrix.tolist(), radius, 20, 0) == ball_fraction_estimate(
        center, radius, 20, 0
    )


# Every list-like argument passes operators._sequence: one that is not
# iterable, or is empty, is refused in its words ("expected a sequence of
# ...", "number of ... must be at least 1"), and each item is checked where
# the caller reads it.  Party indices pass _integer and a range test, entries
# that are not numbers are refused where they become a complex array, and a
# set's name must be a string.
SEQUENCE_ARGUMENTS = [
    ("structure", lambda c: HilbertStructure(3), "expected a sequence of subsystems, got 3"),
    (
        "complete-basis",
        lambda c: build_complete_basis(3),
        "expected a sequence of subsystems, got 3",
    ),
    ("product-state", lambda c: ProductState(5), "expected a sequence of subsystems, got 5"),
    (
        "product-state.empty",
        lambda c: ProductState(()),
        "number of subsystems must be at least 1, got 0",
    ),
    (
        "product-state.entries",
        lambda c: ProductState(({1: 2},)),
        "local vector entries are not numbers",
    ),
    ("operator.entries", lambda c: HermitianOperator({1: 2}), "matrix entries are not numbers"),
    (
        "from-pure.entries",
        lambda c: DensityMatrix.from_pure({1: 2}, (2, 2)),
        "vector entries are not numbers",
    ),
    ("upb-set", lambda c: UPBSet("x", (2, 2), 5), "expected a sequence of members, got 5"),
    (
        "upb-set.name",
        lambda c: UPBSet(5, (2, 2), [ProductState(([1, 0], [1, 0]))]),
        "name must be a string, got 5",
    ),
    (
        "upb-set.empty",
        lambda c: UPBSet("x", (2, 2), []),
        "number of members must be at least 1, got 0",
    ),
    (
        "upb-set.member",
        lambda c: UPBSet("x", (2, 2), [np.eye(2)]),
        "a member must be a ProductState, got ndarray",
    ),
    (
        "from-vectors",
        lambda c: UPBSet.from_vectors("x", (2, 2), 5),
        "expected a sequence of members, got 5",
    ),
    (
        "partial-transpose",
        lambda c: partial_transpose(c.omega, 1),
        "expected a sequence of transposed subsystems, got 1",
    ),
    (
        "maximal.z-grid",
        lambda c: verify_maximal_robustness(c, c.omega, _midpoint(c), 0.5),
        "expected a sequence of grid entries, got 0.5",
    ),
    (
        "minimizer-direction",
        lambda c: minimizer_direction([np.eye(3)]),
        "a minimizer must be a ProductState, got ndarray",
    ),
    ("local-matrix", lambda c: c.upb.local_matrix(5), "party 5 out of range for 2 parties"),
    ("local-matrix.negative", lambda c: c.upb.local_matrix(-1), "party must be at least 0, got -1"),
    ("local-matrix.float", lambda c: c.upb.local_matrix(1.5), "party must be an integer, got 1.5"),
]


@pytest.mark.parametrize(
    "call, message", [r[1:] for r in SEQUENCE_ARGUMENTS], ids=[r[0] for r in SEQUENCE_ARGUMENTS]
)
def test_sequence_arguments_share_one_entry_rule(tiles_cert, call, message):
    # pytest.raises(ValueError) lets a TypeError, AttributeError or IndexError through.
    with pytest.raises(ValueError) as error:
        call(tiles_cert)
    assert str(error.value) == message


def test_generators_and_arrays_pass_as_sequences(tiles, tiles_cert, tiles_lambda):
    # A generator of generators builds the same set, and an ndarray z grid or a
    # generator of minimizers gives the same results as lists, bit for bit.
    rebuilt = UPBSet.from_vectors(
        "tiles", (3, 3), (iter(m.local_vectors) for m in tiles.members)
    )
    assert np.array_equal(rebuilt.projector.matrix, tiles.projector.matrix)
    for a, b in zip(rebuilt.members, tiles.members, strict=True):
        assert all(np.array_equal(u, v) for u, v in zip(a.local_vectors, b.local_vectors))
    x, zs = _midpoint(tiles_cert), np.linspace(0.0, 0.9, 4)
    direction = minimizer_direction(m for m in tiles_lambda.minimizers)
    assert np.array_equal(direction.matrix, minimizer_direction(tiles_lambda.minimizers).matrix)
    assert (
        verify_maximal_robustness(tiles_cert, direction, x, zs).to_json_dict()
        == verify_maximal_robustness(tiles_cert, direction, x, zs.tolist()).to_json_dict()
    )
