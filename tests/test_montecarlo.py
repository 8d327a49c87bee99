import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pptball import (
    DensityMatrix,
    HilbertStructure,
    PSD_TOL,
    SamplerConfig,
    all_bipartitions,
    ball_fraction_estimate,
    ball_membership,
    is_ppt,
    min_pt_eigenvalue,
    mixture_tau,
    purity,
    sample_hs_density,
    sample_random_product_separable,
    verify_ball_robustness,
    verify_separable_mixing,
    witness_value,
)
from pptball.montecarlo import MIXTURE_TERMS, _wilson_interval


def test_sampler_determinism():
    structure = HilbertStructure((2, 2))
    cfg = SamplerConfig(12345, stream_id=4)
    a = sample_hs_density(structure, cfg, trial=3)
    b = sample_hs_density(structure, cfg, trial=3)
    assert np.array_equal(a.matrix, b.matrix)
    c = sample_hs_density(structure, cfg, trial=4)
    assert not np.array_equal(a.matrix, c.matrix)
    d = sample_hs_density(structure, SamplerConfig(12345, stream_id=5), trial=3)
    assert not np.array_equal(a.matrix, d.matrix)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(-1)
    with pytest.raises(ValueError):
        SamplerConfig(1, stream_id=-1)


def test_hs_samples_have_expected_purity_band():
    structure = HilbertStructure((2, 2))
    cfg = SamplerConfig(321)
    values = [
        purity(sample_hs_density(structure, cfg, trial=t)) for t in range(10_000)
    ]
    mean = float(np.mean(values))
    assert 0.3 < mean < 0.6


def test_product_sampler_is_separable():
    structure = HilbertStructure((3, 3))
    cfg = SamplerConfig(77)
    single = sample_random_product_separable(structure, 1, cfg, trial=0)
    assert abs(purity(single) - 1.0) < 1e-12
    for t in range(50):
        rho = sample_random_product_separable(structure, 5, cfg, trial=t)
        assert is_ppt(rho)


def test_product_sampler_rejects_zero_terms():
    with pytest.raises(ValueError):
        sample_random_product_separable(
            HilbertStructure((2, 2)), 0, SamplerConfig(1)
        )


def test_ball_verification_clean_run(tiles_cert):
    out = verify_ball_robustness(
        tiles_cert, tiles_cert.x_grid(3), 0.99, 60, SamplerConfig(42, stream_id=1)
    )
    assert out.ok
    assert out.trials == 3 * 60
    assert out.worst_margin > 0
    assert out.seeds_of_failures == ()
    data = out.to_json_dict()
    assert data["config"]["master_seed"] == 42
    assert data["suite"] == "ball"


def test_ball_verification_validates_inputs(tiles_cert):
    with pytest.raises(ValueError, match="y_fraction"):
        verify_ball_robustness(tiles_cert, [0.99], 1.0, 5, SamplerConfig(1))
    with pytest.raises(ValueError, match="outside"):
        verify_ball_robustness(tiles_cert, [0.5], 0.9, 5, SamplerConfig(1))
    with pytest.raises(ValueError, match="trial"):
        verify_ball_robustness(tiles_cert, [0.99], 0.9, 0, SamplerConfig(1))
    with pytest.raises(ValueError, match="at least one point"):
        verify_ball_robustness(tiles_cert, [], 0.9, 5, SamplerConfig(1))


def test_separable_mixing_clean_run(tiles_cert):
    out = verify_separable_mixing(tiles_cert, 0.99, 200, SamplerConfig(42, stream_id=2))
    assert out.ok
    assert out.worst_margin > 0


def test_separable_mixing_reports_witness_margin(tiles_cert):
    # The PPT margin is PSD_TOL plus a PT eigenvalue of rounding size; the
    # witness margin is the one that says how far the suite is from failing.
    out = verify_separable_mixing(tiles_cert, 0.99, 50, SamplerConfig(1, stream_id=2))
    assert out.ppt_margin < 2e-9
    assert out.witness_margin > 1e-4
    assert out.worst_margin == out.ppt_margin
    assert out.witness_margin_key[:3] == (1, 2, 2)
    data = out.to_json_dict()
    assert "worst_margin" not in data
    assert data["witness_margin"] == out.witness_margin
    assert data["witness_margin_key"] == out.witness_margin_key


def test_separable_mixing_validates_inputs(tiles_cert):
    with pytest.raises(ValueError, match="z_fraction"):
        verify_separable_mixing(tiles_cert, 1.0, 5, SamplerConfig(1))
    with pytest.raises(ValueError, match="trial"):
        verify_separable_mixing(tiles_cert, 0.5, 0, SamplerConfig(1))


def _score_states(witness, keyed_states):
    """Counts, margins and failing keys of validated states, one object at a time."""
    ppt_bad = wit_bad = 0
    ppt_margin = witness_margin = (np.inf, ())
    failures = []
    for key, state in keyed_states:
        margin = min_pt_eigenvalue(state) + PSD_TOL
        wv = witness_value(witness, state)
        if margin < ppt_margin[0]:
            ppt_margin = (margin, key)
        if -wv < witness_margin[0]:
            witness_margin = (-wv, key)
        ppt_bad += not is_ppt(state)
        wit_bad += wv >= 0.0
        if not is_ppt(state) or wv >= 0.0:
            failures.append(key)
    return ppt_bad, wit_bad, ppt_margin, witness_margin, tuple(failures)


def _outcome_fields(out):
    return (
        out.ppt_violations,
        out.witness_violations,
        (out.ppt_margin, out.ppt_margin_key),
        (out.witness_margin, out.witness_margin_key),
        out.seeds_of_failures,
    )


@pytest.mark.parametrize("cert_name", ["tiles_cert", "shifts_cert"])
def test_plain_matrix_suites_match_object_path(request, cert_name):
    cert = request.getfixturevalue(cert_name)
    structure = cert.upb.structure
    grid, trials = cert.x_grid(2), 20
    # Substream keys are (master seed, stream, tag, trial); tag 1 draws
    # Hilbert-Schmidt states, tag 2 product mixtures.
    cfg = SamplerConfig(5, stream_id=1)
    ball_states = []
    for xi, x in enumerate(grid):
        y = 0.99 * cert.radius(x)
        for t in range(xi * trials, (xi + 1) * trials):
            sigma = sample_hs_density(structure, cfg, trial=t)
            ball_states.append(((5, 1, 1, t), mixture_tau(cert, sigma, x, y)[0]))
    ball = verify_ball_robustness(cert, grid, 0.99, trials, cfg)
    assert ball.trials == len(ball_states)
    assert _outcome_fields(ball) == _score_states(cert.witness, ball_states)

    cfg = SamplerConfig(5, stream_id=2)
    z = 0.99 * cert.lam.value
    mixing_states = []
    for t in range(trials):
        sigma = sample_random_product_separable(structure, MIXTURE_TERMS, cfg, trial=t)
        m = z * sigma.matrix + (1.0 - z) * cert.omega.matrix
        mixing_states.append(((5, 2, 2, t), DensityMatrix.from_matrix(m, structure)))
    mixing = verify_separable_mixing(cert, 0.99, trials, cfg)
    assert mixing.trials == trials
    assert _outcome_fields(mixing) == _score_states(cert.witness, mixing_states)


@pytest.mark.parametrize("cert_name", ["tiles_cert", "shifts_cert"])
def test_suites_diagonalize_each_trial_once_per_cut(request, monkeypatch, cert_name):
    # One eigvalsh per cut per trial, plus one per x point for the validated
    # family member; the sampled states themselves are not re-validated.
    cert = request.getfixturevalue(cert_name)
    cuts = len(all_bipartitions(cert.upb.structure))
    k, trials = 3, 7
    x = (cert.x_star + 1.0) / 2
    center = cert.member(x)
    calls = 0
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        nonlocal calls
        calls += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    verify_ball_robustness(cert, cert.x_grid(k), 0.99, trials, SamplerConfig(3, stream_id=1))
    assert calls == k * trials * cuts + k
    calls = 0
    verify_separable_mixing(cert, 0.99, trials, SamplerConfig(3, stream_id=2))
    assert calls == trials * cuts
    calls = 0
    ball_fraction_estimate(center, cert.radius(x), trials, SamplerConfig(3, stream_id=3))
    assert calls == trials


def test_mixing_respects_minimizer_direction(tiles, tiles_lambda, tiles_witness, tiles_omega):
    sigma = tiles_lambda.minimizer.to_density(tiles.structure)
    for z in (0.1, 0.5, 0.9, 0.999):
        m = z * sigma.matrix + (1 - z) * tiles_omega.matrix
        state = DensityMatrix.from_matrix(m, tiles.structure)
        assert witness_value(tiles_witness, state) < 0
        assert is_ppt(state)


def test_ball_fraction_extremes(tiles_cert):
    center = tiles_cert.member(0.9)
    cfg = SamplerConfig(3)
    assert ball_fraction_estimate(center, 1.0, 40, cfg).fraction == 1.0
    assert ball_fraction_estimate(center, 0.0, 40, cfg).fraction == 0.0


def test_ball_fraction_reports_interval(tiles_cert):
    x = (tiles_cert.x_star + 1) / 2
    center = tiles_cert.member(x)
    radius = tiles_cert.radius(x)
    est = ball_fraction_estimate(center, radius, 200, SamplerConfig(9))
    assert 0.0 <= est.ci_low <= est.fraction <= est.ci_high <= 1.0
    hits = sum(
        ball_membership(sample_hs_density(center.structure, SamplerConfig(9), trial=t), center)
        < radius
        for t in range(200)
    )
    assert est.hits == hits


@pytest.mark.parametrize(
    "k, n", [(0, 1), (1, 1), (0, 40), (40, 40), (3, 200), (17, 1000), (1, 100000), (50000, 100000)]
)
def test_wilson_interval_matches_scipy(k, n):
    from scipy.stats import binomtest

    ci = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
    assert _wilson_interval(k, n) == (float(ci.low), float(ci.high))


def _probe(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout; the words it prints."""
    import pptball

    src = str(Path(pptball.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = (
        "import sys, pptball.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert _probe(probe) == ["[]"]


def test_only_the_grid_oracle_loads_scipy_optimize():
    probe = """
import sys
from pptball import (
    SeesawConfig, build_complete_basis, build_shifts, certify, grid_minimum_overlap,
    minimum_overlap, robustness_profile,
)
shifts = build_shifts()
robustness_profile(certify(shifts, minimum_overlap(shifts, SeesawConfig(restarts=20))), grid_size=3)
print("scipy.optimize" in sys.modules)
grid_minimum_overlap(build_complete_basis((2, 2)))
print("scipy.optimize" in sys.modules)
"""
    assert _probe(probe) == ["False", "True"]
