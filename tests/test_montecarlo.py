import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from pptball import (
    DensityMatrix,
    HermitianOperator,
    HilbertStructure,
    PSD_TOL,
    all_bipartitions,
    ball_fraction_estimate,
    ball_membership,
    is_ppt,
    min_pt_eigenvalue,
    minimizer_direction,
    minimum_overlap,
    mixture_tau,
    purity,
    robustness_profile,
    sample_hs_density,
    sample_random_product_separable,
    verify_ball_robustness,
    verify_maximal_robustness,
    verify_separable_mixing,
    witness_value,
)
from pptball.montecarlo import (
    MIXTURE_TERMS,
    PROBE_FRACTION,
    _dirichlet,
    _hs_matrix,
    _product_mixture,
    _wilson_interval,
)


def test_sampler_determinism():
    structure = HilbertStructure((2, 2))
    a = sample_hs_density(structure, 12345, trial=3, stream_id=4)
    b = sample_hs_density(structure, 12345, trial=3, stream_id=4)
    assert np.array_equal(a.matrix, b.matrix)
    c = sample_hs_density(structure, 12345, trial=4, stream_id=4)
    assert not np.array_equal(a.matrix, c.matrix)
    d = sample_hs_density(structure, 12345, trial=3, stream_id=5)
    assert not np.array_equal(a.matrix, d.matrix)
    # The documented key: tag 1 draws Hilbert-Schmidt states.
    assert np.array_equal(a.matrix, _hs_matrix(4, random.Random("12345:4:1:3")))


def test_sampler_seed_and_stream_validation():
    structure = HilbertStructure((2, 2))
    for sample in (
        lambda **kw: sample_hs_density(structure, **kw),
        lambda **kw: sample_random_product_separable(structure, 2, **kw),
    ):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            sample(seed=-1)
        with pytest.raises(ValueError, match="stream_id must be at least 0, got -1"):
            sample(seed=1, stream_id=-1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cert: minimum_overlap(cert.upb, seed=-1), "seed must be at least 0, got -1"),
        (lambda cert: minimum_overlap(cert.upb, seed=2.5), "seed must be an integer"),
        (lambda cert: minimum_overlap(cert.upb, seed=True), "seed must be an integer, got True"),
        (lambda cert: sample_hs_density(cert.omega.structure, 1.5), "seed must be an integer"),
        (
            lambda cert: sample_hs_density(cert.omega.structure, float("nan")),
            "seed must be an integer",
        ),
        (
            lambda cert: sample_hs_density(cert.omega.structure, 0, stream_id=1.5),
            "stream_id must be an integer",
        ),
        (
            lambda cert: sample_hs_density(cert.omega.structure, True),
            "seed must be an integer, got True",
        ),
        (
            lambda cert: sample_hs_density(cert.omega.structure, 0, stream_id=True),
            "stream_id must be an integer, got True",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, 2, 2.5),
            "seed must be an integer",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, 2, True),
            "seed must be an integer, got True",
        ),
        (
            lambda cert: sample_random_product_separable(
                cert.omega.structure, 2, 0, stream_id=True
            ),
            "stream_id must be an integer, got True",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, 2, 0, trial=True),
            "trial must be an integer, got True",
        ),
        (
            lambda cert: verify_ball_robustness(cert, 1, 5, -1),
            "seed must be at least 0, got -1",
        ),
        (
            lambda cert: verify_separable_mixing(cert, 5, 1.5),
            "seed must be an integer",
        ),
        (
            lambda cert: ball_fraction_estimate(cert.member(0.9), 0.5, 5, True),
            "seed must be an integer, got True",
        ),
        (lambda cert: cert.x_grid(True), "grid size must be an integer, got True"),
        (
            lambda cert: ball_fraction_estimate(cert.member(0.9), 0.5, True, 0),
            "trials must be an integer, got True",
        ),
        (
            lambda cert: verify_ball_robustness(cert, True, 5, 0),
            "grid size must be an integer, got True",
        ),
        (
            lambda cert: verify_ball_robustness(cert, 0, 5, 0),
            "grid size must be at least 1, got 0",
        ),
        (lambda cert: cert.x_grid(0), "grid size must be at least 1"),
        (lambda cert: cert.x_grid(-1), "grid size must be at least 1"),
        (lambda cert: robustness_profile(cert, 0), "grid size must be at least 1"),
        (
            lambda cert: verify_ball_robustness(cert, 1, 2.5, 0),
            "trials must be an integer",
        ),
        (
            lambda cert: verify_separable_mixing(cert, 2.5, 0),
            "trials must be an integer",
        ),
        (
            lambda cert: ball_fraction_estimate(cert.member(0.9), 0.5, 2.5, 0),
            "trials must be an integer",
        ),
        (
            lambda cert: ball_fraction_estimate(cert.member(0.9), np.nan, 10, 0),
            "radius must lie in",
        ),
        (
            lambda cert: ball_fraction_estimate(cert.member(0.9), -1.0, 10, 0),
            "radius must lie in",
        ),
        (
            lambda cert: ball_fraction_estimate(cert.member(0.9), 2.0, 10, 0),
            "radius must lie in",
        ),
        (
            lambda cert: sample_hs_density(cert.omega.structure, 0, trial=1.5),
            "trial must be an integer",
        ),
        (
            lambda cert: sample_hs_density(cert.omega.structure, 0, trial=-1),
            "trial must be at least 0, got -1",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, 2, 0, trial=1.5),
            "trial must be an integer",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, 2, 0, trial=-1),
            "trial must be at least 0, got -1",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, 2.5, 0),
            "mixture_terms must be an integer",
        ),
        (
            lambda cert: sample_random_product_separable(cert.omega.structure, -3, 0),
            "mixture_terms must be at least 1",
        ),
    ],
)
def test_configs_and_counts_are_checked_on_entry(tiles_cert, call, message):
    with pytest.raises(ValueError, match=message):
        call(tiles_cert)


def test_hs_samples_have_expected_purity_band():
    structure = HilbertStructure((2, 2))
    values = [purity(sample_hs_density(structure, 321, trial=t)) for t in range(10_000)]
    mean = float(np.mean(values))
    assert 0.3 < mean < 0.6


def test_product_sampler_is_separable():
    structure = HilbertStructure((3, 3))
    single = sample_random_product_separable(structure, 1, 77, trial=0)
    assert abs(purity(single) - 1.0) < 1e-12
    for t in range(50):
        rho = sample_random_product_separable(structure, 5, 77, trial=t)
        assert is_ppt(rho)


def _product_mixture_per_vector(local_dims, terms, gen):
    """Reference draw: each local vector from its own uniforms of ``gen``, kron per term.

    The stream holds ``terms`` weight uniforms, then the radius uniforms of
    every local vector, term after term and party after party, then their
    angle uniforms in the same order.
    """
    e = -np.log1p(-np.array([gen.random() for _ in range(terms)]))
    weights = e / e.sum()
    n = terms * sum(local_dims)
    u = np.array([gen.random() for _ in range(2 * n)])
    d = int(np.prod(local_dims))
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for w in weights:
        locals_ = []
        for dim in local_dims:
            radius = np.sqrt(-2.0 * np.log1p(-u[start : start + dim]))
            v = radius * np.exp(2j * np.pi * u[n + start : n + start + dim])
            start += dim
            locals_.append(v / np.linalg.norm(v))
        full = reduce(np.kron, locals_)
        m += w * np.outer(full, full.conj())
    return m


@pytest.mark.parametrize("dims", [(3,), (3, 3), (2, 4), (2, 2, 2)])
def test_batched_product_draw_is_bitwise_the_per_vector_draw(dims):
    for trial in range(200):
        key = f"0:0:2:{trial}"
        batched = _product_mixture(dims, MIXTURE_TERMS, random.Random(key))
        reference = _product_mixture_per_vector(dims, MIXTURE_TERMS, random.Random(key))
        assert np.array_equal(batched, reference), (dims, trial)


@pytest.mark.parametrize("d", [3, 4])
def test_hs_purity_has_the_hilbert_schmidt_mean(d):
    # Under the Hilbert-Schmidt measure E[Tr rho^2] = 2d / (d^2 + 1)
    # (Zyczkowski-Sommers, quant-ph/0012101).
    values = [
        purity(sample_hs_density(HilbertStructure((d,)), 2024, trial=t, stream_id=d))
        for t in range(4000)
    ]
    sigma = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(np.mean(values) - 2 * d / (d * d + 1)) < 4 * sigma


@pytest.mark.parametrize("terms", [1, 2, MIXTURE_TERMS, 7])
def test_dirichlet_weights_sum_to_one_with_mean_one_over_terms(terms):
    n = 4000
    weights = np.array([_dirichlet(random.Random(f"5:0:2:{t}"), terms) for t in range(n)])
    assert np.all(weights > 0)
    assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # Each weight is Beta(1, terms - 1): variance (terms - 1) / (terms^2 (terms + 1)).
    sigma = np.sqrt((terms - 1) / (terms**2 * (terms + 1)) / n)
    assert np.all(np.abs(weights.mean(axis=0) - 1 / terms) <= 4 * sigma)


def test_product_sampler_rejects_zero_terms():
    with pytest.raises(ValueError):
        sample_random_product_separable(HilbertStructure((2, 2)), 0, 1)


def test_ball_verification_clean_run(tiles_cert):
    out = verify_ball_robustness(tiles_cert, 3, 60, 42)
    assert out.ok
    assert out.trials == 3 * 60
    assert out.worst_margin > 0
    assert out.seeds_of_failures == ()
    data = out.to_json_dict()
    assert data["config"]["master_seed"] == 42
    assert list(data["config"]) == [
        "upb", "master_seed", "stream_id", "trials_per_point", "x_grid", "y_fraction", "psd_tol"
    ]
    # The suite probes each ball at 99 % of its proven radius, and says so.
    assert data["config"]["y_fraction"] == PROBE_FRACTION == 0.99
    assert data["suite"] == "ball"


def test_ball_verification_validates_inputs(tiles_cert):
    with pytest.raises(ValueError, match="trial"):
        verify_ball_robustness(tiles_cert, 1, 0, 1)
    with pytest.raises(ValueError, match="grid size must be at least 1"):
        verify_ball_robustness(tiles_cert, -1, 5, 1)


def test_separable_mixing_clean_run(tiles_cert):
    out = verify_separable_mixing(tiles_cert, 200, 42)
    assert out.ok
    assert out.worst_margin > 0
    assert list(out.config) == [
        "upb", "master_seed", "stream_id", "trials", "z_fraction", "mixture_terms", "psd_tol"
    ]
    assert out.config["z_fraction"] == PROBE_FRACTION


def test_separable_mixing_reports_witness_margin(tiles_cert):
    # The PPT margin is PSD_TOL plus a PT eigenvalue of rounding size; the
    # witness margin is the one that says how far the suite is from failing.
    out = verify_separable_mixing(tiles_cert, 50, 1)
    assert out.ppt_margin < 2e-9
    assert out.witness_margin > 1e-4
    assert out.worst_margin == out.ppt_margin
    assert out.witness_margin_key[:3] == (1, 2, 2)
    data = out.to_json_dict()
    assert "worst_margin" not in data
    assert data["witness_margin"] == out.witness_margin
    assert data["witness_margin_key"] == out.witness_margin_key


@pytest.mark.parametrize("cert_name", ["tiles_cert", "pyramid_cert", "shifts_cert"])
def test_mixing_ppt_margin_is_zero_where_the_kernels_meet(request, cert_name):
    # The PT kernels of omega (dimension n) and sigma (at least
    # D - MIXTURE_TERMS) meet when n > MIXTURE_TERMS: see the docstring.
    cert = request.getfixturevalue(cert_name)
    out = verify_separable_mixing(cert, 200, 0)
    if cert.upb.cardinality > MIXTURE_TERMS:
        assert abs(out.ppt_margin - PSD_TOL) <= 1e-14
    else:
        assert out.ppt_margin - PSD_TOL > 0


def test_separable_mixing_validates_inputs(tiles_cert):
    with pytest.raises(ValueError, match="trial"):
        verify_separable_mixing(tiles_cert, 0, 1)


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
    trials = 20
    # Substream keys are (master seed, stream, tag, trial); tag 1 draws
    # Hilbert-Schmidt states, tag 2 product mixtures.  The ball suite owns
    # stream 1 and the mixing suite stream 2.
    ball_states = []
    for xi, x in enumerate(cert.x_grid(2)):
        y = PROBE_FRACTION * cert.radius(x)
        for t in range(xi * trials, (xi + 1) * trials):
            sigma = sample_hs_density(structure, 5, trial=t, stream_id=1)
            ball_states.append(((5, 1, 1, t), mixture_tau(cert, sigma, x, y)[0]))
    ball = verify_ball_robustness(cert, 2, trials, 5)
    assert ball.trials == len(ball_states)
    assert _outcome_fields(ball) == _score_states(cert.witness, ball_states)

    z = PROBE_FRACTION * cert.lam
    mixing_states = []
    for t in range(trials):
        sigma = sample_random_product_separable(structure, MIXTURE_TERMS, 5, trial=t, stream_id=2)
        m = z * sigma.matrix + (1.0 - z) * cert.omega.matrix
        mixing_states.append(((5, 2, 2, t), DensityMatrix(m, structure)))
    mixing = verify_separable_mixing(cert, trials, 5)
    assert mixing.trials == trials
    assert _outcome_fields(mixing) == _score_states(cert.witness, mixing_states)

    # The maximal-direction grid keys the mixture at z_grid[i] by (i,).
    x = (cert.x_star + 1.0) / 2
    zs = list(np.linspace(0.0, 0.9, 10)) + [0.99, 0.999]
    lam = request.getfixturevalue(cert_name.replace("cert", "lambda"))
    sigma_dir = minimizer_direction(lam.minimizers)
    rho_x = cert.member(x).matrix
    direction_states = [
        ((i,), DensityMatrix(z * sigma_dir.matrix + (1.0 - z) * rho_x, structure))
        for i, z in enumerate(zs)
    ]
    direction = verify_maximal_robustness(cert, sigma_dir, x, zs)
    assert direction.trials == len(zs)
    assert _outcome_fields(direction) == _score_states(cert.witness, direction_states)


@pytest.mark.parametrize("cert_name", ["tiles_cert", "shifts_cert"])
def test_suites_diagonalize_each_trial_once_per_cut(request, monkeypatch, cert_name):
    # One eigvalsh per cut per trial, plus one per x point for the validated
    # family member; the sampled states themselves are not re-validated, so
    # no HermitianOperator check runs per trial either.
    cert = request.getfixturevalue(cert_name)
    cuts = len(all_bipartitions(cert.upb.structure))
    k, trials = 3, 7
    x = (cert.x_star + 1.0) / 2
    center = cert.member(x)
    calls = validations = 0
    eigvalsh = np.linalg.eigvalsh
    post_init = HermitianOperator.__post_init__

    def counting(a, *args, **kwargs):
        nonlocal calls
        calls += 1
        return eigvalsh(a, *args, **kwargs)

    def counting_post_init(self):
        nonlocal validations
        validations += 1
        post_init(self)

    def counted(run, n):
        nonlocal calls, validations
        calls = validations = 0
        run(n)
        return calls, validations

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(HermitianOperator, "__post_init__", counting_post_init)
    suites = [
        (lambda n: verify_ball_robustness(cert, k, n, 3), lambda n: k * n * cuts + k),
        (lambda n: verify_separable_mixing(cert, n, 3), lambda n: n * cuts),
        (lambda n: ball_fraction_estimate(center, cert.radius(x), n, 3), lambda n: n),
    ]
    for run, eigvalsh_calls in suites:
        (calls_one, checks_one), (calls_many, checks_many) = counted(run, 1), counted(run, trials)
        assert (calls_one, calls_many) == (eigvalsh_calls(1), eigvalsh_calls(trials))
        assert checks_one == checks_many


def test_mixing_respects_minimizer_direction(tiles, tiles_lambda, tiles_witness, tiles_omega):
    sigma = tiles_lambda.minimizers[0].to_density(tiles.structure)
    for z in (0.1, 0.5, 0.9, 0.999):
        m = z * sigma.matrix + (1 - z) * tiles_omega.matrix
        state = DensityMatrix(m, tiles.structure)
        assert witness_value(tiles_witness, state) < 0
        assert is_ppt(state)


def test_ball_fraction_extremes(tiles_cert):
    center = tiles_cert.member(0.9)
    assert ball_fraction_estimate(center, 1.0, 40, 3).fraction == 1.0
    assert ball_fraction_estimate(center, 0.0, 40, 3).fraction == 0.0


def test_ball_fraction_reports_interval(tiles_cert):
    x = (tiles_cert.x_star + 1) / 2
    center = tiles_cert.member(x)
    radius = tiles_cert.radius(x)
    est = ball_fraction_estimate(center, radius, 200, 9)
    assert 0.0 <= est.ci_low <= est.fraction <= est.ci_high <= 1.0
    # The membership estimate owns stream 3.
    hits = sum(
        ball_membership(sample_hs_density(center.structure, 9, trial=t, stream_id=3), center)
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


_PPTBALL_MODULES = (
    "print(','.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'pptball')))"
)


def test_package_import_loads_no_submodule():
    assert _probe(f"import sys, pptball; {_PPTBALL_MODULES}") == ["pptball"]


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = (
        "import sys, pptball.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')], "
        f"'pptball.gridsearch' in sys.modules); {_PPTBALL_MODULES}"
    )
    words = _probe(probe)
    assert words[:2] == ["[]", "False"]
    # The parser and the catalog only: each command imports what it runs.
    assert words[2:] == ["pptball,pptball.cli,pptball.operators,pptball.upb"]


def test_no_pptball_code_loads_scipy():
    probe = """
import sys
import pptball.witness
from pptball import build_shifts, certify, minimum_overlap, robustness_profile
pptball.witness.SEESAW_RESTARTS = 20
shifts = build_shifts()
robustness_profile(certify(shifts, minimum_overlap(shifts).value), grid_size=3)
print("scipy" in sys.modules)
"""
    assert _probe(probe) == ["False"]


# The pptball modules each command leaves unloaded: lambda certifies without
# the robustness and sampling code, the other certificate commands never run
# the proof, and upb-list and export read only the catalog.
UNUSED_MODULES = {
    "upb-list": ("witness", "proof", "robustness", "montecarlo"),
    "lambda": ("robustness", "montecarlo"),
    "profile": ("proof",),
    "verify": ("proof",),
    "membership": ("proof",),
    "export": ("witness", "proof", "robustness", "montecarlo"),
}
SEESAW_FLAGS = ["--upb", "shifts"]


@pytest.mark.parametrize(
    "command",
    [
        ["lambda", *SEESAW_FLAGS],
        ["profile", *SEESAW_FLAGS],
        ["verify", "--trials", "5", "--grid", "2", *SEESAW_FLAGS],
        ["membership", "--trials", "5", *SEESAW_FLAGS],
        ["upb-list"],
        ["export", "--upb", "shifts"],
    ],
    ids=lambda command: command[0],
)
def test_command_loads_only_its_modules(command):
    unused = tuple(f"pptball.{m}" for m in UNUSED_MODULES[command[0]])
    # A certificate command runs 20 seesaw restarts; upb-list and export must
    # not import the witness module at all, so they leave the counts alone.
    shorten = "" if "pptball.witness" in unused else (
        "import pptball.witness; pptball.witness.SEESAW_RESTARTS = 20"
    )
    probe = f"""
import os, sys, tempfile
{shorten}
from pptball.cli import main
out = os.path.join(tempfile.mkdtemp(), "report.json")
code = main({command!r} + ["--output", out])
unwanted = ("scipy", "numpy.random", "csv", "pptball.gridsearch") + {unused!r}
print(code, [m for m in sys.modules if m in unwanted or m.startswith("scipy.")])
"""
    assert _probe(probe) == ["0", "[]"]
