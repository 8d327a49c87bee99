import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pptball
from pptball import cli, witness
from pptball.cli import _config, _flatten, build_parser, main
from pptball.montecarlo import PROBE_FRACTION
from pptball.proof import PROOF_GAP

CERTIFICATE_COMMANDS = ["lambda", "profile", "verify", "membership"]


def run(tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code = main([*argv, "--output", str(path)])
    return code, path


def short_seesaw(monkeypatch, restarts, max_iters=witness.SEESAW_MAX_ITERS):
    """Run the CLI's seesaw with fewer restarts or sweeps than its fixed counts."""
    monkeypatch.setattr("pptball.witness.SEESAW_RESTARTS", restarts)
    monkeypatch.setattr("pptball.witness.SEESAW_MAX_ITERS", max_iters)


def test_upb_list(tmp_path):
    code, path = run(tmp_path, "upb-list")
    assert code == 0
    report = json.loads(path.read_text())
    names = {entry["name"] for entry in report["sets"]}
    assert {"tiles", "pyramid", "shifts", "complete-2x2"} <= names


def test_warm_main_leaves_little_cyclic_garbage(tmp_path):
    # A parser built per call would leave about 400 objects in reference
    # cycles, so the peak memory of a caller looping over main would wait on
    # the collector.
    run(tmp_path, "upb-list")
    gc.collect()
    gc.disable()
    try:
        run(tmp_path, "upb-list")
        assert gc.collect() < 100
    finally:
        gc.enable()


def test_parser_is_built_on_first_use_only(tmp_path):
    # Importing the CLI builds no parser; every later main call reuses the first.
    probe = f"""
import pptball.cli as cli
print(cli.build_parser.cache_info().currsize)
for _ in range(3):
    cli.main(["upb-list", "--output", {str(tmp_path / "out.json")!r}])
print(cli.build_parser.cache_info().misses, cli.build_parser() is cli.build_parser())
"""
    src = str(Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["0", "1", "True"]


def test_lambda_complete_basis(tmp_path):
    code, path = run(tmp_path, "lambda", "--upb", "complete-2x2", "--seed", "3")
    assert code == 0
    report = json.loads(path.read_text())
    assert abs(report["lambda"] - 1.0) < 1e-12
    assert report["converged"] is True
    assert report["agreement"] < 1e-10
    assert report["lambda_lower"] <= report["lambda"]
    assert report["proof_cells"] == 0
    assert "grid_oracle_value" not in report


def test_lambda_tiles_dual_method(tmp_path):
    code, path = run(tmp_path, "lambda", "--upb", "tiles", "--seed", "7")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["agreement"] < 1e-6
    assert len(report["minimizer_vectors"]) == 2
    assert report["lambda_lower"] <= report["lambda"]
    assert report["agreement"] == report["lambda"] - report["lambda_lower"]
    assert report["proof_cells"] > 0


def test_lambda_shifts_multipartite(tmp_path):
    code, path = run(tmp_path, "lambda", "--upb", "shifts", "--seed", "1")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["lambda"] > 0
    assert len(report["minimizer_vectors"]) == 3
    assert report["agreement"] < 1e-5
    assert report["lambda_lower"] <= report["lambda"]
    assert report["proof_cells"] > 0


def test_lambda_non_convergence_exit(tmp_path, monkeypatch):
    short_seesaw(monkeypatch, 2, 1)
    code, path = run(tmp_path, "lambda", "--upb", "tiles")
    assert code == 3
    report = json.loads(path.read_text())
    assert report["converged"] is False
    # The proof's cell centres find what the two short restarts missed.
    assert report["lambda_lower"] <= report["lambda"]
    assert report["proof_cells"] > 0


def test_lambda_reports_the_proofs_incumbent(tmp_path, monkeypatch, tiles_lambda):
    # Two one-sweep restarts stop well above the minimum; the proof's cell
    # centres find it, and lambda and agreement are read from that value.
    short_seesaw(monkeypatch, 2, 1)
    code, path = run(tmp_path, "lambda", "--upb", "tiles")
    assert code == 3
    report = json.loads(path.read_text())
    assert abs(report["lambda"] - tiles_lambda.value) < 1e-8
    assert report["agreement"] == report["lambda"] - report["lambda_lower"]
    assert report["agreement"] <= 2 * PROOF_GAP


def test_lambda_proof_out_of_cells_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pptball.proof.PROOF_MAX_CELLS", 10)
    short_seesaw(monkeypatch, 5)
    code, path = run(tmp_path, "lambda", "--upb", "tiles")
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "PROOF_MAX_CELLS" in err
    assert not path.exists()


def test_unknown_upb_is_usage_error(tmp_path, capsys):
    code = main(["lambda", "--upb", "not-a-set"])
    assert code == 2
    assert "unknown product-basis set" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify", "--trials"),
        ("verify", "--grid"),
        ("lambda", "--seed"),
    ],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command, flag):
    floor = 0 if flag == "--seed" else 1
    path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--upb", "tiles", flag, str(floor - 1), "--output", str(path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {floor}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize(
    "flag", ["--restarts", "--max-iters", "--y-fraction", "--z-fraction", "--x"]
)
@pytest.mark.parametrize("command", CERTIFICATE_COMMANDS)
def test_seesaw_counts_are_not_flags(tmp_path, capsys, monkeypatch, command, flag):
    # The seesaw's counts are constants, and so are the points where verify
    # and membership probe the proven bounds (PROBE_FRACTION of each bound,
    # the midpoint x); any of them given on the command line is an unknown
    # argument, whatever its value, and nothing runs.
    def must_not_run(*args, **kwargs):
        raise AssertionError("the seesaw ran despite an unknown flag")

    monkeypatch.setattr("pptball.witness.minimum_overlap", must_not_run)
    path = tmp_path / "out.json"
    for value in ("0", "20"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--upb", "tiles", flag, value, "--output", str(path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("command", CERTIFICATE_COMMANDS)
def test_benchmark_flags_parse(tmp_path, command):
    # The benchmark passes --upb, --seed and --output to every certificate
    # command and reads config.seed back; parsing alone runs no seesaw.
    path = str(tmp_path / "out.json")
    argv = [command, "--upb", "tiles", "--seed", "3", "--output", path]
    args = build_parser().parse_args(argv)
    assert args.output == path
    assert list(_config(args).items())[:2] == [("upb", "tiles"), ("seed", 3)]


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    code = main(["upb-list", "--output", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_unwritable_output_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the report was computed before the output path was checked")

    monkeypatch.setattr("pptball.witness.minimum_overlap", must_not_run)
    path = tmp_path / "missing" / "x.json"
    code = main(["verify", "--upb", "tiles", "--output", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.parent.exists()


def test_profile_report(tmp_path):
    code, path = run(tmp_path, "profile", "--upb", "tiles", "--grid", "8", "--seed", "1")
    assert code == 0
    report = json.loads(path.read_text())
    assert report["x_star"] == pytest.approx(1 - report["lambda"] * 9 / 5, abs=1e-12)
    assert report["mixing_threshold"] == pytest.approx(report["lambda"], abs=1e-12)
    assert len(report["radius_samples"]) == 8
    assert "x0_printed_eq32" in report
    assert "x0_note" in report
    radii = [row["y0_tight"] for row in report["radius_samples"]]
    assert all(r > 0 for r in radii)
    peak = radii.index(max(radii))
    assert all(radii[i] <= radii[i + 1] + 1e-15 for i in range(peak))
    assert all(radii[i] >= radii[i + 1] - 1e-15 for i in range(peak, len(radii) - 1))


def test_verify_reports_zero_violations(tmp_path):
    code, path = run(
        tmp_path,
        "verify", "--upb", "tiles", "--trials", "80", "--grid", "4", "--seed", "42",
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["violations_total"] == 0
    assert report["suites"]["ball"]["ppt_violations"] == 0
    assert report["suites"]["separable-mixing"]["witness_violations"] == 0
    for suite in report["suites"].values():
        assert suite["ppt_margin"] > 0 and suite["witness_margin"] > 0
        assert suite["witness_margin_key"][:2] == [42, suite["config"]["stream_id"]]
    # Each suite draws from its own stream under the one --seed, and echoes
    # the fraction of its bound that it probes.
    assert report["suites"]["ball"]["config"]["stream_id"] == 1
    assert report["suites"]["separable-mixing"]["config"]["stream_id"] == 2
    assert report["suites"]["ball"]["config"]["y_fraction"] == PROBE_FRACTION
    assert report["suites"]["separable-mixing"]["config"]["z_fraction"] == PROBE_FRACTION


def test_verify_shifts_covers_all_cuts(tmp_path):
    code, path = run(
        tmp_path,
        "verify", "--upb", "shifts", "--trials", "40", "--grid", "3", "--seed", "5",
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert report["violations_total"] == 0


def test_repeated_runs_are_byte_identical(tmp_path):
    _, first = run(tmp_path, "lambda", "--upb", "complete-2x2", "--seed", "3", name="a.json")
    _, second = run(tmp_path, "lambda", "--upb", "complete-2x2", "--seed", "3", name="b.json")
    assert first.read_bytes() == second.read_bytes()


def test_membership_report(tmp_path):
    code, path = run(
        tmp_path, "membership", "--upb", "tiles", "--trials", "60", "--seed", "11"
    )
    assert code == 0
    report = json.loads(path.read_text())
    assert 0.0 <= report["ci_low"] <= report["fraction"] <= report["ci_high"] <= 1.0
    assert report["radius"] > 0
    assert report["x"] == 0.5 * (report["x_star"] + 1.0)


def test_contract_failure_exits_4(tmp_path, capsys, monkeypatch):
    def broken(upb, lam):
        raise RuntimeError("threshold identity violated")

    monkeypatch.setattr("pptball.robustness.certify", broken)
    short_seesaw(monkeypatch, 20)
    code, path = run(tmp_path, "profile", "--upb", "tiles")
    assert code == 4
    err = capsys.readouterr().err
    assert err == "internal error: threshold identity violated\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, counts, status, keys, config",
    [
        (["upb-list"], (20,), 0, ["sets"], None),
        (
            ["lambda", "--upb", "shifts"],
            (2, 1),
            3,
            ["config", "lambda", "converged", "minimizer_vectors",
             "distinct_minimizers", "lambda_lower", "proof_cells", "agreement"],
            ["upb", "seed"],
        ),
        (
            ["profile", "--upb", "shifts", "--grid", "3"],
            (20,),
            0,
            ["config", "lambda", "lambda_omega", "x_star", "x0_root",
             "x0_printed_eq32", "radius_samples", "mixing_threshold", "x0_note"],
            ["upb", "seed", "grid"],
        ),
        (
            ["verify", "--upb", "shifts", "--trials", "10", "--grid", "2"],
            (20,),
            0,
            ["config", "lambda", "suites", "violations_total"],
            ["upb", "seed", "trials", "grid"],
        ),
        (
            ["membership", "--upb", "shifts", "--trials", "10"],
            (20,),
            0,
            ["config", "x", "x_star", "radius", "fraction", "ci_low", "ci_high", "hits",
             "note"],
            ["upb", "seed", "trials"],
        ),
    ],
    ids=["upb-list", "lambda-not-converged", "profile", "verify", "membership"],
)
def test_reports_start_with_the_header(tmp_path, monkeypatch, argv, counts, status, keys, config):
    # main stamps the tool and command on every report but export's, and
    # writes the report whatever the exit status (here 3 for lambda).  The
    # config echoes exactly the flags the command has.
    short_seesaw(monkeypatch, *counts)
    code, path = run(tmp_path, *argv)
    assert code == status
    report = json.loads(path.read_text())
    assert list(report) == ["tool", "command", *keys]
    assert config is None or list(report["config"]) == config
    assert report["tool"] == {"name": "pptball", "version": pptball.__version__}
    assert report["command"] == argv[0]


def test_export_schema(tmp_path):
    code, path = run(tmp_path, "export", "--upb", "pyramid")
    assert code == 0
    report = json.loads(path.read_text())
    assert list(report) == ["name", "local_dims", "members"]
    assert report["local_dims"] == [3, 3]
    assert len(report["members"]) == 5
    assert all(len(member) == 2 for member in report["members"])
    vec = report["members"][0][0]
    assert all(len(pair) == 2 for pair in vec)


def test_csv_and_json_carry_identical_content(tmp_path):
    _, jpath = run(tmp_path, "profile", "--upb", "tiles", "--grid", "5", name="p.json")
    code = main(
        ["profile", "--upb", "tiles", "--grid", "5", "--format", "csv",
         "--output", str(tmp_path / "p.csv")]
    )
    assert code == 0
    report = json.loads(jpath.read_text())
    expected = dict(_flatten(report))
    with open(tmp_path / "p.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    got = {key: value for key, value in rows[1:]}
    assert got == expected
