import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pptball import cli
from pptball.cli import _flatten, main
from pptball.proof import PROOF_GAP


def run(tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code = main([*argv, "--output", str(path)])
    return code, path


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


def test_lambda_non_convergence_exit(tmp_path):
    code, path = run(
        tmp_path, "lambda", "--upb", "tiles", "--restarts", "2", "--max-iters", "1"
    )
    assert code == 3
    report = json.loads(path.read_text())
    assert report["converged"] is False
    # The proof's cell centres find what the two short restarts missed.
    assert report["lambda_lower"] <= report["lambda"]
    assert report["proof_cells"] > 0


def test_lambda_reports_the_proofs_incumbent(tmp_path, tiles_lambda):
    # Two one-sweep restarts stop well above the minimum; the proof's cell
    # centres find it, and lambda and agreement are read from that value.
    code, path = run(
        tmp_path, "lambda", "--upb", "tiles", "--restarts", "2", "--max-iters", "1"
    )
    assert code == 3
    report = json.loads(path.read_text())
    assert abs(report["lambda"] - tiles_lambda.value) < 1e-8
    assert report["agreement"] == report["lambda"] - report["lambda_lower"]
    assert report["agreement"] <= 2 * PROOF_GAP


def test_lambda_proof_out_of_cells_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pptball.proof.PROOF_MAX_CELLS", 10)
    code, path = run(tmp_path, "lambda", "--upb", "tiles", "--restarts", "5")
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
        ("lambda", "--restarts"),
        ("lambda", "--max-iters"),
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


@pytest.mark.parametrize("value", ["0", "1", "1.5", "nan"])
@pytest.mark.parametrize(
    "command, flag",
    [("verify", "--y-fraction"), ("verify", "--z-fraction"), ("membership", "--x")],
)
def test_fractions_outside_open_unit_interval_fail_before_any_work(
    capsys, monkeypatch, command, flag, value
):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the seesaw ran before the flag was checked")

    monkeypatch.setattr("pptball.witness.minimum_overlap", must_not_run)
    with pytest.raises(SystemExit) as exc:
        main([command, "--upb", "tiles", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_membership_x_below_threshold_is_usage_error(tmp_path, capsys):
    # 0.05 passes the (0, 1) flag check but lies below x* ~ 0.9489 on tiles.
    code, path = run(tmp_path, "membership", "--upb", "tiles", "--x", "0.05")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: x must lie strictly between x* = 0.9488") and err.count("\n") == 1
    assert err.endswith(" and 1, got 0.05\n")
    assert not path.exists()


def test_membership_center_below_rank_tolerance_is_usage_error(tmp_path, capsys):
    # x = 0.999999999999 lies in (x*, 1), but the center's smallest
    # eigenvalue (1 - x)/D ~ 1.25e-13 is below RANK_TOL.
    code, path = run(tmp_path, "membership", "--upb", "shifts", "--x", "0.999999999999")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: center must have full rank") and err.count("\n") == 1
    assert err.endswith("smallest eigenvalue 1.250e-13 < RANK_TOL = 1e-12\n")
    assert not path.exists()


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
    # Each suite draws from its own stream under the one --seed.
    assert report["suites"]["ball"]["config"]["stream_id"] == 1
    assert report["suites"]["separable-mixing"]["config"]["stream_id"] == 2


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
    assert report["config"]["restarts"] == 200
    assert report["config"]["max_iters"] == 500


def test_contract_failure_exits_4(tmp_path, capsys, monkeypatch):
    def broken(upb, lam):
        raise RuntimeError("threshold identity violated")

    monkeypatch.setattr("pptball.robustness.certify", broken)
    code, path = run(tmp_path, "profile", "--upb", "tiles", "--restarts", "20")
    assert code == 4
    err = capsys.readouterr().err
    assert err == "internal error: threshold identity violated\n"
    assert not path.exists()


def test_export_schema(tmp_path):
    code, path = run(tmp_path, "export", "--upb", "pyramid")
    assert code == 0
    report = json.loads(path.read_text())
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
