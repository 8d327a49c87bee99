"""Command-line reports over the catalog, overlap certification, robustness
profiles, randomized verification, ball-membership estimates, and set export.

Every command is deterministic given its flags; reports echo the flags in
``config`` and stamp the tool version, and contain no timestamps, so repeated
runs with identical seeds are byte-identical.  ``verify`` probes each proven
bound at ``montecarlo.PROBE_FRACTION`` of it, which its suite configs echo;
``membership`` samples the ball at ``Certificate.x_grid(1)``, the midpoint
of (x*, 1), which its report gives as ``x``.  Every number those commands
derive from lambda is a rational function of (n, D, lambda), evaluated exactly
and rounded once, a bound outward: x* up, lambda_omega and each radius down.

Exit status: 0 success; 1 verification violations; 2 usage or validation
error, or a report that cannot be written; 3 minimizer non-convergence within
the seesaw's fixed counts; 4 a failed internal contract check, or a lambda
proof that ran out of cells.

Export schema (``export``):
    {"name": str,
     "local_dims": [int, ...],
     "members": [member, ...]}
where each member is a list with one vector per party and each vector is a
list of [re, im] pairs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .operators import _integer
from .upb import CATALOG, _pairs, get_upb

# Each handler imports the modules it runs and returns its report fields and
# exit status; ``main`` stamps the header and writes the report.  ``_emit``
# imports csv only for a csv report, so a command loads only its own code; the
# annotations naming those modules' types stay strings.

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONTRACT = 4

class _NoConvergence(Exception):
    """The overlap minimizer did not converge; ``main`` exits with status 3."""


def _flatten(obj, path=()):
    """One (key, text) row per report leaf, spelt as in JSON; an empty list or dict is a leaf."""
    if isinstance(obj, (list, tuple)) and obj:
        obj = dict(enumerate(obj))
    if not (isinstance(obj, dict) and obj):
        return [(".".join(path), obj if isinstance(obj, str) else json.dumps(obj, allow_nan=False))]
    return [row for k, v in obj.items() for row in _flatten(v, (*path, str(k)))]


def _emit(report: dict, fmt: str, path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(report):
            writer.writerow([key, value])
        text = buf.getvalue()
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _check_output(path: str) -> None:
    """Raise the OSError that writing to ``path`` would raise, before any work runs.

    Only the path and its parent are inspected; nothing is created.
    """
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _config(args, **extra) -> dict:
    """The echoed configuration: set, seed, then the command's own flags."""
    return {"upb": args.upb, "seed": args.seed, **extra}


def _overlap(args) -> tuple[UPBSet, LambdaResult]:
    """The chosen set and the seesaw's least product overlap from the echoed seed."""
    from .witness import minimum_overlap

    upb = get_upb(args.upb)
    return upb, minimum_overlap(upb, args.seed)


def _certificate(args) -> Certificate:
    from .robustness import certify

    upb, lam = _overlap(args)
    if not lam.converged:
        raise _NoConvergence("overlap minimizer did not converge")
    return certify(upb, lam.value)


def _cmd_upb_list(args) -> tuple[dict, int]:
    entries = []
    for name in sorted(CATALOG):
        upb = get_upb(name)
        entries.append(
            {
                "name": name,
                "local_dims": list(upb.structure.local_dims),
                "cardinality": upb.cardinality,
                "complement_rank": upb.total_dim - upb.cardinality,
            }
        )
    return {"sets": entries}, EXIT_OK


def _cmd_lambda(args) -> tuple[dict, int]:
    """The least product overlap found, an upper estimate, and the proven lower bound below it.

    ``lambda`` is the proof's ``upper``: the seesaw's value, or a proof cell
    centre's when that is lower.  ``minimizer_vectors`` and
    ``distinct_minimizers`` stay the seesaw's.  ``agreement`` is
    lambda - lambda_lower >= 0: the width of the interval that holds the
    true minimum product overlap.
    """
    from .proof import prove_product_minimum

    upb, lam = _overlap(args)
    proof = prove_product_minimum(upb.projector, upb.structure, lam.value)
    fields = {
        "config": _config(args),
        "lambda": proof.upper,
        "converged": lam.converged,
        "minimizer_vectors": [_pairs(vec) for vec in lam.minimizers[0].local_vectors],
        "distinct_minimizers": len(lam.minimizers),
        "lambda_lower": proof.lower,
        "proof_cells": proof.cells,
        "agreement": proof.upper - proof.lower,
    }
    return fields, EXIT_OK if lam.converged else EXIT_NO_CONVERGENCE


def _cmd_profile(args) -> tuple[dict, int]:
    from .robustness import robustness_profile

    profile = robustness_profile(_certificate(args), grid_size=args.grid)
    return {"config": _config(args, grid=args.grid), **profile}, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    from .montecarlo import verify_ball_robustness, verify_separable_mixing

    cert = _certificate(args)
    ball = verify_ball_robustness(cert, args.grid, args.trials, args.seed)
    mixing = verify_separable_mixing(cert, args.trials, args.seed)
    violations = sum(s.ppt_violations + s.witness_violations for s in (ball, mixing))
    fields = {
        "config": _config(args, trials=args.trials, grid=args.grid),
        "lambda": cert.lam,
        "suites": {"ball": ball.to_json_dict(), "separable-mixing": mixing.to_json_dict()},
        "violations_total": violations,
    }
    return fields, EXIT_OK if violations == 0 else EXIT_VIOLATION


def _cmd_membership(args) -> tuple[dict, int]:
    from .montecarlo import ball_fraction_estimate

    cert = _certificate(args)
    x = float(cert.x_grid(1)[0])
    radius = cert.radius(x)
    estimate = ball_fraction_estimate(cert.member(x), radius, args.trials, args.seed)
    fields = {
        "config": _config(args, trials=args.trials),
        "x": x,
        "x_star": cert.x_star,
        "radius": radius,
        "fraction": estimate.fraction,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "hits": estimate.hits,
        "note": (
            "certified balls are tiny in Hilbert-Schmidt measure at these "
            "dimensions; a ~0 fraction is the expected outcome"
        ),
    }
    return fields, EXIT_OK


def _cmd_export(args) -> tuple[dict, int]:
    return get_upb(args.upb).to_json_dict(), EXIT_OK


def _at_least(floor: int, what: str):
    """argparse type for an integer of at least ``floor``, checked as the library's ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text  # not an integer: _integer refuses it in its own words
        try:
            return _integer(value, what, floor)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


@functools.cache  # one parser per process, built on first use, not on import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pptball",
        description=(
            "Bound entangled states from unextendible product bases: witnesses, "
            "robustness balls, and randomized verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed, trials, grid = _at_least(0, "seed"), _at_least(1, "trials"), _at_least(1, "grid size")

    def add_common(p, upb=True):
        if upb:
            p.add_argument("--upb", required=True, help="catalog set name")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the report to a file")

    def add_seesaw(p):
        p.add_argument("--seed", type=seed, default=0)

    p_list = sub.add_parser("upb-list", help="list the catalog")
    add_common(p_list, upb=False)
    p_list.set_defaults(handler=_cmd_upb_list)

    p_lambda = sub.add_parser(
        "lambda",
        help="minimum product overlap: least value found (seesaw or proof) and proven lower bound",
    )
    add_common(p_lambda)
    add_seesaw(p_lambda)
    p_lambda.set_defaults(handler=_cmd_lambda)

    p_profile = sub.add_parser("profile", help="robustness profile")
    add_common(p_profile)
    add_seesaw(p_profile)
    p_profile.add_argument("--grid", type=grid, default=50, help="radius sample count")
    p_profile.set_defaults(handler=_cmd_profile)

    p_verify = sub.add_parser("verify", help="randomized ball and mixing suites")
    add_common(p_verify)
    add_seesaw(p_verify)
    p_verify.add_argument("--trials", type=trials, default=1000)
    p_verify.add_argument("--grid", type=grid, default=10, help="x grid size")
    p_verify.set_defaults(handler=_cmd_verify)

    p_member = sub.add_parser("membership", help="ball-fraction estimate")
    add_common(p_member)
    add_seesaw(p_member)
    p_member.add_argument("--trials", type=trials, default=1000)
    p_member.set_defaults(handler=_cmd_membership)

    p_export = sub.add_parser("export", help="export a catalog set as JSON")
    add_common(p_export)
    p_export.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        report, status = args.handler(args)
        if args.command != "export":  # the export schema has no header
            tool = {"name": "pptball", "version": __version__}
            report = {"tool": tool, "command": args.command, **report}
        _emit(report, args.format, args.output)
        return status
    except _NoConvergence as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
