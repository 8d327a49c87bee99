"""pptball benchmark: end-to-end and per-layer metrics of the CLI commands.

    python3 perfbench/run.py --workload {certify,verify,explore} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a pptball checkout: pptball is imported from ./src,
so nothing is built.  Without ./src/pptball it exits with status 1 and prints
no result.

One process runs one workload as a closed loop: one client, no worker
threads, and one BLAS/OpenMP thread (pinned below before numpy loads).
Operation i calls ``pptball.cli.main`` in-process once per (set, command) of
the workload with ``--seed <seed + i>``, writes each report to a temporary
file and checks it.  Operation 0 is an untimed warm-up; operations 1, 2, ...
run until ``--seconds`` have passed.  Afterwards operation 1 is run again and
its report bytes must not change.

``--trace 0`` reports the end-to-end metrics.  Operations run until their
own time adds up to ``--seconds``.  Set-up time is measured in fresh child
processes (import pptball.cli and build the workload's sets), SETUP_REPEATS
times spread evenly between the timed operations, and its median reported.
``--trace 1`` alternates an untraced and a traced run of each operation
(spans.py) and reports per-layer metrics, the tracing overhead and the kernel
reference rows (kernels.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; its metrics are the ones
BENCHMARK.json lists for the mode.  The lines before it are a table of every
metric.  Only the table has the latency median and tail (with the tail's
percentile and sample count), operations and trials per second (trials are 0
on certify), the failed-operation ratio (also given by ``attempted`` and
``failed``) and per-layer times of layers the workload never enters (undefined
there, shown as n/a).  BENCHMARK.json lists no wall-clock rate or latency:
on a shared 2-vCPU VM, ten 20 s runs of one workload spread (IQR/median) by
0.08 to 0.26 in them, above a third of the largest regression bound a listed
metric may have.  A listed metric that was not measured (a layer or hook gone
from pptball) ends the run with an error instead of a result.

Each run also writes perfbench/results/<workload>-trace<t>.json, and
perfbench/results/history.json keeps report digests and exact counts by seed.
Reports or counts that differ from an earlier run on the same seed are shown
as cli.reports_changed and trace.counts_changed in the table, with a warning.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SPEC = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    commands: tuple[str, ...]
    sets: tuple[str, ...]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "certify": Workload(("lambda",), ("tiles", "pyramid", "shifts")),
    "verify": Workload(("verify",), ("tiles", "shifts")),
    "explore": Workload(("profile", "membership"), ("tiles", "shifts")),
}
ALL_SETS = ("tiles", "pyramid", "shifts")

# Minimum product overlap of each set (seesaw and grid oracle agree to 5e-15),
# and the gate's tolerance on lambda and on the dual-method agreement.
LAMBDA_REF = {"tiles": 0.028416213335730, "pyramid": 0.037911814084778,
              "shifts": 0.081441346456309}
LAMBDA_TOL = {"tiles": 1e-6, "pyramid": 1e-6, "shifts": 1e-5}

SETUP_REPEATS = 13
TAIL_BEYOND = 10
# The child prints when it is ready; perf_counter is CLOCK_MONOTONIC on Linux,
# one clock for parent and child, so the parent can subtract its spawn time.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import pptball.cli
from pptball.upb import get_upb
for name in sys.argv[2:]:
    get_upb(name)
print(repr(time.perf_counter()))
"""


@dataclass
class Op:
    """One operation: its seed, latency, report digests, trials and problems."""

    index: int
    seed: int
    latency: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    trials: dict[tuple[str, str], int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def check_report(command: str, upb: str, seed: int, data: bytes):
    """Problems found in one report, and the trials it ran per suite."""
    try:
        report = json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"], {}
    problems, trials = [], {}
    tol = LAMBDA_TOL[upb]
    try:
        if report["command"] != command or report["config"]["seed"] != seed:
            problems.append("report does not echo its command and seed")
        if command in ("lambda", "profile", "verify"):
            lam = report["lambda"]
            if not abs(lam - LAMBDA_REF[upb]) <= tol:
                problems.append(f"lambda {lam!r} is off {LAMBDA_REF[upb]!r} by more than {tol}")
        if command == "lambda" and not report["agreement"] <= tol:
            problems.append(f"agreement {report['agreement']!r} exceeds {tol}")
        if command == "verify":
            if report["violations_total"] != 0:
                problems.append(f"violations_total is {report['violations_total']!r}")
            suites = report["suites"]
            trials = {"ball": suites["ball"]["trials"],
                      "mixing": suites["separable-mixing"]["trials"]}
        if command == "membership":
            bounds = (report["ci_low"], report["fraction"], report["ci_high"])
            if not 0.0 <= bounds[0] <= bounds[1] <= bounds[2] <= 1.0:
                problems.append(f"membership CI out of order: {bounds!r}")
            trials = {"membership": report["config"]["trials"]}
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks or mistypes {exc}")
    return problems, trials


class Runner:
    """Runs operations of one workload and keeps every one it attempted."""

    def __init__(self, cli, workload: Workload, seed: int, report: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.report = report
        self.ops: list[Op] = []

    def run(self, index: int, tracer=None) -> Op:
        op = Op(index, self.seed + index)
        for upb in self.workload.sets:
            for command in self.workload.commands:
                self._call(op, command, upb, tracer)
        self.ops.append(op)
        return op

    def _call(self, op: Op, command: str, upb: str, tracer) -> None:
        where = f"{command} --upb {upb} --seed {op.seed}"
        self.report.unlink(missing_ok=True)
        argv = [command, "--upb", upb, "--seed", str(op.seed), "--output", str(self.report)]
        if tracer is not None:
            tracer.begin_call(op.index, command, upb)
        start = time.perf_counter()
        try:
            status = self.cli.main(argv)
        except SystemExit as exc:
            status = f"SystemExit({exc.code!r})"
        except Exception as exc:  # the gate counts it; the loop goes on
            traceback.print_exc()
            status = f"uncaught {type(exc).__name__}"
        elapsed = time.perf_counter() - start
        op.latency += elapsed
        if tracer is not None:
            tracer.end_call(elapsed)
        if status != 0:
            op.problems.append(f"{where}: exit status {status!r}")
        if not self.report.is_file():
            op.problems.append(f"{where}: no report written")
            return
        data = self.report.read_bytes()
        op.digests[f"{command}|{upb}"] = hashlib.sha256(data).hexdigest()
        problems, trials = check_report(command, upb, op.seed, data)
        op.problems.extend(f"{where}: {p}" for p in problems)
        for suite, n in trials.items():
            op.trials[(suite, upb)] = n


def load_program():
    if not (SRC / "pptball" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'pptball'} not found; run from the root of a pptball checkout")
    sys.path.insert(0, str(SRC))
    import pptball.cli

    if Path(pptball.cli.__file__).resolve().parent != SRC / "pptball":
        sys.exit(f"error: imported pptball from {pptball.cli.__file__}, not from {SRC}")
    return pptball.cli


def measure_setup(sets) -> float:
    """Seconds from spawning a fresh interpreter until pptball and the sets are ready."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *sets],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def tail_latency(samples) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and its percentile.

    With TAIL_BEYOND samples or fewer no such statistic exists; the maximum
    (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    if len(xs) > TAIL_BEYOND:
        k = len(xs) - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / len(xs)
    return xs[-1], 100.0


def sum_trials(ops) -> dict[tuple[str, str], int]:
    total: dict[tuple[str, str], int] = {}
    for op in ops:
        for key, n in op.trials.items():
            total[key] = total.get(key, 0) + n
    return total


def untraced_run(runner: Runner, seconds: float) -> dict[str, float]:
    runner.run(0)
    timed: list[Op] = []
    setup: list[float] = []
    elapsed = 0.0
    while elapsed < seconds:
        timed.append(runner.run(len(timed) + 1))
        elapsed += timed[-1].latency
        # Spread the set-up samples over the run, so one slow spell of the host
        # skews few of them.
        while len(setup) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            setup.append(measure_setup(runner.workload.sets))
    rerun = runner.run(1)
    if rerun.digests != timed[0].digests:
        rerun.problems.append("rerun of operation 1 changed its report bytes")
    latencies = [op.latency for op in timed]
    tail, pct = tail_latency(latencies)
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "latency_tail_pct": pct,
        "latency_samples": len(latencies),
        "ops_per_s": len(timed) / elapsed,
        "trials_per_s": sum(sum_trials(timed).values()) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(runner: Runner, seconds: float, workload_name: str) -> dict[str, float | None]:
    import kernels
    import spans
    from pptball.upb import get_upb

    runner.run(0)
    out, agree = kernels.eigvalsh_rows(runner.seed)
    if not agree:
        runner.ops[0].problems.append("stacked and single eigvalsh disagree")
    for upb in ALL_SETS:
        pairs, flops, nbytes = kernels.grid_pair_work(get_upb(upb))
        out[f"kernel.grid_pairs_computed.{upb}"] = pairs
        out[f"kernel.grid_pair_flops_computed.{upb}"] = flops
        out[f"kernel.grid_pair_bytes_computed.{upb}"] = nbytes

    tracer = spans.Tracer()
    pairs: list[tuple[Op, Op]] = []

    def pair(i: int) -> None:
        # Alternate which side runs first so drift does not bias the overhead.
        ran = {}
        for traced in (i % 2 == 0, i % 2 == 1):
            if traced:
                with tracer.installed():
                    ran[True] = runner.run(i, tracer)
            else:
                ran[False] = runner.run(i)
        if ran[True].digests != ran[False].digests:
            ran[True].problems.append("tracing changed the report bytes")
        pairs.append((ran[False], ran[True]))

    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        pair(i)
        i += 1
    recheck = spans.Tracer()
    with recheck.installed():
        rerun = runner.run(1, recheck)
    first = pairs[0][1]
    if rerun.digests != first.digests:
        rerun.problems.append("rerun of operation 1 changed its report bytes")

    table = spans.SpanTable(tracer)
    silent = spans.silent_hooks(table)
    if silent:
        raise spans.HookError("; ".join(silent))
    counts = spans.exact_counts(table, 1, ALL_SETS, first.trials)
    recount = spans.exact_counts(spans.SpanTable(recheck), 1, ALL_SETS, rerun.trials)
    if counts != recount:
        rerun.problems.append("two traced runs of operation 1 gave different counts")
    out["trace.counts_changed"] = update_history(
        "counts", {f"{workload_name}|{first.seed}|{k}": v for k, v in counts.items()})
    ops = [traced.index for _, traced in pairs]
    out.update(counts)
    out.update(spans.module_shares(table, ops))
    out.update(spans.layer_times(table, ops, ALL_SETS, sum_trials(t for _, t in pairs)))
    # Each pair ran back to back on one seed, so its ratio cancels slow phases of the host.
    out["trace.overhead_ratio"] = statistics.median(t.latency / p.latency for p, t in pairs) - 1.0
    return out


def update_history(section: str, values: dict) -> int:
    """Count keys whose value differs from an earlier run's, then record these values."""
    path = RESULTS / "history.json"
    history = json.loads(path.read_text()) if path.is_file() else {}
    old = history.setdefault(section, {})
    changed = sum(1 for k, v in values.items() if k in old and old[k] != v)
    old.update(values)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, sort_keys=True))
    os.replace(tmp, path)
    return changed


def environment(why: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, no worker threads",
        "why": why,
    }


def unit_of(name: str) -> str:
    """Unit of a metric in the table, read off its name's suffix."""
    parts = name.split(".")
    stem = parts[1] if len(parts) > 1 else parts[0]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("per_s", "1/s"), ("_s", "s"),
                         ("_s_per_op", "s"), ("_mb", "MB"), ("_pct", "%"), ("share", "ratio"),
                         ("ratio", "ratio"), ("bytes_computed", "B"), ("flops_computed", "flop")):
        if stem.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    spec = json.loads(SPEC.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        runner = Runner(cli, workload, args.seed, Path(tmp) / "report.json")
        if args.trace:
            metrics = traced_run(runner, args.seconds, args.workload)
        else:
            metrics = untraced_run(runner, args.seconds)
    metrics["cli.reports_changed"] = update_history("digests", {
        f"{key}|{op.seed}": digest for op in runner.ops for key, digest in op.digests.items()})
    failed = sum(1 for op in runner.ops if op.problems)
    metrics["failed_op_ratio"] = failed / len(runner.ops)
    for op in runner.ops:
        for problem in op.problems:
            print(f"FAILED operation {op.index}: {problem}", file=sys.stderr)
    for name in ("cli.reports_changed", "trace.counts_changed"):
        if metrics.get(name):
            print(f"WARNING: {name} = {metrics[name]}: output differs from an earlier run "
                  f"on the same seed ({RESULTS / 'history.json'})", file=sys.stderr)
    unmeasured = [m["name"] for m in listed if metrics.get(m["name"]) is None]
    if unmeasured:
        sys.exit(f"error: listed metrics not measured: {', '.join(unmeasured)}")

    env = environment(why)
    print(f"# pptball benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        shown = "n/a (layer not entered)" if value is None else f"{value:.6g}"
        print(f"{name:<58} {shown:>14} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps({
        "args": vars(args), "environment": env, "result": result, "metrics": metrics,
        "operations": [{"index": op.index, "seed": op.seed, "latency_s": op.latency,
                        "reports_sha256": op.digests, "problems": op.problems}
                       for op in runner.ops],
    }, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
