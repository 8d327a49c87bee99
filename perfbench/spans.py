"""Spans and exact counts for a traced benchmark operation.

A ``Tracer`` wraps, for the duration of ``Tracer.installed()`` only, every
public function of every pptball module in every pptball namespace that
refers to it, plus the validators of ``HermitianOperator`` and
``DensityMatrix``.  Each call records a span: name, start, end and parent;
the root span of each ``pptball.cli.main`` call carries the operation id and
the (command, set) it ran.  Spans stay in memory (flat arrays) until the run
ends.  Three foreign or private functions are wrapped to count work, not to
time it: ``numpy.linalg.eigh``/``eigvalsh``, the seesaw restart
``pptball.witness._seesaw_once`` and ``scipy.optimize.minimize``.  A hook
whose target no longer exists raises ``HookError`` when it is installed, and
``silent_hooks`` names a counting hook that never fired under a span where it
must, so a renamed target fails the run instead of reading as less work.

Nothing here changes what pptball computes: the benchmark checks that traced
and untraced reports are byte-identical.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np
import scipy.optimize

MODULES = ("cli", "upb", "witness", "gridsearch", "robustness", "montecarlo", "operators")
VALIDATORS = (("HermitianOperator", "operators.HermitianOperator"),
              ("DensityMatrix", "operators.DensityMatrix"))

# Anchor spans: counts recorded anywhere below one are attributed to it.
SUITES = {
    "montecarlo.verify_ball_robustness": "ball",
    "montecarlo.verify_separable_mixing": "mixing",
    "montecarlo.ball_fraction_estimate": "membership",
}
MINIMIZER = "witness.minimum_overlap"
GRID = "gridsearch.grid_minimum_overlap"
# Restarts within this distance of the best value count as hits (the same
# threshold as pptball.witness.MINIMIZER_VALUE_ATOL).
HIT_ATOL = 1e-9


class HookError(RuntimeError):
    """A function the tracer must wrap is gone or never called."""


class Tracer:
    """In-memory recorder of spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.roots: dict[int, tuple[int, str, str]] = {}
        self.op_time: dict[int, float] = {}
        self.eigh_at: dict[int, int] = {}
        self.eigvalsh_at: dict[int, int] = {}
        self.restarts_at: list[tuple[int, float]] = []
        self.nfev_at: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._call: tuple[int, str, str] | None = None

    def begin_call(self, op: int, command: str, upb: str) -> None:
        """Label the next root span (one ``cli.main`` call)."""
        self._call = (op, command, upb)

    def end_call(self, elapsed: float) -> None:
        """Add a call's wall time, measured outside every wrapper, to its operation."""
        op = self._call[0]
        self.op_time[op] = self.op_time.get(op, 0.0) + elapsed

    def _span(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack, roots, clock = self._stack, self.roots, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            end.append(0.0)
            if stack:
                parent.append(stack[-1])
            else:
                parent.append(-1)
                roots[idx] = self._call
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counter(self, table: dict, fn):
        stack = self._stack

        def counted(*args, **kwargs):
            if stack:
                key = stack[-1]
                table[key] = table.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _restart_hook(self, fn):
        stack, log = self._stack, self.restarts_at

        def restart(*args, **kwargs):
            out = fn(*args, **kwargs)
            if stack:
                log.append((stack[-1], float(out[0])))
            return out

        return restart

    def _nfev_hook(self, fn):
        stack, log = self._stack, self.nfev_at

        def minimize(*args, **kwargs):
            res = fn(*args, **kwargs)
            if stack:
                log.append((stack[-1], int(res.nfev)))
            return res

        return minimize

    @contextmanager
    def installed(self):
        """Patch pptball, numpy.linalg and scipy.optimize; restore on exit."""
        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            package = importlib.import_module("pptball")
            mods = {m: importlib.import_module(f"pptball.{m}") for m in MODULES}
            wrappers = {}
            for short, mod in mods.items():
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not name.startswith("_")):
                        wrappers[obj] = self._span(f"{short}.{name}", obj)
            for ns in (package, *mods.values()):
                for name, obj in list(vars(ns).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        patch(ns, name, wrappers[obj])
            for cls_name, span_name in VALIDATORS:
                init = vars(getattr(mods["operators"], cls_name, object)).get("__post_init__")
                if not inspect.isfunction(init):
                    raise HookError(f"pptball.operators.{cls_name}.__post_init__ is gone")
                patch(getattr(mods["operators"], cls_name), "__post_init__",
                      self._span(span_name, init))
            seesaw = getattr(mods["witness"], "_seesaw_once", None)
            if not inspect.isfunction(seesaw):
                raise HookError("pptball.witness._seesaw_once is gone")
            patch(mods["witness"], "_seesaw_once", self._restart_hook(seesaw))
            patch(np.linalg, "eigh", self._counter(self.eigh_at, np.linalg.eigh))
            patch(np.linalg, "eigvalsh", self._counter(self.eigvalsh_at, np.linalg.eigvalsh))
            patch(scipy.optimize, "minimize", self._nfev_hook(scipy.optimize.minimize))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            self._stack.clear()


class SpanTable:
    """Derived per-span arrays: duration, self time, root call and anchor.

    The anchor of a span is its nearest ancestor-or-self that is a suite, the
    seesaw minimizer or the grid oracle; counts recorded below a span are
    attributed to its anchor.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        n = len(tracer.start)
        # Copies: a view would pin the arrays' buffers and block further spans.
        self.name_of = np.array(tracer.name_of, dtype=np.int64)
        start = np.array(tracer.start, dtype=np.float64)
        end = np.array(tracer.end, dtype=np.float64)
        parent = np.array(tracer.parent, dtype=np.int64)
        self.duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - child
        anchor_ids = {i for i, name in enumerate(tracer.names)
                      if name in SUITES or name in (MINIMIZER, GRID)}
        root = np.empty(n, dtype=np.int64)
        anchor = np.empty(n, dtype=np.int64)
        for i, (nid, p) in enumerate(zip(self.name_of.tolist(), parent.tolist())):
            root[i] = i if p < 0 else root[p]
            anchor[i] = i if nid in anchor_ids else (anchor[p] if p >= 0 else -1)
        self.anchor = anchor
        self.op = np.array([tracer.roots[r][0] for r in root.tolist()], dtype=np.int64)
        self.upb = [tracer.roots[r][2] for r in root.tolist()]

    def select(self, name: str, ops=None, upb: str | None = None) -> np.ndarray:
        """Indices of spans called ``name``, optionally restricted by operation and set."""
        if name not in self.tracer._name_ids:
            return np.zeros(0, dtype=np.int64)
        mask = self.name_of == self.tracer._name_ids[name]
        if ops is not None:
            mask &= np.isin(self.op, list(ops))
        idx = np.flatnonzero(mask)
        if upb is not None:
            idx = np.array([i for i in idx.tolist() if self.upb[i] == upb], dtype=np.int64)
        return idx


def _per_anchor(table: SpanTable, events) -> dict[int, list]:
    """Group (span index, value) events by the anchor of the span they fired in."""
    out: dict[int, list] = {}
    for idx, value in events:
        out.setdefault(int(table.anchor[idx]), []).append(value)
    return out


def module_self_times(table: SpanTable, ops) -> dict[str, float]:
    """Seconds of self time per module over the given operations."""
    mask = np.isin(table.op, list(ops))
    by_name = np.bincount(table.name_of[mask], weights=table.self_time[mask],
                          minlength=len(table.tracer.names))
    out = dict.fromkeys(MODULES, 0.0)
    for nid, name in enumerate(table.tracer.names):
        out[name.split(".")[0]] += float(by_name[nid])
    return out


def module_shares(table: SpanTable, ops) -> dict[str, float]:
    """Self time of each module, and the uncovered rest, over operation time."""
    op_time = sum(table.tracer.op_time[op] for op in ops)
    shares = {f"{m}.self_share": t / op_time for m, t in module_self_times(table, ops).items()}
    shares["uncovered.self_share"] = 1.0 - sum(shares.values())
    return shares


def layer_times(table: SpanTable, ops, sets, trials) -> dict[str, float | None]:
    """Per-layer times over the timed traced operations.

    ``trials`` maps (suite, set) to the trials those operations ran.  A time
    is None where the workload never enters the layer.
    """

    def mean(name, upb=None, scale=1e3):
        idx = table.select(name, ops, upb)
        return float(table.duration[idx].mean()) * scale if idx.size else None

    def per_trial_us(name, suite, upb):
        idx = table.select(name, ops, upb)
        n = trials.get((suite, upb), 0)
        return float(table.duration[idx].sum()) / n * 1e6 if idx.size and n else None

    restarts = {a: len(v) for a, v in _per_anchor(table, table.tracer.restarts_at).items()}
    out = {
        "cli.self_s_per_op": module_self_times(table, ops)["cli"] / len(ops),
        "upb.get_upb_ms": mean("upb.get_upb"),
        "witness.build_witness_ms": mean("witness.build_witness"),
        "operators.density_matrix_us": mean("operators.DensityMatrix", scale=1e6),
        "operators.eig_hermitian_us": mean("operators.eig_hermitian", scale=1e6),
        "robustness.mixture_tau_us": mean("robustness.mixture_tau", scale=1e6),
        "robustness.ball_membership_us": mean("robustness.ball_membership", scale=1e6),
        "robustness.radius_from_witness_us": mean("robustness.radius_from_witness", scale=1e6),
        "robustness.robustness_profile_ms": mean("robustness.robustness_profile"),
    }
    for upb in sets:
        minim = table.select(MINIMIZER, ops, upb)
        n_restarts = sum(restarts.get(int(i), 0) for i in minim)
        out[f"witness.minimum_overlap_ms.{upb}"] = mean(MINIMIZER, upb)
        out[f"witness.restart_us.{upb}"] = (
            float(table.duration[minim].sum()) / n_restarts * 1e6 if n_restarts else None)
        out[f"gridsearch.grid_minimum_overlap_ms.{upb}"] = mean(GRID, upb)
        out[f"montecarlo.sample_hs_density_us.{upb}"] = mean(
            "montecarlo.sample_hs_density", upb, 1e6)
        out[f"montecarlo.sample_separable_us.{upb}"] = mean(
            "montecarlo.sample_random_product_separable", upb, 1e6)
        for name, suite in SUITES.items():
            out[f"montecarlo.{suite}_trial_us.{upb}"] = per_trial_us(name, suite, upb)
        out[f"operators.is_ppt_all_cuts_us.{upb}"] = mean("operators.is_ppt_all_cuts", upb, 1e6)
    return out


def silent_hooks(table: SpanTable) -> list[str]:
    """Counting hooks that never fired under a span that must make them fire."""
    tracer = table.tracer
    fired = {"restart hook (pptball.witness._seesaw_once)": tracer.restarts_at,
             "numpy.linalg.eigh": tracer.eigh_at.items()}
    anchors = {MINIMIZER: fired, GRID: {"scipy.optimize.minimize": tracer.nfev_at}}
    anchors.update({name: {"numpy.linalg.eigvalsh": tracer.eigvalsh_at.items()}
                    for name in SUITES})
    silent = []
    for name, hooks in anchors.items():
        spans = set(table.select(name).tolist())
        for hook, events in hooks.items():
            if spans and not spans & {int(table.anchor[i]) for i, _ in events}:
                silent.append(f"{hook} never ran under {name}")
    return silent


def exact_counts(table: SpanTable, op: int, sets, trials) -> dict[str, float | None]:
    """Counts for one operation; they repeat exactly for the same seed.

    ``trials`` maps (suite, set) to that operation's trials.  A per-call
    count is None where the operation never makes that call.
    """
    in_op = table.op == op
    eigh = {i: c for i, c in table.tracer.eigh_at.items() if in_op[i]}
    eigvalsh = {i: c for i, c in table.tracer.eigvalsh_at.items() if in_op[i]}
    eigh_by_anchor = _per_anchor(table, eigh.items())
    eigvalsh_by_anchor = _per_anchor(table, eigvalsh.items())
    restarts = _per_anchor(table, [e for e in table.tracer.restarts_at if in_op[e[0]]])
    nfev = _per_anchor(table, [e for e in table.tracer.nfev_at if in_op[e[0]]])
    out = {
        "numpy.eigh_calls_per_op": sum(eigh.values()),
        "numpy.eigvalsh_calls_per_op": sum(eigvalsh.values()),
        "upb.get_upb_calls_per_op": int(table.select("upb.get_upb", [op]).size),
        "upb.omega_state_calls_per_op": int(table.select("upb.omega_state", [op]).size),
    }
    for upb in sets:
        minim = table.select(MINIMIZER, [op], upb).tolist()
        values = [v for i in minim for v in restarts.get(i, [])]
        hits = sum(1 for i in minim for v in restarts.get(i, [])
                   if v <= min(restarts[i]) + HIT_ATOL)
        eigh_minim = sum(sum(eigh_by_anchor.get(i, [])) for i in minim)
        out[f"witness.eigh_calls_per_restart.{upb}"] = eigh_minim / len(values) if values else None
        out[f"witness.restart_hit_ratio.{upb}"] = hits / len(values) if values else None
        grid = table.select(GRID, [op], upb).tolist()
        out[f"gridsearch.refine_nfev.{upb}"] = (
            sum(sum(nfev.get(i, [])) for i in grid) / len(grid) if grid else None)
        for name, suite in SUITES.items():
            calls = sum(sum(eigvalsh_by_anchor.get(i, []))
                        for i in table.select(name, [op], upb).tolist())
            n = trials.get((suite, upb), 0)
            out[f"operators.eigvalsh_calls_per_trial.{suite}.{upb}"] = calls / n if n else None
    return out
