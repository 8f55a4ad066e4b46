"""Span tracing of tfcert's layers from outside the package.

`install` wraps the public functions of `tfops`, `funcs`, `certify`,
`oracle`, `windowsearch` and `cli` at the names where callers look them up
(a module attribute, `FunctionEvaluator.__call__`, `numpy.linalg.eigvalsh`
and `svd`), plus the evaluators that `fourier`, `inverse_fourier_multiplier`,
`realize_window` and the family factories return. Each call records a span
(name, start, end, parent, op id, counts) in memory; `uninstall` restores
every patched name. `layer_metrics` turns spans into per-layer self time and
counts: a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

import numpy as np
import numpy.linalg

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("tfops.phase_sum.targets", "count", "lower"),
    ("tfops.phase_sum.exp_computed", "count", "lower"),
    ("tfops.phase_sum.bytes_computed", "B", "lower"),
    ("tfops.phase_sum.self_s", "s", "lower"),
    ("tfops.fourier.calls", "count", "lower"),
    ("tfops.fourier.self_s", "s", "lower"),
    ("certify.decay_radius.calls", "count", "lower"),
    ("certify.decay_radius.dense_calls", "count", "lower"),
    ("certify.decay_radius.self_s", "s", "lower"),
    ("tfops.stft_grid.calls", "count", "lower"),
    ("tfops.stft_grid.cells", "count", "lower"),
    ("tfops.stft_grid.exp_computed", "count", "lower"),
    ("tfops.stft_grid.self_s", "s", "lower"),
    ("tfops.stft_points.calls", "count", "lower"),
    ("tfops.stft_points.points", "count", "lower"),
    ("tfops.stft_points.self_s", "s", "lower"),
    ("tfops.stft.calls", "count", "lower"),
    ("tfops.stft.self_s", "s", "lower"),
    ("windowsearch.search.calls", "count", "lower"),
    ("windowsearch.search.evaluations", "count", "lower"),
    ("windowsearch.search.improvements", "count", "higher"),
    ("windowsearch.search.useful_ratio", "ratio", "higher"),
    ("windowsearch.search.self_s", "s", "lower"),
    ("windowsearch.tail_ratio.calls", "count", "lower"),
    ("windowsearch.tail_ratio.failed", "count", "lower"),
    ("windowsearch.tail_ratio.self_s", "s", "lower"),
    ("windowsearch.window_eval.points", "count", "lower"),
    ("windowsearch.window_eval.self_s", "s", "lower"),
    ("tfops.quadrature_points.calls", "count", "lower"),
    ("tfops.quadrature_points.nodes", "count", "lower"),
    ("tfops.quadrature_points.self_s", "s", "lower"),
    ("tfops.evaluate.calls", "count", "lower"),
    ("tfops.evaluate.points", "count", "lower"),
    ("tfops.evaluate.self_s", "s", "lower"),
    ("funcs.kernel.points", "count", "lower"),
    ("funcs.kernel.self_s", "s", "lower"),
    ("funcs.er_eval.points", "count", "lower"),
    ("funcs.er_eval.self_s", "s", "lower"),
    ("oracle.gram_matrix.calls", "count", "lower"),
    ("oracle.gram_matrix.self_s", "s", "lower"),
    ("oracle.collocation_rank.calls", "count", "lower"),
    ("oracle.collocation_rank.self_s", "s", "lower"),
    ("oracle.linalg.calls", "count", "lower"),
    ("oracle.linalg.self_s", "s", "lower"),
    ("oracle.er_residual.points", "count", "lower"),
    ("oracle.er_residual.evals", "count", "lower"),
    ("oracle.er_residual.reuse_ratio", "ratio", "higher"),
    ("oracle.er_residual.self_s", "s", "lower"),
    ("oracle.metaplectic.self_s", "s", "lower"),
    ("oracle.stft_identity.self_s", "s", "lower"),
    ("certify.check.calls", "count", "lower"),
    ("certify.check.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# The complex128 exp matrix of a phase sum holds 16 bytes per element.
_COMPLEX_BYTES = 16
_CHECKS = ("check_lemma1", "check_theorem1", "check_corollary1",
           "check_corollary2", "check_corollary3", "check_theorem2",
           "check_theorem3")
_FAMILIES = ("make_example1", "make_example2", "make_singular_cos", "make_gaussian")


def _modules():
    from tfcert import certify, cli, funcs, oracle, tfops, windowsearch
    return cli, tfops, funcs, certify, oracle, windowsearch


class Tracer:
    """In-memory span recorder; `op` tags new spans with the current op id."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, op, counts]
        self.op = -1
        self._stack: list = []
        self.patches: list = []  # (owner, attribute, original)
        self._nodes_cache: dict = {}

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span per call; `count(arguments, out)` gives the
        span's counts from the call's bound arguments and its result."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec[2] = clock()
                stack.pop()
                rec[5] = {"failed": 1}
                raise
            rec[2] = clock()
            stack.pop()
            if count is not None:
                rec[5] = count(_arguments(sig, args, kwargs), out)
            return out
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """True when every name `install` patched holds its original again."""
        return all(getattr(o, a) is orig for o, a, orig in self.patches)

    def _nodes(self, quadrature_points, grid, dim: int, sings=()) -> int:
        """Quadrature node count of a transform's grid (cached, untraced)."""
        key = (grid, dim, tuple(tuple(np.ravel(s)) for s in sings))
        if key not in self._nodes_cache:
            self._nodes_cache[key] = int(quadrature_points(grid, dim, sings)[1].shape[0])
        return self._nodes_cache[key]

    def install(self) -> None:
        """Patch every traced name; names the package no longer has are skipped."""
        cli, tfops, funcs, certify, oracle, ws = _modules()
        quad, default_grid = tfops.quadrature_points, tfops.GridSpec.default

        def patch(owners, attr, make):
            """Replace `attr` on each owner that has it by make(original)."""
            present = [o for o in owners if hasattr(o, attr)]
            if present:
                new = make(getattr(present[0], attr))
                for owner in present:
                    self._patch(owner, attr, new)

        def span(name, count=None):
            return lambda fn: self.wrap(name, fn, count)

        def returning(name, per_call, outer=None):
            """The patched factory's evaluators record a `name` span per call;
            per_call(factory arguments) gives those spans' count function."""
            def make(factory):
                inner = factory if outer is None else self.wrap(outer, factory)
                sig = inspect.signature(factory)

                @functools.wraps(factory)
                def traced(*args, **kwargs):
                    ev = inner(*args, **kwargs)
                    count = per_call(_arguments(sig, args, kwargs))
                    return dataclasses.replace(ev, fn=self.wrap(name, ev.fn, count))
                return traced
            return make

        def nodes(f, grid, sings=()) -> int:
            return self._nodes(quad, grid or default_grid(f.dim), f.dim, sings)

        def points(_factory_args):
            def count(a, out):
                x = next(iter(a.values()))
                return {"points": int(np.shape(x)[0]) if np.ndim(x) else 1}
            return count

        def phase_sum(singular_nodes_dropped: bool):
            def per_call(a):
                f = a["f"]
                k = nodes(f, a["grid"], f.singularities if singular_nodes_dropped else ())
                return lambda b, out: {"targets": int(out.shape[0]),
                                       "exp_computed": int(out.shape[0]) * k,
                                       "bytes_computed": _COMPLEX_BYTES * int(out.shape[0]) * k}
            return per_call

        def stft_grid(a, out):
            k = nodes(a["f"], a["grid"], a["f"].singularities)
            return {"cells": int(np.size(a["xs"]) * np.size(a["omegas"])),
                    "exp_computed": int(np.size(a["omegas"])) * k}

        patch([cli], "main", span("cli.main"))
        patch([tfops.FunctionEvaluator], "__call__", span(
            "tfops.evaluate", lambda a, o: {"points": int(np.size(a["t"]) // a["self"].dim)}))
        for attr in ("eigvalsh", "svd"):
            patch([numpy.linalg], attr, span("oracle.linalg"))
        for attr in _CHECKS:
            patch([certify, cli], attr, span("certify.check"))
        patch([certify], "decay_radius", span(
            "certify.decay_radius", lambda a, o: {"dense_calls": int(a["f"].envelope is None)}))
        patch([tfops, certify], "fourier",
              returning("tfops.phase_sum", phase_sum(True), outer="tfops.fourier"))
        patch([tfops, oracle], "inverse_fourier_multiplier",
              returning("tfops.phase_sum", phase_sum(False)))
        patch([tfops, certify, oracle, ws], "stft_grid", span("tfops.stft_grid", stft_grid))
        patch([tfops, ws], "stft_points", span(
            "tfops.stft_points", lambda a, o: {"points": int(np.size(a["lattice_pts"]) // 2)}))
        patch([tfops, certify, ws, cli], "stft", span("tfops.stft"))
        patch([tfops, certify, oracle], "quadrature_points", span(
            "tfops.quadrature_points", lambda a, o: {"nodes": int(o[1].shape[0])}))
        search = span("windowsearch.search", lambda a, o: {
            "evaluations": o.evaluations, "improvements": len(o.trace)})
        patch([ws], "search", search)
        patch([cli], "window_search", search)
        patch([ws], "tail_ratio", span("windowsearch.tail_ratio"))
        patch([ws], "realize_window", returning("windowsearch.window_eval", points))
        for attr in _FAMILIES:
            patch([funcs, cli], attr, returning("funcs.kernel", points))
        patch([funcs], "make_edgar_rosenblatt", returning("funcs.er_eval", points))
        for name, attr in (("oracle.gram_matrix", "gram_matrix"),
                           ("oracle.collocation_rank", "collocation_rank"),
                           ("oracle.metaplectic", "metaplectic_residual"),
                           ("oracle.stft_identity", "stft_identity_residual")):
            patch([oracle, cli], attr, span(name))
        patch([oracle, cli], "dependence_residual_er", span(
            "oracle.er_residual", lambda a, o: {"points": int(np.size(a["points"]) // 2)}))


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(spans: list, untraced_s: float, traced_s: float) -> tuple[dict, float]:
    """Per-layer metric values and the summed self time of all spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child[parent] += end - start
    agg: dict = {}
    under_er = [False] * len(spans)
    er_evals = 0
    total_self = 0.0
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "self_s": 0.0})
        own = (end - start) - child[i]
        a["calls"] += 1
        a["self_s"] += own
        total_self += own
        for key, value in (counts or {}).items():
            a[key] = a.get(key, 0) + value
        # Spans are stored in start order, so a parent precedes its children.
        under_er[i] = parent >= 0 and (spans[parent][0] == "oracle.er_residual"
                                       or under_er[parent])
        if name == "funcs.er_eval" and under_er[i]:
            er_evals += counts["points"]

    search = agg.get("windowsearch.search", {})
    er_points = agg.get("oracle.er_residual", {}).get("points", 0)
    derived = {
        "windowsearch.search.useful_ratio":
            search.get("improvements", 0) / search["evaluations"] if search.get("evaluations") else 0.0,
        "oracle.er_residual.evals": er_evals,
        "oracle.er_residual.reuse_ratio": 1.0 - er_evals / (5 * er_points) if er_points else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    out = {}
    for metric, unit, _ in LAYER_METRICS:
        layer, field = metric.rsplit(".", 1)
        value = derived[metric] if metric in derived else agg.get(layer, {}).get(field, 0)
        out[metric] = {"value": value, "unit": unit}
    return out, total_self
