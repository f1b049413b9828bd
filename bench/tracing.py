"""Outside-in span tracing of the markov_curves layers.

Each package module is one layer.  The tracer replaces the public entry
points of every layer with a wrapper that records a span (name, start,
end, parent, operation id) per call, at every module attribute the
function is bound to: ``solve_sup_norm_lp`` is imported by name into
``markov_lp`` and ``extremal_green``, so wrapping ``lp`` alone would miss
every solve.  Nothing inside the package changes.

Spans live on one stack per thread.  Cells run on a thread pool, so a
single shared stack would nest spans of different threads into each
other and give negative self time.  A span's self time is its duration
minus the time of its children on the same thread; time a thread spends
waiting for the pool therefore stays with the span that waits.

Spans are kept in memory and written out by ``Tracer.dump`` when the
pass ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: A self time below this is a bookkeeping error, not rounding.
NEGATIVE_SELF_TOL = 1e-9


class Span:
    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end",
                 "child_s", "error", "attrs")

    def __init__(self, span_id, name, parent, op, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.error = None
        self.attrs = {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _record_solve(span, args, result):
    rows, columns = args[0].shape
    span.attrs.update(m=rows, n=columns, pivots=result.iterations,
                      degenerate=result.degenerate,
                      residual=result.max_residual)


def _record_criterion(span, args, result):
    span.attrs["index"] = result.index


class Tracer:
    """Span recorder; ``install`` wraps the package's layer entry points.

    Entry points that no longer exist are listed in ``missing``.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op = None
        self.missing = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, func, args=(), kwargs=None, record=None):
        """Run ``func`` inside a span named ``name``."""
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].id if stack else None,
                    self._op, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = func(*args, **(kwargs or {}))
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += span.duration
            self.spans.append(span)
        if record is not None:
            record(span, args, result)
        return result

    def operation(self, name, func, *args):
        """One benchmark operation: a root span whose id tags its subtree."""
        self._op = next(self._ids)
        try:
            return self.call(name, func, args)
        finally:
            self._op = None

    def wrap(self, name, func, record=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, args, kwargs, record)
        return traced

    def install(self):
        """Wrap every layer entry point at every name bound to it."""
        from markov_curves import (acceptance, curve_model, experiments_cli,
                                   extremal_green, lp, markov_lp)
        targets = [
            ("lp.solve", lp, "solve_sup_norm_lp", _record_solve),
            ("markov_lp.factor", markov_lp, "markov_factor", None),
            ("markov_lp.reduce", markov_lp, "_reduce_columns", None),
            ("extremal_green.value", extremal_green, "siciak_lp", None),
            ("extremal_green.hcp_fit", extremal_green, "hcp_fit", None),
            ("extremal_green.star_domination", extremal_green,
             "star_domination_check", None),
            ("curve_model.sample", curve_model, "sample_real_trace", None),
            ("experiments_cli.config", experiments_cli, "load_config", None),
            ("experiments_cli.csv", experiments_cli, "emit_csv", None),
        ]
        basis = getattr(markov_lp, "PolynomialBasis", None)
        targets += [("markov_lp.basis", basis, attr, None)
                    for attr in ("evaluate", "derivative_row")]
        targets += [("acceptance.criterion", acceptance, attr,
                     _record_criterion)
                    for attr in dir(acceptance)
                    if attr.startswith("criterion_")]
        modules = [module for key, module in sys.modules.items()
                   if key == "markov_curves"
                   or key.startswith("markov_curves.")]
        for name, owner, attr, record in targets:
            original = getattr(owner, attr, None)
            if original is None:
                # Renamed or removed by a later change: its metrics read 0.
                self.missing.append(f"{name} ({attr})")
                continue
            wrapper = self.wrap(name, original, record)
            setattr(owner, attr, wrapper)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)

    def negative_self_spans(self):
        return sum(1 for span in self.spans
                   if span.self_s < -NEGATIVE_SELF_TOL)

    def dump(self, path):
        """Write the spans as JSON lines, in the order they ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "op": span.op, "thread": span.thread,
                    "start": span.start, "end": span.end,
                    "self_s": span.self_s, "error": span.error,
                    **span.attrs}) + "\n")

    def layer_metrics(self):
        """Per-layer counts and times of every span recorded so far."""
        by_name = defaultdict(list)
        self_by_layer = defaultdict(float)
        for span in self.spans:
            by_name[span.name].append(span)
            self_by_layer[span.layer] += span.self_s
        parents = {span.id: span.name for span in self.spans}

        def total(name):
            return sum(span.duration for span in by_name[name])

        def ratio(part, whole):
            return part / whole if whole else 0.0

        solves = by_name["lp.solve"]
        done = [span for span in solves if span.error is None]
        pivots = sum(span.attrs["pivots"] for span in done)
        flops = sum(2 * span.attrs["n"] * (span.attrs["m"] + span.attrs["n"]
                                           + 1) * span.attrs["pivots"]
                    for span in done)
        solve_parents = [parents.get(span.parent) for span in solves]
        factors = by_name["markov_lp.factor"]
        values = by_name["extremal_green.value"]
        metrics = {
            "lp.solves": len(solves),
            "lp.pivots": pivots,
            "lp.pivots_per_solve": ratio(pivots, len(done)),
            "lp.busy_s": total("lp.solve"),
            "lp.gflop_computed": flops / 1e9,
            "lp.failures": len(solves) - len(done),
            "lp.degenerate_share": ratio(
                sum(span.attrs["degenerate"] for span in done), len(done)),
            "lp.max_residual": max((span.attrs["residual"] for span in done),
                                   default=0.0),
            "markov_lp.factors": len(factors),
            "markov_lp.solves_per_factor": ratio(
                solve_parents.count("markov_lp.factor"), len(factors)),
            "markov_lp.basis_s": total("markov_lp.basis"),
            "markov_lp.reduce_s": total("markov_lp.reduce"),
            "markov_lp.self_s": self_by_layer["markov_lp"],
            "markov_lp.failures": sum(span.error is not None
                                      for span in factors),
            "extremal_green.values": len(values),
            "extremal_green.solves_per_value": ratio(
                solve_parents.count("extremal_green.value"), len(values)),
            "extremal_green.self_s": self_by_layer["extremal_green"],
            "extremal_green.failures": sum(span.error is not None
                                           for span in values),
            "curve_model.samples": len(by_name["curve_model.sample"]),
            "curve_model.sample_s": total("curve_model.sample"),
            "experiments_cli.config_s": total("experiments_cli.config"),
            "experiments_cli.csv_s": total("experiments_cli.csv"),
            "experiments_cli.self_s": self_by_layer["experiments_cli"],
        }
        criteria = {index: 0.0 for index in range(1, 10)}
        for span in by_name["acceptance.criterion"]:
            index = span.attrs.get("index")
            if index in criteria:
                criteria[index] += span.duration
        for index, seconds in criteria.items():
            metrics[f"acceptance.c{index:02d}_s"] = seconds
        return metrics
