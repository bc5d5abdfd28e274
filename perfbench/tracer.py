"""Spans and exact counters recorded from the benchmark's own process.

The tracer replaces every public module-level function of the six layers
(plus ``LogSeries.evaluate``) by a wrapper that records a span: name, layer,
start, end, parent span and operation id.  Replacement is by identity in
every ``gkz_forge`` module namespace and in module-level dicts (such as the
CLI's command table), so calls the program makes internally are timed too.
Nothing under ``src/`` is modified; ``uninstall`` restores the originals.

Spans stay in memory; ``dump`` writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

# Layers are modules.  ``intlinalg`` is a helper of ``lattice`` that every
# layer calls; it gets no spans, so its time counts in the layer calling it
# (the exact rank inside ``count_independent`` is series work, for example).
LAYERS = ("lattice", "weyl", "tautsys", "series", "periods", "cli")

SERIES_GROUPS = {
    "annihilate_check": "certify",
    "apply_operator": "certify",
    "count_independent": "count",
    "LogSeries.evaluate": "eval",
}
PERIODS_GROUPS = {
    "numeric_cycle_integral": "cycle",
    "torus_period_series": "cycle",
    "finite_difference_residual": "fd",
    "fd_weights": "fd",
    "central_stencil": "fd",
}

# the per-layer metrics, in report order, with their units
PER_LAYER_UNITS = {
    "series.certify_s": "s",
    "series.basis_s": "s",
    "series.count_s": "s",
    "series.eval_s": "s",
    "series.basis_terms": "count",
    "series.residual_terms": "count",
    "series.frontier_terms": "count",
    "periods.chain_s": "s",
    "periods.chain_evals": "count",
    "periods.cycle_s": "s",
    "periods.cycle_evals": "count",
    "periods.fd_s": "s",
    "periods.fd_samples": "count",
    "periods.nonconvergent": "count",
    "tautsys.time_s": "s",
    "tautsys.box_operators": "count",
    "lattice.time_s": "s",
    "lattice.calls": "count",
    "weyl.time_s": "s",
    "weyl.product_terms": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead_s": "s",
}
COUNTERS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")


def is_box(op):
    """Box operators d^(l+) - d^(l-) have no coordinate factors."""
    keys = op.constant_coefficients()
    return bool(keys) and all(not any(u) and any(w) for (u, w) in keys)


class Tracer:
    """Span recorder that can be switched onto and off the program."""

    def __init__(self, package):
        self.package = package
        # finished spans as (index, name, layer, start, end, parent, op_id);
        # flat tuples, so the garbage collector soon stops scanning them
        self.spans = []
        self.stack = []  # indices of the open spans
        self.next_index = 0
        self.next_op = 0
        self.op_id = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._swaps = []  # (setter, original, wrapper)

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        hook = name.replace(".", "_")
        pre = getattr(self, "_before_" + hook, None)
        post = getattr(self, "_on_" + hook, None)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = self.next_index
            self.next_index += 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            if pre is not None:
                bound = signature.bind(*args, **kwargs)
                pre(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count a non-convergence once, in the innermost span it leaves
                if type(exc).__name__ == "NonConvergent" and not hasattr(exc, "_traced"):
                    exc._traced = True
                    self.counters["periods.nonconvergent"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((index, name, layer, start, end, parent, self.op_id))
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before_finite_difference_residual(self, arguments):
        # count the points a certificate samples, whatever function it samples
        F = arguments["F"]
        counters = self.counters

        def counted(point):
            counters["periods.fd_samples"] += 1
            return F(point)

        arguments["F"] = counted

    def _on_frobenius_basis(self, basis):
        self.counters["series.basis_terms"] += sum(len(s.terms) for s in basis)

    def _before_annihilate_check(self, arguments):
        # residual work: one product per (series term, operator term) pair
        per_term = sum(len(op.terms) for op in arguments["spec"].operators)
        self.counters["series.residual_terms"] += per_term * len(arguments["series"].terms)

    def _on_annihilate_check(self, reports):
        self.counters["series.frontier_terms"] += sum(r.skipped for r in reports)

    def _on_numeric_chain_integral(self, result):
        self.counters["periods.chain_evals"] += result.evaluations

    _on_general_type_integral = _on_numeric_chain_integral

    def _on_numeric_cycle_integral(self, result):
        self.counters["periods.cycle_evals"] += result.evaluations

    def _on_gkz_system(self, spec):
        self.counters["tautsys.box_operators"] += sum(is_box(op) for op in spec.operators)

    _on_unipotent_p1_system = _on_gkz_system

    def _on_multiply(self, product):
        self.counters["weyl.product_terms"] += len(product.terms)

    def count_stdout(self, nbytes):
        self.counters["cli.stdout_bytes"] += nbytes

    # -- switching ---------------------------------------------------------

    def install(self):
        """Put a span-recording wrapper in every place that holds a public
        layer function: module namespaces and the dicts they hold."""
        prefix = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        namespaces = [vars(m) for m in modules]
        namespaces += [
            v for ns in list(namespaces) for k, v in ns.items()
            if isinstance(v, dict) and not k.startswith("__")
        ]
        for ns in namespaces:
            for key, value in list(ns.items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._swaps.append((functools.partial(ns.__setitem__, key), original, wrapper))
        log_series = sys.modules[f"{prefix}.series"].LogSeries
        evaluate = log_series.__dict__["evaluate"]
        self._swaps.append((
            functools.partial(setattr, log_series, "evaluate"),
            evaluate,
            self._wrap("series", "LogSeries.evaluate", evaluate),
        ))
        for put, _, wrapper in self._swaps:
            put(wrapper)

    def uninstall(self):
        for put, original, _ in reversed(self._swaps):
            put(original)
        self._swaps.clear()

    # -- derived metrics ----------------------------------------------------

    def start_pass(self):
        """Zero the counters; returns the position in ``spans`` the pass starts at."""
        self.counters = dict.fromkeys(COUNTERS, 0)
        return len(self.spans)

    def finish_pass(self, since):
        """Per-layer self times and exact counters of the pass begun at ``since``."""
        spans = self.spans[since:]
        covered = {}
        for index, name, layer, start, end, parent, op_id in spans:
            covered[parent] = covered.get(parent, 0.0) + end - start
        times = {
            k: 0.0 for k, u in PER_LAYER_UNITS.items() if u == "s" and k != "trace.overhead_s"
        }
        for index, name, layer, start, end, parent, op_id in spans:
            if layer == "series":
                key = "series." + SERIES_GROUPS.get(name, "basis") + "_s"
            elif layer == "periods":
                key = "periods." + PERIODS_GROUPS.get(name, "chain") + "_s"
            elif layer == "cli":
                key = "cli.self_s"
            elif layer in ("lattice", "tautsys", "weyl"):
                key = layer + ".time_s"
            else:
                continue
            times[key] += end - start - covered.get(index, 0.0)
        self.counters["lattice.calls"] = sum(1 for span in spans if span[2] == "lattice")
        return times, dict(self.counters)

    @contextlib.contextmanager
    def op(self, name):
        """One benchmark operation: a root span of layer ``bench``; the spans
        nested in it carry its operation id."""
        index = self.next_index
        self.next_index += 1
        self.op_id = self.next_op
        self.next_op += 1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((index, name, "bench", start, end, -1, self.op_id))
            self.op_id = None

    def dump(self, path):
        spans = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "op"],
                    "spans": [span[1:] for span in spans],
                },
                fh,
                separators=(",", ":"),
            )
