"""Spans and counters recorded from outside the package.

The tracer wraps public functions of each layer.  Several modules import
layer functions by name (``cli``, ``search``, ``states``, ``causal``), so a
wrapper is installed in every module whose namespace holds the original
function, not only in the defining module.  The ExactScalar dunders and
``causal.exact_wccp_decision`` run too often for spans; they are counted.

Spans stay in memory as ``(id, name, start, end, parent id, scenario)``
tuples, appended when a span ends (flat tuples of numbers and strings leave
the garbage collector's tracked set, so they do not slow the traced code),
and are written out once, when the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import functools
import importlib
from collections import defaultdict
from time import perf_counter

# span name -> (defining module, attribute, modules that import it by name)
_SPANNED = {
    "cli.build_state": ("cli", "build_state_from_scenario", ()),
    "geometry.pasts": ("geometry", "pasts", ("cli", "search")),
    "dynamics.apply_beta": ("dynamics", "apply_beta", ("cli",)),
    "states.build_lambda_state": ("states", "build_lambda_state", ("cli", "search")),
    "states.conditional_expectation": ("states", "conditional_expectation", ("causal",)),
    "causal.enumerate": ("causal", "enumerate_commuting_tuples", ("cli",)),
    "causal.noncommuting_residuals": ("causal", "noncommuting_ccs_residuals", ("cli", "search")),
    "search.solve": ("search", "solve_noncommuting_cc", ("cli",)),
    "search.least_squares": ("search", "least_squares", ()),
    "algebra.to_matrix": ("algebra", "to_matrix", ("search",)),
}
# span name -> (module, class, method)
_SPANNED_METHODS = {
    "algebra.op_mul": ("algebra", "Operator", "__mul__"),
    "states.evaluate": ("states", "LambdaState", "evaluate"),
    "states.density_matrix": ("states", "LambdaState", "density_matrix"),
}
# counter -> (defining module, attribute, modules that import it by name)
_COUNTED = {
    "causal.cell_decisions": ("causal", "exact_wccp_decision", ()),
    "algebra.product_trace_calls": ("algebra", "product_trace", ("states",)),
}
# counter -> ExactScalar dunders
_COUNTED_DUNDERS = {
    "exact.mul_calls": ("__mul__", "__rmul__"),
    "exact.add_calls": ("__add__", "__radd__"),
    "exact.eq_calls": ("__eq__",),
}
_ORDER_DUNDERS = ("__lt__", "__le__", "__gt__", "__ge__")

LAYERS = ("cli", "geometry", "algebra", "dynamics", "states", "causal", "search")
ROOT = "cli.run_scenario"


class Tracer:
    """Records spans and counts while installed; restores the package on uninstall."""

    def __init__(self, package: str = "isingccp"):
        self.package = package
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.scenario = -1
        self.peak_terms = 0
        self.nfev = 0
        self.enum_checked = 0
        self.enum_satisfying = 0
        self.accepted = 0
        self._stack: list = []
        self._next_id = 0
        self._in_order = False
        self._undo: list = []

    # -- recording --------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((span_id, name, start, perf_counter(), parent, self.scenario))
            self._stack.pop()

    def run_scenario(self, run, path, scenario_id):
        """Time one scenario as the root span."""
        self.scenario = scenario_id
        return self.call(ROOT, run, (path,), {})

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name, fn):
        if name == "algebra.op_mul":
            def wrapped(x, y):
                out = self.call(name, fn, (x, y), {})
                if type(y) is type(x):
                    self.counts["algebra.monomial_products"] += len(x) * len(y)
                    self.counts["algebra.op_mul_calls"] += 1
                    self.peak_terms = max(self.peak_terms, len(out))
                return out
        elif name == "algebra.to_matrix":
            def wrapped(x, window):
                self.counts["algebra.to_matrix_terms"] += len(x)
                return self.call(name, fn, (x, window), {})
        elif name == "search.least_squares":
            def wrapped(*args, **kwargs):
                out = self.call(name, fn, args, kwargs)
                self.nfev += out.nfev
                return out
        elif name == "causal.enumerate":
            def wrapped(*args, **kwargs):
                out = self.call(name, fn, args, kwargs)
                self.enum_checked += out.checked
                self.enum_satisfying += out.n_satisfying
                return out
        elif name == "search.solve":
            def wrapped(*args, **kwargs):
                out = self.call(name, fn, args, kwargs)
                self.accepted += len(out)
                return out
        else:
            def wrapped(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapped)

    def _counter(self, key, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(wrapped)

    def _order_counter(self, fn):
        # <= and >= call == and < internally; count the outermost comparison only
        def wrapped(a, b):
            if self._in_order:
                return fn(a, b)
            self._in_order = True
            self.counts["exact.cmp_calls"] += 1
            try:
                return fn(a, b)
            finally:
                self._in_order = False
        return functools.wraps(fn)(wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _module(self, name):
        return importlib.import_module(f"{self.package}.{name}")

    def install(self):
        """Wrap every traced function where its callers look it up."""
        for table, make in ((_SPANNED, self._span), (_COUNTED, self._counter)):
            for name, (mod, attr, importers) in table.items():
                original = getattr(self._module(mod), attr)
                wrapped = make(name, original)
                for site in (mod, *importers):
                    module = self._module(site)
                    if getattr(module, attr, None) is original:
                        self._set(module, attr, wrapped)
        for name, (mod, cls, meth) in _SPANNED_METHODS.items():
            owner = getattr(self._module(mod), cls)
            self._set(owner, meth, self._span(name, getattr(owner, meth)))
        scalar = self._module("exact").ExactScalar
        for key, attrs in _COUNTED_DUNDERS.items():
            for attr in attrs:
                self._set(scalar, attr, self._counter(key, getattr(scalar, attr)))
        for attr in _ORDER_DUNDERS:
            self._set(scalar, attr, self._order_counter(getattr(scalar, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation ----------------------------------------------------------------

    def totals(self):
        """Inclusive and self seconds per span name, plus call counts."""
        names = {span[0]: span[1] for span in self.spans}
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for _, name, start, end, parent, _ in self.spans:
            dur = end - start
            inclusive[name] += dur
            own[name] += dur
            calls[name] += 1
            if parent >= 0:
                own[names[parent]] -= dur
        return inclusive, own, calls

    def per_scenario(self, name):
        """Seconds inside spans called ``name``, per scenario id."""
        out = defaultdict(float)
        for _, n, start, end, _, scenario in self.spans:
            if n == name:
                out[scenario] += end - start
        return out

    def write(self, path):
        """One CSV row per span, in start order, times relative to the first start."""
        spans = sorted(self.spans, key=lambda span: span[2])
        t0 = spans[0][2] if spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "scenario", "name", "start_s", "end_s"])
            for span_id, name, start, end, parent, scenario in spans:
                writer.writerow([span_id, parent, scenario, name,
                                 f"{start - t0:.9f}", f"{end - t0:.9f}"])
