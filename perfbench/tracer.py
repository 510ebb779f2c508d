"""Span tracer that instruments mg1tail from outside the package.

It replaces module attributes that callers look up at call time (for example
``mg1tail.cli.ak_estimate`` or ``mg1tail.kernels.ak_batch``) with wrappers and
restores them afterwards; the package itself is not changed.  Spans
(name, layer, start, end, parent) are kept in memory and written out by the
caller at the end.  Functions called many thousands of times per operation
(scalar tail probabilities) are "hot": they get a call count and total time
instead of a span each, and their time is charged to the enclosing span.

A layer's self time is the time of its spans minus the time of their child
spans, plus the time of its hot functions.
"""

import importlib
import time

# (module, attribute, layer, hot)
TARGETS = (
    ("mg1tail.cli", "main", "cli", False),
    ("mg1tail.cli", "approximation_point", "approx", False),
    ("mg1tail.cli", "ak_estimate", "mc", False),
    ("mg1tail.cli", "crude_mc", "mc", False),
    ("mg1tail.cli", "geom_crude_mc", "mc", False),
    ("mg1tail.cli", "threshold_x", "transition", False),
    ("mg1tail.cli", "crossing_point", "transition", False),
    ("mg1tail.cli", "regime_classify", "transition", False),
    ("mg1tail.cli", "threshold_rho", "transition", False),
    ("mg1tail.cli", "kappa", "transition", False),
    ("mg1tail.cli", "parse_model", "distributions", False),
    ("mg1tail.cli", "variance_integrated", "distributions", False),
    ("mg1tail.cli", "geom_threshold", "geom", False),
    ("mg1tail.cli", "geom_tail_approx", "geom", False),
    ("mg1tail", "ak_estimate", "mc", False),
    ("mg1tail", "geom_crude_mc", "mc", False),
    ("mg1tail", "pk_truncated", "mc", False),
    ("mg1tail", "t_tail", "approx", False),
    ("mg1tail", "t_tail_z", "approx", False),
    ("mg1tail.mc", "lattice_brackets", "mc", False),
    ("mg1tail.mc", "_pk_series", "mc", False),
    ("mg1tail.mc", "tail_prob", "distributions", True),
    ("mg1tail.kernels", "ak_batch", "kernels", False),
    ("mg1tail.kernels", "crude_batch", "kernels", False),
    ("mg1tail.rng", "substream_states_np", "rng", False),
    ("mg1tail.rng", "uniforms_np", "rng", False),
    ("mg1tail.approx", "s_sum", "approx", False),
    ("mg1tail.approx", "t_tail", "approx", False),
    ("mg1tail.approx", "tail_prob", "distributions", True),
    ("mg1tail.approx", "mean_integrated", "distributions", True),
    ("mg1tail.approx", "variance_integrated", "distributions", True),
    ("mg1tail.geom", "tail_prob", "distributions", True),
    ("mg1tail.geom", "mean_integrated", "distributions", True),
)

LAYERS = ("rng", "distributions", "kernels", "mc", "approx", "transition", "geom", "cli")

# span record fields
NAME, LAYER, START, END, PARENT, CHILD = range(6)


class Tracer:
    """Use as a context manager: wrappers are installed on entry and the
    original attributes restored on exit.  ``clock`` reads seconds; a clock
    that stops while a gauge samples keeps the gauge's time out of spans."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans = []  # [name, layer, start, end, parent index, child seconds]
        self.hot = {}  # name -> [layer, calls, seconds]
        self.absent = []  # targets the package no longer has
        self._stack = []
        self._saved = []
        self.t0 = self.t1 = 0.0

    def __enter__(self):
        for modname, attr, layer, hot in self.targets:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            name = f"{modname.removeprefix('mg1tail.')}.{attr}"
            if fn is None:
                self.absent.append(name)
                continue
            wrap = self._hot_wrapper if hot else self._span_wrapper
            setattr(mod, attr, wrap(fn, name, layer))
            self._saved.append((mod, attr, fn))
        self.t0 = self.clock()
        return self

    def __exit__(self, *exc):
        self.t1 = self.clock()
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _span_wrapper(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, layer, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]

        return wrapper

    def _hot_wrapper(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, self.clock
        acc = self.hot.setdefault(name, [layer, 0, 0.0])

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                acc[1] += 1
                acc[2] += dt
                if stack:
                    spans[stack[-1]][CHILD] += dt

        return wrapper

    # --- summaries ------------------------------------------------------

    def self_time(self, rec):
        return rec[END] - rec[START] - rec[CHILD]

    def layer_self(self):
        """Self seconds per layer; ``bench`` is traced time outside any span."""
        out = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        for rec in self.spans:
            out[rec[LAYER]] += self.self_time(rec)
            if rec[PARENT] < 0:
                covered += rec[END] - rec[START]
        for layer, _, secs in self.hot.values():
            out[layer] += secs
        out["bench"] = (self.t1 - self.t0) - covered
        return out

    def by_name(self):
        """name -> {layer, calls, total_s, self_s}."""
        out = {}
        for rec in self.spans:
            row = out.setdefault(rec[NAME], {"layer": rec[LAYER], "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += rec[END] - rec[START]
            row["self_s"] += self.self_time(rec)
        for name, (layer, calls, secs) in self.hot.items():
            out[name] = {"layer": layer, "calls": calls, "total_s": secs, "self_s": secs}
        return out

    def span_records(self):
        """Spans as (name, parent index, start, end), times relative to entry."""
        return [
            (rec[NAME], rec[PARENT], rec[START] - self.t0, rec[END] - self.t0)
            for rec in self.spans
        ]
