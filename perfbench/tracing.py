"""Spans recorded from outside the package, and the per-layer trace.

`Spans` keeps (name, tag, start, end, parent) records in memory.  The
workloads use it in every run to time their own operations (check tasks,
series operations, CLI commands).  `LayerTrace`, used only in traced
runs, also wraps the public functions of each srgft module so that
every call into a layer becomes a span, and counts quaternion and
`Fraction` arithmetic.  It patches every srgft module namespace that
holds a wrapped name, because `checks`, `classes` and `cli` import names
such as `star_mul` directly.
"""

from __future__ import annotations

import fractions
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

NAME, TAG, START, END, PARENT = range(5)

EVAL_SPANS = ("eval.function", "eval.quotient", "eval.series_exact", "eval.series_float")

# (module, function, span name): module-level functions wrapped by the trace
FUNCTION_SPANS = (
    ("srgft.series", "star_mul", "series.star_mul"),
    ("srgft.series", "symmetrize", "series.symmetrize"),
    ("srgft.series", "star_reciprocal", "series.star_reciprocal"),
    ("srgft.series", "compose_slice_preserving", "series.compose"),
    ("srgft.series", "integrate_radial", "series.integrate"),
    ("srgft.classes", "generate_starlike_small_coeff", "classes.generate"),
    ("srgft.classes", "generate_caratheodory", "classes.generate"),
    ("srgft.classes", "generate_close_to_convex", "classes.generate"),
    ("srgft.classes", "caratheodory_mixture_parts", "classes.generate"),
    ("srgft.classes", "caratheodory_extremal", "classes.generate"),
    ("srgft.classes", "koebe", "classes.generate"),
    ("srgft.classes", "rogosinski_extremal", "classes.generate"),
    ("srgft.classes", "convex_reference", "classes.generate"),
    ("srgft.classes", "odd_reference", "classes.generate"),
    ("srgft.classes", "bloch_series", "classes.generate"),
    ("srgft.classes", "is_caratheodory", "classes.screen"),
    ("srgft.classes", "is_starlike", "classes.screen"),
    ("srgft.classes", "is_close_to_convex", "classes.screen"),
    ("srgft.classes", "is_slice_preserving", "classes.screen"),
    ("srgft.classes", "is_one_slice", "classes.screen"),
    ("srgft.classes", "certify_small_coeff", "classes.screen"),
    ("srgft.checks", "run_suites", "checks.run"),
    ("srgft.cli", "main", "cli.command"),
    ("srgft.cli", "_emit", "cli.report_dump"),
)

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__")


class Spans:
    """In-memory span log; nesting follows the call stack of one thread."""

    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []

    def run(self, name, tag, fn, *args, **kwargs):
        rec = [name, tag, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.records))
        self.records.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, tag=None):
        run = self.run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return run(name, tag, fn, *args, **kwargs)

        return wrapper

    def current_name(self):
        return self.records[self.stack[-1]][NAME] if self.stack else None

    def intervals(self, name, since: int = 0) -> list[tuple[float, float]]:
        return [(r[START], r[END]) for r in self.records[since:] if r[NAME] == name]

    def totals(self, since: int = 0):
        """Per name: (calls, total seconds, self seconds) over records[since:].

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap on one thread.
        """
        recs = self.records
        child = defaultdict(float)
        for r in recs[since:]:
            if r[PARENT] >= since:
                child[r[PARENT]] += r[END] - r[START]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(since, len(recs)):
            r = recs[i]
            dur = r[END] - r[START]
            agg = out[r[NAME]]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return out

    def dump(self, path, since: int = 0) -> None:
        with open(path, "w") as handle:
            for i in range(since, len(self.records)):
                name, tag, start, end, parent = self.records[i]
                handle.write(json.dumps({"id": i, "name": name, "tag": tag, "start": start,
                                         "end": end, "parent": parent}) + "\n")


class _JsonProxy:
    """Stands in for the `json` module inside srgft.cli, timing dump and load."""

    def __init__(self, spans: Spans):
        self.dumps = spans.wrap("cli.report_dump", json.dumps)
        self.load = spans.wrap("cli.json_load", json.load)

    def __getattr__(self, name):
        return getattr(json, name)


class LayerTrace:
    """Wraps srgft's layers for one pass; `remove` undoes every patch."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.quat_mul = 0
        self.fraction_ops = 0
        self.horner_steps = 0
        self.horner_useful = 0
        self.points = 0
        self._distinct: dict = {}
        self._keep: dict = {}
        self._trailing: dict = {}
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "srgft" or name.startswith("srgft.")}
        for modname, attr, span in FUNCTION_SPANS:
            orig = getattr(mods[modname], attr)
            self._replace(mods, orig, self.spans.wrap(span, orig))
        self._set(mods["srgft.cli"], "json", _JsonProxy(self.spans))

        series = mods["srgft.series"]
        classes = mods["srgft.classes"]
        quat = mods["srgft.quat"]
        self._wrap_series_eval(series.SliceSeries)
        self._wrap_quotient_eval(series.StarQuotient)
        self._wrap_function(classes.FunctionUnderTest, "value")
        self._wrap_function(classes.FunctionUnderTest, "derivative_value")
        self._count_quaternion_mul(quat.Quaternion)
        self._count_fraction_ops()

    def remove(self) -> None:
        """Restore every patched name, so that checking a pass's outputs
        afterwards is neither timed nor counted."""
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _replace(self, mods, orig, wrapper) -> None:
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    # -- evaluation spans and waste counters ---------------------------------

    def _point(self, owner, kind, q) -> None:
        """Count one outermost point evaluation and its (r, theta) class.

        Points that share the real part and |Im q| share (r, theta) up to
        conjugation, whatever their slice axis.
        """
        if self.spans.current_name() in EVAL_SPANS:
            return
        self.points += 1
        key = (id(owner), kind)
        self._keep[key] = owner
        w, x, y, z = float(q.w), float(q.x), float(q.y), float(q.z)
        self._distinct.setdefault(key, set()).add((round(w, 12), round(x * x + y * y + z * z, 12)))

    def _trailing_zeros(self, series) -> int:
        # the cache holds the series itself, so its id cannot be reused
        hit = self._trailing.get(id(series))
        if hit is not None:
            return hit[1]
        coeffs = series.coeffs
        t = 0
        while t < len(coeffs) - 1 and coeffs[-1 - t].is_zero():
            t += 1
        self._trailing[id(series)] = (series, t)
        return t

    def _wrap_series_eval(self, cls) -> None:
        orig = cls.eval
        run = self.spans.run

        def eval_(series, q, *args, **kwargs):
            steps = len(series.coeffs) - 1
            self.horner_steps += steps
            self.horner_useful += steps - self._trailing_zeros(series)
            self._point(series, "series", q)
            name = ("eval.series_float" if not series.is_exact and not q.is_exact
                    else "eval.series_exact")
            return run(name, None, orig, series, q, *args, **kwargs)

        self._set(cls, "eval", functools.wraps(orig)(eval_))

    def _wrap_quotient_eval(self, cls) -> None:
        orig = cls.eval
        run = self.spans.run

        def eval_(quot, q, *args, **kwargs):
            self._point(quot, "quotient", q)
            return run("eval.quotient", None, orig, quot, q, *args, **kwargs)

        self._set(cls, "eval", functools.wraps(orig)(eval_))

    def _wrap_function(self, cls, attr) -> None:
        orig = getattr(cls, attr)
        run = self.spans.run

        def method(fut, q, *args, **kwargs):
            self._point(fut, attr, q)
            return run("eval.function", None, orig, fut, q, *args, **kwargs)

        self._set(cls, attr, functools.wraps(orig)(method))

    # -- arithmetic counters -----------------------------------------------

    def _count_quaternion_mul(self, cls) -> None:
        for attr in ("__mul__", "__rmul__"):
            orig = getattr(cls, attr)

            def counted(a, b, _orig=orig):
                self.quat_mul += 1
                return _orig(a, b)

            self._set(cls, attr, counted)

    def _count_fraction_ops(self) -> None:
        for attr in FRACTION_OPS:
            orig = getattr(fractions.Fraction, attr)
            if attr == "__neg__":
                def counted(a, _orig=orig):
                    self.fraction_ops += 1
                    return _orig(a)
            else:
                def counted(a, b, _orig=orig):
                    self.fraction_ops += 1
                    return _orig(a, b)
            self._set(fractions.Fraction, attr, counted)

    # -- results -------------------------------------------------------------

    def distinct_ratio(self) -> float:
        distinct = sum(len(keys) for keys in self._distinct.values())
        return distinct / self.points if self.points else 0.0
