"""Span and counter wrappers installed around the engine's layers.

A traced run replaces public engine functions and a few methods with
wrappers that time each call and subtract the time of nested wrapped calls
(self time), or only count calls.  The wrappers live here, not in the
engine: ``installed`` puts them in every ``wres_torsion`` module namespace
that binds the original object and restores every original on exit, so an
untraced run never pays for them.

Spans are aggregated in memory per name (calls, total and self seconds,
output terms) rather than kept one record per call.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Tuple


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    terms: int = 0


def count_terms(out) -> int:
    """Symbol terms in a builder's output (an expression, tuple or dict)."""
    if isinstance(out, dict):
        return sum(count_terms(v) for v in out.values())
    if isinstance(out, (tuple, list)):
        return sum(count_terms(v) for v in out)
    terms = getattr(out, "terms", None)
    return len(terms) if terms is not None else 0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.counts: Counter = Counter()
        # one frame per open span: the child time it has accumulated
        self._stack: List[List[float]] = [[0.0]]

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _enter(self) -> List[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, stat: Stat, frame: List[float], start: float) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        self._stack[-1][0] += elapsed
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - frame[0]

    @contextmanager
    def span(self, name: str):
        """A span opened from the benchmark's own code."""
        stat = self._stat(name)
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(stat, frame, start)

    def timed(self, name: str, fn, terms: bool = False):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(stat, frame, start)
            if terms:
                stat.terms += count_terms(out)
            return out
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            out = fn(*args)
            if out is not NotImplemented:
                counts[name] += 1
            return out
        return wrapper


# (span name, function names, count output terms); the span name's first
# part is the engine module that defines the functions
FUNCTION_SPANS: Tuple = (
    ("geometry.derived_scalars", ("derived_scalars",), False),
    ("symbols.build_sigma_dtpow", ("build_sigma_dtpow_parts",), True),
    ("symbols.build_sigma_delta_inv", ("build_sigma_delta_inv_parts",), True),
    ("symbols.build_sigma_ab_printed", ("build_sigma_ab_printed_parts",), True),
    ("symbols.build_sigma_ab_composed", ("build_sigma_ab_composed",), True),
    ("symbols.leibniz", ("d_xi", "d_x", "at_x0"), False),
    ("residue.part1_density", ("part1_density",), False),
    ("residue.part2_density", ("part2_density",), False),
    ("residue.metric_density", ("metric_density",), False),
    ("residue.audit", ("audit",), False),
    ("residue.closed_forms", ("part1_closed", "part2_closed", "theorem_density"), False),
)
FUNCTION_COUNTERS: Tuple = (
    ("residue.sphere_moment", ("sphere_moment",)),
)
# (span name, owner class, method names): the class is named "module.Class"
# inside the engine, or given itself
METHOD_SPANS: Tuple = (
    ("symbols.symbol_mul", "symbols.SymbolExpr", ("__mul__",)),
    ("clifford.element_mul", "clifford.CliffordElement", ("__mul__",)),
)
# (counter name, owner class, method names)
METHOD_COUNTERS: Tuple = (
    ("numerics.gaussian_mul", "numerics.GaussianRational", ("__mul__", "__rmul__")),
    ("numerics.fraction_mul", Fraction, ("__mul__", "__rmul__")),
)


def _engine_modules(package: str):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def installed(tracer: Tracer, package: str = "wres_torsion"):
    """Install the tracer's wrappers into the imported engine; undo on exit."""
    modules = _engine_modules(package)
    by_name = {mod.__name__: mod for mod in modules}
    saved: List[Tuple[object, str, object]] = []

    def rebind(original, wrapper):
        # every module namespace that imported the function by name
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def rebind_methods(owner, names, make):
        cls = owner
        if isinstance(owner, str):
            module, cls_name = owner.split(".")
            cls = getattr(by_name[f"{package}.{module}"], cls_name)
        wrappers: Dict[int, object] = {}  # __rmul__ may be __mul__ itself
        for attr in names:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            if id(original) not in wrappers:
                wrappers[id(original)] = make(original)
            setattr(cls, attr, wrappers[id(original)])

    def function(name: str, fn_name: str):
        return getattr(by_name[f"{package}.{name.split('.')[0]}"], fn_name)

    try:
        for name, functions, terms in FUNCTION_SPANS:
            for fn_name in functions:
                original = function(name, fn_name)
                rebind(original, tracer.timed(name, original, terms))
        for name, functions in FUNCTION_COUNTERS:
            for fn_name in functions:
                original = function(name, fn_name)
                rebind(original, tracer.counted(name, original))
        for name, owner, names in METHOD_SPANS:
            rebind_methods(owner, names, lambda fn, name=name: tracer.timed(name, fn))
        for name, owner, names in METHOD_COUNTERS:
            rebind_methods(owner, names, lambda fn, name=name: tracer.counted(name, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
