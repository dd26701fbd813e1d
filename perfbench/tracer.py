"""Outside-in tracing of fglcalc: benchmark-owned wrappers around public names.

``install`` replaces each name in ``TARGETS`` at every place it can be
reached from: every ``fglcalc`` module attribute that is the same function
object (so ``fglcalc.snc.evaluate_at_chern`` and ``fglcalc.evaluate_at_chern``
both go through the wrapper), and every class attribute that aliases the same
method (``__rmul__ = __mul__``).  ``Installation.uninstall`` puts the
originals back.  A name that no longer exists is listed in
``Tracer.missing`` and skipped.

Each wrapped call is a span.  Self time is the span's duration minus the
time its child spans cover.  The tracer's own bookkeeping, including the
``coeff_products`` counters, runs with the span clock stopped, so it is
charged to no span; it still shows in the real wall time of a traced job,
which is what ``trace.overhead_pct`` compares.  Hot arithmetic spans are
folded into per-name statistics as they end; coarse spans (entry points,
whole jobs) are also kept as records and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter

# stats fields per span name
CALLS, TOTAL, SELF, OWN_PRODUCTS, SUBTREE_PRODUCTS = range(5)


def _degree_profile(items, top):
    """term_count() per total degree, for exponent/coefficient pairs."""
    profile = [0] * (top + 1)
    for exps, poly in items:
        d = sum(exps)
        if d <= top:
            profile[d] += poly.term_count()
    return profile


def _truncated_products(left, right, top):
    # coefficient-monomial products of all term pairs the truncation keeps
    a = _degree_profile(left.items(), top)
    b = _degree_profile(right.items(), top)
    return sum(a[i] * b[j] for i in range(top + 1) for j in range(top + 1 - i))


def series_products(left, right):
    if type(right) is not type(left):
        return 0
    return _truncated_products(left, right, left.order)


def chern_products(left, right):
    if type(right) is not type(left):
        return 0
    return _truncated_products(left, right, left.dim_bound)


def ring_products(left, right):
    if type(right) is not type(left):
        return 0  # a scalar multiple makes no monomial products
    return left.term_count() * right.term_count()


# (span name, module, qualified name, keep span records, products counter)
TARGETS = (
    ("ring.mul", "fglcalc.ring", "GradedPolynomial.__mul__", False, ring_products),
    ("ring.add", "fglcalc.ring", "GradedPolynomial.__add__", False, None),
    ("ring.lazard_coefficient", "fglcalc.ring", "lazard_coefficient", False, None),
    ("ring.json", "fglcalc.ring", "GradedPolynomial.to_json", False, None),
    ("ring.json", "fglcalc.ring", "GradedPolynomial.from_json", False, None),
    ("series.mul", "fglcalc.series", "TruncatedSeries.__mul__", False, series_products),
    ("series.add", "fglcalc.series", "TruncatedSeries.__add__", False, None),
    ("series.substitute", "fglcalc.series", "TruncatedSeries.substitute", False, None),
    ("series.scale", "fglcalc.series", "TruncatedSeries.scale", False, None),
    ("series.law_series", "fglcalc.series", "FormalGroupLaw.series", True, None),
    ("series.inverse", "fglcalc.series", "FormalGroupLaw.inverse", True, None),
    ("series.n_series", "fglcalc.series", "FormalGroupLaw.n_series", True, None),
    ("series.linear_combination", "fglcalc.series", "FormalGroupLaw.linear_combination", True, None),
    ("series.decompose", "fglcalc.series", "support_decompose", True, None),
    ("series.json", "fglcalc.series", "TruncatedSeries.to_json", False, None),
    ("series.json", "fglcalc.series", "TruncatedSeries.from_json", False, None),
    ("chern.mul", "fglcalc.chern", "ChernPolynomial.__mul__", False, chern_products),
    ("chern.add", "fglcalc.chern", "ChernPolynomial.__add__", False, None),
    ("chern.evaluate", "fglcalc.chern", "evaluate_at_chern", False, None),
    ("chern.json", "fglcalc.chern", "ChernPolynomial.to_json", False, None),
    ("chern.json", "fglcalc.chern", "ChernPolynomial.from_json", False, None),
    ("snc.check_properties", "fglcalc.snc", "check_properties", True, None),
    ("snc.product_class", "fglcalc.snc", "product_class", True, None),
    ("snc.divisor_operator", "fglcalc.snc", "apply_divisor_operator", True, None),
    ("snc.divisor_class", "fglcalc.snc", "divisor_class", True, None),
    ("snc.normal_form", "fglcalc.snc", "normal_form", True, None),
    ("snc.restriction", "fglcalc.snc", "restrict_to_component", True, None),
    ("snc.restriction", "fglcalc.snc", "lift_restricted_class", True, None),
    ("cycles.relation_generator", "fglcalc.cycles", "relation_generator", True, None),
    ("cycles.tower", "fglcalc.cycles", "blowup_tower_relations", True, None),
    ("cycles.sum_add", "fglcalc.cycles", "CycleSum.__add__", False, None),
    ("cycles.json", "fglcalc.cycles", "CycleSum.to_json", False, None),
    ("cycles.json", "fglcalc.cycles", "CycleSum.from_json", False, None),
    ("cycles.json", "fglcalc.cycles", "DecoratedCycle.to_json", False, None),
    ("cycles.json", "fglcalc.cycles", "SpaceLabel.to_json", False, None),
    ("cycles.json", "fglcalc.cycles", "SpaceLabel.from_json", False, None),
    ("cycles.json", "fglcalc.cycles", "BlowupStep.from_json", False, None),
    ("cycles.json", "fglcalc.cycles", "DoublePointDatum.from_json", False, None),
    ("cycles.json", "fglcalc.cycles", "DimWitness.from_json", False, None),
    ("cycles.json", "fglcalc.cycles", "SectWitness.from_json", False, None),
    ("cycles.json", "fglcalc.cycles", "TensorWitness.from_json", False, None),
)


class Tracer:
    """In-memory span statistics and records for one process."""

    def __init__(self):
        self.stats: dict = {}    # span name -> [calls, total s, self s, own products, subtree products]
        self.spans: list = []    # [id, parent id, name, start, end, job] of kept spans
        self.missing: list = []  # targets that could not be resolved
        self.job = None
        self._stack: list = []
        self._depth: dict = {}
        self._paused = 0.0       # bookkeeping time removed from the span clock
        self._next_id = 0

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return stat

    def _enter(self, name, record):
        stack = self._stack
        parent_id = stack[-1][2] if stack else None
        span_id = parent_id
        if record:
            self._next_id += 1
            span_id = self._next_id
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [0.0, 0, span_id, parent_id]  # child s, child products, ids
        stack.append(frame)
        return frame

    def _exit(self, name, stat, record, frame, products, start, end):
        self._stack.pop()
        duration = end - start
        depth = self._depth[name] = self._depth[name] - 1
        subtree = products + frame[1]
        stat[CALLS] += 1
        stat[SELF] += duration - frame[0]
        stat[OWN_PRODUCTS] += products
        if depth == 0:  # nested calls of one name count once in its total
            stat[TOTAL] += duration
            stat[SUBTREE_PRODUCTS] += subtree
        if self._stack:
            parent = self._stack[-1]
            parent[0] += duration
            parent[1] += subtree
        if record:
            self.spans.append([frame[2], frame[3], name, start, end, self.job])

    def note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def _count(self, name, counter, args):
        try:
            return counter(*args)
        except (AttributeError, TypeError):  # the counter's view of the operands is gone
            self.note_missing(name + ".coeff_products")
            return 0

    def wrap(self, name, fn, record, counter):
        """A function that runs fn inside a span called name.

        record keeps the span's record; counter, if given, returns the
        call's coeff_products from its arguments.
        """
        stat = self._stat(name)
        tracer = self

        def traced(*args, **kwargs):
            entered = perf_counter()
            products = tracer._count(name, counter, args) if counter is not None else 0
            frame = tracer._enter(name, record)
            begin = perf_counter()
            tracer._paused += begin - entered
            start = begin - tracer._paused
            try:
                return fn(*args, **kwargs)
            finally:
                finish = perf_counter()
                tracer._exit(name, stat, record, frame, products, start, finish - tracer._paused)
                tracer._paused += perf_counter() - finish

        return functools.wraps(fn)(traced)

    @contextmanager
    def span(self, name):
        """A kept span around a block of benchmark code, such as a whole job."""
        stat = self._stat(name)
        frame = self._enter(name, True)
        start = perf_counter() - self._paused
        try:
            yield
        finally:
            end = perf_counter() - self._paused
            self._exit(name, stat, True, frame, 0, start, end)

    def merge(self, stats: dict, spans: list, missing: list, job):
        """Fold in the statistics and records another process traced."""
        for name, values in stats.items():
            stat = self._stat(name)
            for field, value in enumerate(values):
                stat[field] += value
        for span in spans:
            self.spans.append(span[:5] + [job])
        for name in missing:
            self.note_missing(name)

    # -- derived figures ----------------------------------------------------

    def calls(self, name) -> int:
        return self.stats.get(name, [0] * 5)[CALLS]

    def total_ms(self, name) -> float:
        return self.stats.get(name, [0] * 5)[TOTAL] * 1000.0

    def self_ms(self, name) -> float:
        return self.stats.get(name, [0] * 5)[SELF] * 1000.0

    def own_products(self, name) -> int:
        return self.stats.get(name, [0] * 5)[OWN_PRODUCTS]

    def subtree_products(self, name) -> int:
        return self.stats.get(name, [0] * 5)[SUBTREE_PRODUCTS]


def _fglcalc_modules():
    """Every fglcalc module, imported now so that none can pick up a wrapper later."""
    import fglcalc

    for info in pkgutil.iter_modules(fglcalc.__path__):
        if not info.name.startswith("_"):  # __main__ would run the CLI
            importlib.import_module(f"fglcalc.{info.name}")
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "fglcalc" or key.startswith("fglcalc."))]


def _wrap_attribute(raw, wrap):
    """Wrap a function, or the function inside a classmethod or property."""
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if callable(raw):
        return wrap(raw)
    raise TypeError(f"cannot wrap {type(raw).__name__}")


class Installation:
    """The attributes one ``install`` replaced, so they can be put back."""

    def __init__(self):
        self.patches: list = []  # (owner, attribute, original value)

    def _set(self, owner, attr, original, replacement):
        self.patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Route every target through tracer spans, at every site it is reachable from."""
    installation = Installation()
    modules = _fglcalc_modules()
    for name, module_name, qualname, record, counter in targets:
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            tracer.note_missing(f"{module_name}.{qualname}")
            continue

        def wrap(fn, name=name, record=record, counter=counter):
            return tracer.wrap(name, fn, record, counter)

        replacement = _wrap_attribute(raw, wrap)
        if isinstance(owner, type):
            sites = [(owner, key) for key, value in vars(owner).items() if value is raw]
        else:
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is raw]
        for site, key in sites:
            installation._set(site, key, raw, replacement)
    return installation
