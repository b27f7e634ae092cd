"""Spans and counters recorded around calls into twohilb, from outside it.

``Tracer.install`` replaces each public function named in ``SPANS`` and
``COUNTERS`` by a wrapper, in every ``twohilb`` module namespace that holds
the function (or on its class, for methods and properties), and wraps
``numpy.einsum``, ``numpy.kron`` and the ``numpy.linalg`` calls the package
uses.  Nothing under ``src/`` changes.  Spans stay in memory as
``[name, start, end, parent]`` and are written out by ``Tracer.dump``.

The program runs ``tangles.move_suite`` on a thread pool of its own.  A span
that opens on another thread with no span open there takes as its parent
the span open on the main thread, so self times stay per layer.
"""
from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name).  An attribute path "Class.member"
# wraps a method, staticmethod or property on the class.
SPANS = [
    ("twohilb.ambrose", "ambrose_decompose", "ambrose.decompose"),
    ("twohilb.ambrose", "HStarAlgebraData.validate", "ambrose.validate"),
    ("twohilb.ambrose", "change_basis", "ambrose.change_basis"),
    ("twohilb.ambrose", "AmbroseDecomposition.recomposition_dev", "ambrose.recomposition"),
    ("twohilb.reps", "RepCategory.symmetrizer_power", "reps.symmetrizer_power"),
    ("twohilb.reps", "RepCategory.balancing", "reps.balancing"),
    ("twohilb.reps", "RepCategory.trace", "reps.trace"),
    ("twohilb.reps", "RepCategory.well_balanced_adjunction", "reps.well_balanced_adjunction"),
    ("twohilb.reps", "Adjunction.triangle_dev", "reps.triangle_dev"),
    ("twohilb.reps", "RepCategory.braiding", "reps.braiding"),
    ("twohilb.reps", "RepCategory.dagger_transform", "reps.dagger_transform"),
    ("twohilb.reps", "RepCategory.irreps", "reps.irreps"),
    ("twohilb.reps", "RepCategory.decompose", "reps.decompose"),
    ("twohilb.reps", "RepCategory.hom_basis", "reps.hom_basis"),
    ("twohilb.reps", "RepCategory.tensor", "reps.tensor"),
    ("twohilb.reps", "RepCategory.classify_self_dual", "reps.classify_self_dual"),
    ("twohilb.groups", "FiniteGroup.make", "groups.make"),
    ("twohilb.tangles", "parse", "tangles.parse"),
    ("twohilb.tangles", "evaluate", "tangles.evaluate"),
    ("twohilb.tangles", "move_suite", "tangles.move_suite"),
    ("twohilb.tangles", "EvalContext.make", "tangles.context"),
    ("twohilb.transforms", "dual_group", "transforms.dual_group"),
    ("twohilb.transforms", "FourierMap.transform", "transforms.fourier_transform"),
    ("twohilb.transforms", "FourierMap.monoidal_defect", "transforms.monoidal_defect"),
    ("twohilb.transforms", "FourierMap.round_trip_defect", "transforms.round_trip_defect"),
    ("twohilb.transforms", "tannaka_reconstruct", "transforms.tannaka"),
    ("twohilb.functors", "adjoint_functor", "functors.adjoint_functor"),
    ("twohilb.sampling", "random_space", "sampling"),
    ("twohilb.sampling", "random_object", "sampling"),
    ("twohilb.sampling", "random_morphism", "sampling"),
    ("twohilb.sampling", "random_fusion_functor", "sampling"),
    ("numpy", "einsum", "np.einsum"),
    ("numpy", "kron", "np.kron"),
]

COUNTERS = [
    ("twohilb.ambrose", "HStarAlgebraData.mult", "ambrose.mult.calls"),
    ("twohilb.groups", "FiniteGroup.identity", "groups.identity.calls"),
    ("twohilb.groups", "FiniteGroup.inverse", "groups.inverse.calls"),
    ("twohilb.groups", "FiniteGroup.matrix", "groups.matrix.calls"),
    ("twohilb.hstar", "compose", "hstar.compose.calls"),
    ("twohilb.hstar", "inner_product", "hstar.inner_product.calls"),
    ("twohilb.functors", "hom_dim", "functors.hom_dim.calls"),
    ("numpy.linalg", "eigh", "np.eigh.calls"),
    ("numpy.linalg", "eigvalsh", "np.eigh.calls"),
    ("numpy.linalg", "svd", "np.svd.calls"),
    ("numpy.linalg", "qr", "np.qr.calls"),
]

# Every random matrix the package draws goes through this function
# (random_unitary and random_hermitian call it); a draw is charged to the
# innermost open span.
DRAW = ("twohilb.linalg", "random_complex")
DRAW_SPANS = {"ambrose.draws": "ambrose.", "reps.irreps.draws": "reps.irreps",
              "reps.decompose.draws": "reps.decompose",
              "reps.hom_basis.draws": "reps.hom_basis"}

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self.active = True

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return -1

    def open(self, name: str) -> int:
        stack = self._stack()
        record = [name, 0.0, 0.0, self._innermost(stack)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans[index][2] = end

    def add(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own loop."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        on_result = {
            "reps.hom_basis": lambda r: self.add("reps.hom_basis.found", len(r)),
            "np.kron": lambda r: self.add("np.kron.out_mb", r.nbytes / 2**20),
        }.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def _draw_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                index = self._innermost(self._stack())
                self.add("draw@" + (self.spans[index][0] if index >= 0 else ""))
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module, path, name in SPANS:
            _patch(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for module, path, name in COUNTERS:
            _patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))
        _patch(*DRAW, self._draw_wrapper)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self time (duration minus the union of its
        children's intervals) and the number of spans."""
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        totals: dict = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - _covered(children.get(index, ()), start, end)
            calls[name] += 1
        return totals, calls

    def metrics(self, names, passes: int) -> dict:
        """The named per-layer figures, per pass; a metric no call reached
        reads 0."""
        totals, calls = self.self_times()
        values = dict(self.counts)
        values.update({f"{name}.s": t for name, t in totals.items()})
        values.update({f"{name}.calls": n for name, n in calls.items()})
        for metric, prefix in DRAW_SPANS.items():
            values[metric] = sum(v for k, v in self.counts.items()
                                 if k.startswith("draw@" + prefix))
        return {name: values.get(name, 0) / passes for name in names}

    def dump(self, path, **meta) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _covered(intervals, start, end) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _patch(module_name: str, path: str, make_wrapper) -> None:
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, member = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[member]
        if isinstance(raw, staticmethod):
            setattr(cls, member, staticmethod(make_wrapper(raw.__func__)))
        elif isinstance(raw, property):
            setattr(cls, member, property(make_wrapper(raw.fget)))
        else:
            setattr(cls, member, make_wrapper(raw))
        return
    original = getattr(module, path)
    wrapper = make_wrapper(original)
    if module_name.startswith("numpy"):
        setattr(module, path, wrapper)
        return
    # the package imports functions by name, so replace every binding
    for name, mod in list(sys.modules.items()):
        if name == "twohilb" or name.startswith("twohilb."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
