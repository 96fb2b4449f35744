"""In-memory span tracing of the qcond package, installed from outside.

A :class:`Tracer` wraps every public function of the layer modules, every
public method of the classes they define (``rand.Generator.derive`` among
them), and rebinds the ``from .x import y`` aliases that other qcond modules
hold, so calls between layers go through the wrappers too.  Each call
records one span (name, start, end, parent, job) in flat arrays; nothing is
written until :meth:`Tracer.summary` derives self times and call counts.

A few operations boundaries also record exact work counts (Kraus operators
in and out, and complex multiply-adds computed from d and the Kraus count).
Those counts do not depend on timing, so two passes over the same inputs
must reproduce them exactly.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "linalg",
    "core",
    "operations",
    "observables",
    "instruments",
    "context_stats",
    "entropy",
    "rand",
    "suites",
    "scene",
    "serialize",
)

#: Functions whose self time is reported on its own (per-layer metrics).
FUNCTION_SELF = (
    "operations.apply",
    "operations.dual_apply",
    "operations.compose",
    "operations.choi_matrix",
    "operations.holevo",
    "instruments.bar_channel",
    "instruments.condition_instrument",
    "instruments.compose_instruments",
    "context_stats.conditioned_stochastic_operator",
    "linalg.psd_sqrt",
    "linalg.hermitian_eig",
    "linalg.simultaneous_eigenbasis",
    "rand.Generator.derive",
    "rand.random_observable",
    "scene.load_scene",
    "scene.run_scene",
    "serialize.value_to_json",
)

#: Functions whose call count is reported on its own (exact counts).
FUNCTION_CALLS = ("linalg.as_matrix", "linalg.trace_product", "rand.Generator.derive")

JOB_SPAN = "bench.job"

#: Work counts recorded at operations boundaries, independent of timing.
EXACT_COUNTS = (
    "operations.kraus_in",
    "operations.kraus_max",
    "operations.compose.kraus_out",
    "operations.madds",
)

# Operations that take a Kraus family as their first argument, with the
# complex multiply-adds they compute for k Kraus operators of size d x d:
# two d x d products per operator in apply/dual_apply, one d^2 x d^2 outer
# product per operator in choi_matrix.  measured_effect's work is the
# dual_apply it calls, which is counted there.
_KRAUS_IN = {
    "operations.apply": lambda k, d: 2 * k * d**3,
    "operations.dual_apply": lambda k, d: 2 * k * d**3,
    "operations.measured_effect": lambda k, d: 0,
    "operations.choi_matrix": lambda k, d: k * d**4,
}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the module's public API."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn


class Tracer:
    """Span recorder for one traced pass; install, run jobs, uninstall, summarize."""

    def __init__(self) -> None:
        self.names: list[str] = [JOB_SPAN]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack = [-1]
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []
        self.kraus_in = 0
        self.kraus_max = 0
        self.compose_kraus_out = 0
        self.madds = 0

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"qcond.{layer}"]
            for qualname, owner, attr, fn in _public_callables(module):
                wrapper = self._wrap(qualname, fn)
                wrapped[id(fn)] = wrapper
                self._patch(owner, attr, wrapper)
        # Other modules hold their own references from ``from .x import y``.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qcond" and not mod_name.startswith("qcond."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        kraus_work = _KRAUS_IN.get(qualname)
        is_compose = qualname == "operations.compose"
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_job, stack = self.span_parent, self.span_job, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_job.append(self._job)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if kraus_work is not None:
                self._count_kraus_in(args[0], kraus_work)
            elif is_compose:
                self._count_compose(args[0], args[1], result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # --- exact counts -----------------------------------------------------

    def _count_kraus_in(self, op, work) -> None:
        k = len(op.kraus)
        self.kraus_in += k
        self.kraus_max = max(self.kraus_max, k)
        self.madds += work(k, op.dim)

    def _count_compose(self, first, second, result) -> None:
        out = len(result.kraus)
        self.compose_kraus_out += out
        self.kraus_max = max(self.kraus_max, out)
        self.madds += len(first.kraus) * len(second.kraus) * first.dim**3

    def exact_counts(self) -> dict[str, int]:
        values = (self.kraus_in, self.kraus_max, self.compose_kraus_out, self.madds)
        return dict(zip(EXACT_COUNTS, values))

    # --- harness spans ----------------------------------------------------

    def job(self, job_index: int):
        return _JobSpan(self, job_index)

    # --- derived metrics --------------------------------------------------

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds per span name, calls per span name) over every span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        per_name_self = np.bincount(names, weights=self_time, minlength=len(self.names))
        per_name_calls = np.bincount(names, minlength=len(self.names))
        self_s = {name: float(per_name_self[i]) for i, name in enumerate(self.names)}
        calls = {name: int(per_name_calls[i]) for i, name in enumerate(self.names)}
        return self_s, calls


class _JobSpan:
    """Root span around one job; the spans it causes carry its job index."""

    def __init__(self, tracer: Tracer, job_index: int) -> None:
        self.tracer = tracer
        self.job_index = job_index

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.span_name)
        t._job = self.job_index
        t.span_name.append(0)
        t.span_parent.append(-1)
        t.span_job.append(self.job_index)
        t.span_start.append(0.0)
        t.span_end.append(0.0)
        t._stack.append(self.idx)
        t.span_start[self.idx] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.span_end[self.idx] = time.perf_counter()
        t._stack.pop()
        t._job = -1
