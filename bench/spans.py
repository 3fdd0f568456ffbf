"""Outside-in span tracing for the rpsdm package.

The tracer swaps a module attribute that a caller looks up at call time (for
example ``rpsdm.metrics.effective_channel``, which ``_ber_trial`` resolves as
a module global on every call) for a wrapper that records one span per call,
and puts every original attribute back on ``restore``. Nothing inside
``src/`` changes, and untraced runs execute no wrapper code.

Spans are kept in memory: name, start, end, parent span, thread id, job id,
plus a small per-call ``info`` record for the computed counts.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "job", "info", "error")

    def __init__(self, name, parent, thread, job):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.job = job
        self.start = self.end = 0.0
        self.info = None
        self.error = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _plan_bytes(matrix_attr):
    def describe(args, kwargs, result):
        plan, vector = args[0], args[1]
        return (plan.scheme.value, plan.n,
                getattr(plan, matrix_attr).nbytes + vector.nbytes + result.nbytes)
    return describe


def _equalize_info(args, kwargs, result):
    eff = args[1]
    return (eff.scheme.value, eff.matrix.shape[0])


def _scheme_info(args, kwargs, result):
    return (args[0].value, args[1].n)


def _curve_info(args, kwargs, result):
    return {"scheme": result.scheme.value,
            "detector": result.detector.value if result.detector else None,
            "n": result.n, "trials": result.trials,
            "points": int(result.grid.shape[0]), "workers": kwargs.get("workers", 1),
            "resampled": int(result.metadata.get("resampled_trials", 0))}


#: (module, attribute as the caller looks it up, span name, per-call describer).
#: The span name is ``<layer>.<function>``; the layer is the rpsdm module that
#: defines the function. A target missing from the program raises on install,
#: so a changed call structure fails the traced run instead of reading 0.
TARGETS = (
    ("rpsdm.cli", "ber_curve", "metrics.ber_curve", _curve_info),
    ("rpsdm.cli", "papr_ccdf", "metrics.papr_ccdf", _curve_info),
    ("rpsdm.metrics", "_ber_trial", "metrics.trial", None),
    ("rpsdm.metrics", "make_plan", "transforms.make_plan", None),
    ("rpsdm.metrics", "modulate", "transforms.modulate", _plan_bytes("forward")),
    ("rpsdm.metrics", "demodulate", "transforms.demodulate", _plan_bytes("inverse")),
    ("rpsdm.metrics", "draw_channel", "channel.draw_channel", None),
    ("rpsdm.metrics", "add_cp", "channel.add_cp", None),
    ("rpsdm.metrics", "transmit", "channel.transmit", None),
    ("rpsdm.metrics", "remove_cp", "channel.remove_cp", None),
    ("rpsdm.metrics", "effective_channel", "channel.effective_channel", _scheme_info),
    ("rpsdm.channel", "circulant_matrix", "channel.circulant_matrix", None),
    ("rpsdm.metrics", "equalize", "detection.equalize", _equalize_info),
    ("rpsdm.metrics", "qam_map", "detection.qam_map", None),
    ("rpsdm.metrics", "qam_demap", "detection.qam_demap", None),
    ("rpsdm.transforms", "build_transform", "ramanujan.build_transform", None),
    ("rpsdm.transforms", "is_power_of_two", "number_theory.is_power_of_two", None),
    ("rpsdm.ramanujan", "divisor_set", "number_theory.divisor_set", None),
    ("rpsdm.ramanujan", "totient", "number_theory.totient", None),
    ("rpsdm.ramanujan", "gcd", "number_theory.gcd", None),
    ("rpsdm.ramanujan", "mobius", "number_theory.mobius", None),
    ("rpsdm.ramanujan", "is_power_of_two", "number_theory.is_power_of_two", None),
)

#: numpy calls wrapped only as ``rpsdm.metrics`` sees them (through its ``np``)
NUMPY_TARGETS = (
    ("random", "default_rng", "metrics.rng_seed"),
    ("fft", "ifft", "metrics.ccdf_ifft"),
)


class _NumpyView:
    """Stands in for a numpy (sub)module: overridden names first, the rest
    delegated, so only the module holding the view sees the wrappers."""

    def __init__(self, real, overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs span-recording wrappers; ``restore`` undoes every swap."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._saved: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []

    # -- stacks -----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        # a pool thread's first span belongs to the span open on the job's thread
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(name, parent, threading.get_ident(), self.job)
        self.spans.append(span)
        stack.append(span)
        return span, stack

    @contextlib.contextmanager
    def root(self, name: str, job):
        """The span that covers one whole job; pool threads attach to it."""
        self.job = job
        self._root_stack = self._stack()
        span, stack = self._open(name)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- wrapping ---------------------------------------------------------
    def _wrapper(self, original, name, describe):
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            span, stack = self._open(name)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                stack.pop()
                raise
            span.end = perf_counter()
            stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _swap(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name, describe in TARGETS:
            module = importlib.import_module(module_name)
            self._swap(module, attr, self._wrapper(getattr(module, attr), name, describe))
        metrics = importlib.import_module("rpsdm.metrics")
        real_np = metrics.np
        overrides: dict[str, dict] = {}
        for sub, attr, name in NUMPY_TARGETS:
            original = getattr(getattr(real_np, sub), attr)
            overrides.setdefault(sub, {})[attr] = self._wrapper(original, name, None)
        self._swap(metrics, "np", _NumpyView(real_np, {
            sub: _NumpyView(getattr(real_np, sub), wrapped) for sub, wrapped in overrides.items()}))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover, by id(span).

    Children on pool threads can overlap each other; their union is what is
    subtracted, clipped to the parent's own interval."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        kids = children.get(id(span), ())
        cover = _covered([(max(k.start, span.start), min(k.end, span.end)) for k in kids
                          if k.end > span.start and k.start < span.end])
        out[id(span)] = span.duration - cover
    return out


def span_records(chosen: list[Span]) -> list[dict]:
    """Spans as plain records, times in µs from the first span's start."""
    if not chosen:
        return []
    index = {id(s): i for i, s in enumerate(chosen)}
    t0 = chosen[0].start
    return [{"id": i, "name": s.name, "start_us": (s.start - t0) * 1e6,
             "end_us": (s.end - t0) * 1e6, "parent": index.get(id(s.parent)),
             "thread": s.thread, "job": s.job, "error": s.error}
            for i, s in enumerate(chosen)]
