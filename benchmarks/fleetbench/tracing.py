"""Span tracing from outside the program: wrappers, self time, trace files.

A :class:`Tracer` records one span per call of a wrapped entry point:
name, layer, start, end and parent span.  Self time — a span's duration
minus the time its direct child spans cover — is accumulated per layer
as spans close, so the per-layer split needs no second pass over the
spans.  :func:`install` patches entry points at class or module level
for one traced run; :meth:`Installation.remove` puts every original
back.  Wrappers pass arguments and return values through untouched.

The retained spans are written as trace-event JSON (``"X"`` complete
events), which Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Streaming span recorder.

    Spans are timed on the process's CPU clock by default, like the
    benchmark's phases, so the split closes against their times.
    ``max_spans_per_name`` bounds the spans kept for the trace file (the
    first N of each span name); every span, kept or not, still counts in
    the call counts and the time sums.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.process_time,
        max_spans_per_name: int = 2000,
    ):
        self.clock = clock
        self.max_spans_per_name = max_spans_per_name
        #: Open spans, innermost last: [name, layer, start, child_s, id, parent].
        self._stack: list[list] = []
        self._next_id = 1
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        #: Units of work reported by wrapper hooks, keyed by counter name.
        self.units: dict[str, float] = defaultdict(float)
        #: Kept spans: (id, name, layer, start, end, parent id or 0).
        self.spans: list[tuple[int, str, str, float, float, int]] = []
        self.dropped: dict[str, int] = defaultdict(int)
        self._kept: dict[str, int] = defaultdict(int)
        self.origin = clock()

    def enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1][4] if self._stack else 0
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append([name, layer, self.clock(), 0.0, span_id, parent])

    def exit(self, failed: bool = False) -> None:
        end = self.clock()
        name, layer, start, child_s, span_id, parent = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.layer_self_s[layer] += duration - child_s
        self.calls[name] += 1
        self.layer_calls[layer] += 1
        self.inclusive_s[name] += duration
        if failed:
            self.errors[name] += 1
        if self._kept[name] < self.max_spans_per_name:
            self._kept[name] += 1
            self.spans.append((span_id, name, layer, start, end, parent))
        else:
            self.dropped[name] += 1

    def span(self, name: str, layer: str) -> "_SpanContext":
        """Context manager for a span around harness code (tests, phases)."""
        return _SpanContext(self, name, layer)

    def trace_events(self, pid: int = 1, tid: int = 1) -> dict:
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, layer, start, end, parent in self.spans
        ]
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "layer_self_s": dict(sorted(self.layer_self_s.items())),
                "calls": dict(sorted(self.calls.items())),
                "dropped_spans": dict(sorted(self.dropped.items())),
            },
        }

    def write(self, path: str, **metadata) -> None:
        doc = self.trace_events()
        doc["otherData"].update(metadata)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self) -> Tracer:
        self.tracer.enter(self.name, self.layer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.exit(failed=exc_type is not None)


# -- wrapping -------------------------------------------------------------------

#: ``hook(tracer, args, kwargs, result)``, called after a successful call
#: to add units of work (it must only read its arguments).
Hook = Callable[[Tracer, tuple, dict, object], None]


@dataclass(frozen=True)
class WrapSpec:
    """One entry point: ``module:Owner.attr`` (``owner`` may be empty for
    a module-level function).  ``layer`` is a layer name, or a callable
    mapping the bound instance to one (for shared base-class methods)."""

    module: str
    owner: str
    attr: str
    layer: str | Callable[[object], str]
    name: str | None = None
    hook: Hook | None = None

    @property
    def span_name(self) -> str:
        if self.name is not None:
            return self.name
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


def _wrapper(fn: Callable, spec: WrapSpec, tracer: Tracer) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit
    name, layer, hook = spec.span_name, spec.layer, spec.hook

    if callable(layer):
        layer_of = layer

        @functools.wraps(fn)
        def traced_dynamic(self, *args, **kwargs):
            layer_name = layer_of(self)
            enter(f"{type(self).__name__}.{spec.attr}", layer_name)
            failed = True
            try:
                result = fn(self, *args, **kwargs)
                failed = False
            finally:
                exit_(failed)
            return result

        return traced_dynamic

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name, layer)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            exit_(failed)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


class Installation:
    """The patches made by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, target: object, attr: str, replacement: object) -> None:
        original = vars(target)[attr]
        self._patches.append((target, attr, original))
        setattr(target, attr, replacement)

    def remove(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def resolve(spec: WrapSpec) -> tuple[object, Callable]:
    """(object holding the attribute, the attribute's own function)."""
    target: object = importlib.import_module(spec.module)
    if spec.owner:
        target = getattr(target, spec.owner)
    fn = vars(target)[spec.attr]
    return target, fn


def install(specs, tracer: Tracer) -> Installation:
    """Wrap every spec's entry point for ``tracer``.

    Functions are looked up in the namespace that *calls* them (the spec
    names the importing module for names bound with ``from ... import``),
    and only attributes a class defines itself are patched, so removal
    restores exactly what was there.
    """
    installation = Installation()
    try:
        for spec in specs:
            target, fn = resolve(spec)
            installation.patch(target, spec.attr, _wrapper(fn, spec, tracer))
    except BaseException:
        installation.remove()
        raise
    return installation
