"""Benchmark-owned tracing: spans recorded around calls into each layer.

The program under test is not modified. :meth:`Tracer.wrap` replaces a
method on its class with a wrapper that records one span per call — name,
start, end, parent and a few counts taken from the call's result — and
:meth:`Tracer.restore` puts the original back. Spans stay in memory until
the run ends (:meth:`Tracer.dump`).

Parents come from a :class:`contextvars.ContextVar`, so they follow both
threads and asyncio tasks. A call that re-enters a span of the same name
(``EntityStore.add_records`` calling ``add``) is not recorded again: every
recorded span of a name is outermost for that name, so sums never count
time twice.

:func:`summarize` turns spans into per-name totals, counts and *exclusive*
time: a span's duration minus the part of it its child spans cover. The
exclusive times of one span tree add up to its root's duration, which is
what makes a layer's self time and the uncovered residual well defined.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time

#: Index of each field in a span record.
ID, PARENT, NAME, START, END, ATTRS = range(6)


class Tracer:
    """Records spans in memory; installs and removes method wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(None, None)
        )
        self._patched: list[tuple] = []
        #: While False, wrapped methods call straight through (no span).
        self.active = True
        #: ``id(object) -> span id`` links set by ``link_from`` wrappers and
        #: read by ``parent_from`` wrappers, for work handed across threads.
        self.links: dict[int, int] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, parent=None):
        span_id = next(self._ids)
        if parent is None:
            parent = self._current.get()[0]
        record = [span_id, parent, name, time.perf_counter(), None, {}]
        token = self._current.set((span_id, name))
        return record, token

    def _close(self, record, token) -> None:
        record[END] = time.perf_counter()
        self._current.reset(token)
        self.spans.append(record)

    def span(self, name: str, **attrs):
        """Context manager recording one span (benchmark phases, client calls)."""
        return _SpanContext(self, name, attrs)

    def run_in_context(self, fn, *args):
        """Call ``fn`` in a copy of the caller's context (for a new thread)."""
        return functools.partial(contextvars.copy_context().run, fn, *args)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, result_attrs=None, call_attrs=None,
             link_from=None, parent_from=None, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``result_attrs(result)`` and ``call_attrs(args, kwargs)`` return
        dicts stored on the span. ``link_from(args)`` names an object whose
        ``id`` is mapped to this span; ``parent_from(args)`` names one whose
        mapped span becomes this span's parent. ``after(result)`` runs once
        a synchronous call's span is closed. Wrapping the same method twice
        is a no-op.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        original = static.__func__ if is_classmethod else static
        if getattr(original, "__perfbench_wrapped__", False):
            return
        tracer = self

        def begin(args, kwargs):
            if not tracer.active or tracer._current.get()[1] == name:
                return None
            parent = None
            if parent_from is not None:
                parent = tracer.links.get(id(parent_from(args)))
            record, token = tracer._open(name, parent)
            if call_attrs is not None:
                record[ATTRS].update(call_attrs(args, kwargs))
            if link_from is not None:
                tracer.links[id(link_from(args))] = record[ID]
            return record, token

        def end(opened, args, result) -> None:
            record, token = opened
            tracer._close(record, token)
            if link_from is not None:
                tracer.links.pop(id(link_from(args)), None)
            if result_attrs is not None and result is not None:
                record[ATTRS].update(result_attrs(result))

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                opened = begin(args, kwargs)
                if opened is None:
                    return await original(*args, **kwargs)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    end(opened, args, result)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = begin(args, kwargs)
                if opened is None:
                    return original(*args, **kwargs)
                result = None
                try:
                    result = original(*args, **kwargs)
                finally:
                    end(opened, args, result)
                if after is not None:
                    after(result)
                return result

        wrapper.__perfbench_wrapped__ = True
        own = attr in vars(owner)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patched.append((owner, attr, static if own else None))

    def restore(self) -> None:
        """Put every wrapped method back (innermost wrap first)."""
        while self._patched:
            owner, attr, static = self._patched.pop()
            if static is None:  # the method was inherited: uncover it again
                delattr(owner, attr)
            else:
                setattr(owner, attr, static)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the recorded spans as JSON (once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        self._record, self._token = self._tracer._open(self._name)
        self._record[ATTRS].update(self._attrs)
        return self._record

    def __exit__(self, *exc_info):
        self._tracer._close(self._record, self._token)
        return False


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def exclusive_times(spans: list) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so a child
    that outlives its parent (work handed to another thread) is charged
    to the parent only for the overlap.
    """
    by_id = {s[ID]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is None:
            continue
        start, end = max(s[START], parent[START]), min(s[END], parent[END])
        if end > start:
            children.setdefault(parent[ID], []).append((start, end))
    return {
        s[ID]: (s[END] - s[START]) - _union_length(children.get(s[ID], []))
        for s in spans
    }


def summarize(spans: list) -> dict[str, dict]:
    """Per span name: ``count``, ``total_s``, ``self_s`` and summed attributes."""
    exclusive = exclusive_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(
            s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        entry["count"] += 1
        entry["total_s"] += s[END] - s[START]
        entry["self_s"] += exclusive[s[ID]]
        for key, value in s[ATTRS].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return out


def layer_self_times(spans: list, layers) -> dict[str, float]:
    """Exclusive time summed per layer; a span's layer is its name's prefix."""
    exclusive = exclusive_times(spans)
    out = {layer: 0.0 for layer in layers}
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        if layer in out:
            out[layer] += exclusive[s[ID]]
    return out
