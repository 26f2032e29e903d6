"""Span tracing from outside the program: wrap public callables, restore them.

The traced run replaces a fixed set of the program's public functions and
methods with timing wrappers, runs the same fixed work as the untraced run,
and puts every original back afterwards.  A name is patched where its callers
look it up: a method on its class, a module function in the module that
imported it by name (``delta_result`` lives in ``core/state.py``'s namespace
as far as ``InferenceState.add_label`` is concerned).

A span is ``[name, start, end, parent, session, counts]``.  Spans are kept in
memory and written out when the run ends.  The current span travels in a
:mod:`contextvars` variable, so interleaved asyncio tasks keep separate
stacks; the async tier's executor is wrapped so that commands it runs on its
threads still find their parent.  A patched callable invoked outside any
benchmark-opened root span (the cluster's heartbeat thread, say) is not
recorded.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable

NAME, START, END, PARENT, SESSION, COUNTS = range(6)

#: Root span names the benchmark itself opens.
SESSION_ROOT = "session"
SETUP_ROOT = "setup"


class Tracer:
    """Records spans for the callables it patches, until :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "sessionbench_span", default=None
        )
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str, parent: int | None, session: str | None) -> list:
        span = [name, time.perf_counter(), 0.0, parent, session, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        span.append(index)  # position 6: own index, dropped on export
        return span

    def root(self, name: str, session: str | None = None) -> _SpanScope:
        """A span with no parent that the benchmark opens (session or setup)."""
        return _SpanScope(self, name, session, root=True)

    def span(self, name: str) -> _SpanScope:
        """A harness span under the current one (e.g. the oracle's answer)."""
        return _SpanScope(self, name, None, root=False)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        counts: Callable[[tuple, dict, object], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class.  ``counts(args, kwargs, result)``
        returns the span's counters; it runs after the span's end time is
        taken.  A callable that raises is recorded with ``{"failed": 1}``.
        """
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, counts))
        else:
            replacement = self._wrap(original, name, counts)
        self._patches.append((owner, attr, original, own or not isinstance(owner, type)))
        setattr(owner, attr, replacement)

    def patch_counter(
        self, owner: type, attr: str, key: str, measure: Callable[[tuple, object], int]
    ) -> None:
        """Add ``measure(args, result)`` to counter ``key`` of the current span.

        For hot, low-level calls (socket reads and writes) that should be
        counted inside the span that made them without opening spans of
        their own.
        """
        original = getattr(owner, attr)
        current = self._current
        spans = self.spans

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            index = current.get()
            if index is not None:
                counts = spans[index][COUNTS]
                if counts is None:
                    counts = spans[index][COUNTS] = {}
                counts[key] = counts.get(key, 0) + measure(args, result)
            return result

        self._patches.append((owner, attr, original, attr in owner.__dict__))
        setattr(owner, attr, counting)

    def patch_executor_factory(self, module: object, attr: str) -> None:
        """Make executors built by ``module.attr`` carry the caller's context.

        ``loop.run_in_executor`` does not copy context variables into the
        worker thread; the wrapped factory's executors run every submitted
        callable inside a copy of the submitting task's context, so spans
        opened on the executor thread attach to the command that queued them.
        """
        factory = getattr(module, attr)

        def traced_factory(*args, **kwargs):
            executor = factory(*args, **kwargs)
            submit = executor.submit

            def submit_in_context(fn, /, *fn_args, **fn_kwargs):
                context = contextvars.copy_context()
                return submit(context.run, fn, *fn_args, **fn_kwargs)

            executor.submit = submit_in_context
            return executor

        self._patches.append((module, attr, factory, True))
        setattr(module, attr, traced_factory)

    def restore(self) -> None:
        """Put every patched callable back, in reverse order."""
        while self._patches:
            owner, attr, original, reassign = self._patches.pop()
            if reassign:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the wrapper shadowed an inherited method

    def _wrap(self, fn: Callable, name: str, counts: Callable | None) -> Callable:
        current = self._current
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = current.get()
                if parent is None:
                    return await fn(*args, **kwargs)
                span = tracer._open(name, parent, tracer.spans[parent][SESSION])
                token = current.set(span[6])
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    span[END] = time.perf_counter()
                    span[COUNTS] = {"failed": 1}
                    raise
                finally:
                    current.reset(token)
                span[END] = time.perf_counter()
                if counts is not None:
                    span[COUNTS] = counts(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if parent is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, parent, tracer.spans[parent][SESSION])
            token = current.set(span[6])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter()
                span[COUNTS] = {"failed": 1}
                raise
            finally:
                current.reset(token)
            span[END] = time.perf_counter()
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def export(self, path) -> None:
        """Write the spans as JSON: one ``[name, start, end, parent, session, counts]`` each."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "session", "counts"],
                 "spans": [span[:6] for span in self.spans]},
                handle,
                separators=(",", ":"),
            )


class _SpanScope:
    """Context manager for the spans the benchmark opens itself."""

    def __init__(self, tracer: Tracer, name: str, session: str | None, root: bool) -> None:
        self._tracer = tracer
        self._name = name
        self._session = session
        self._root = root
        self._span: list | None = None
        self._token = None

    def __enter__(self) -> list:
        tracer = self._tracer
        parent = None if self._root else tracer._current.get()
        session = self._session
        if parent is not None:
            session = tracer.spans[parent][SESSION]
        self._span = tracer._open(self._name, parent, session)
        self._token = tracer._current.set(self._span[6])
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._span[END] = time.perf_counter()
        self._tracer._current.reset(self._token)


def self_times(spans: list[list]) -> tuple[list[float], list[int | None]]:
    """Each span's self time (duration minus its children's union) and root index."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    result = [0.0] * len(spans)
    roots: list[int | None] = [None] * len(spans)
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[index] = (end - start) - covered
        parent = span[PARENT]
        roots[index] = index if parent is None else roots[parent]
    return result, roots


def measure_wrapper_cost(repeats: int = 20_000) -> float:
    """Seconds one traced call costs over an untraced one (recorded in a scratch tracer)."""

    def noop(value):
        return value

    class _Holder:
        pass

    holder = _Holder()
    holder.noop = noop
    tracer = Tracer()
    tracer.patch(holder, "noop", "calibration")
    best = float("inf")
    with tracer.root("calibration"):
        for _ in range(3):
            started = time.perf_counter()
            for value in range(repeats):
                holder.noop(value)
            traced = time.perf_counter() - started
            started = time.perf_counter()
            for value in range(repeats):
                noop(value)
            plain = time.perf_counter() - started
            best = min(best, (traced - plain) / repeats)
    tracer.restore()
    return max(best, 0.0)
