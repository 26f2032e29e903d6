"""The asyncio-native session service: ``AsyncSessionService``.

:class:`AsyncSessionService` is the asyncio front door to the sans-IO
machinery of this package.  It wraps the thread-safe
:class:`~repro.service.service.SessionService` rather than reimplementing it:
every command delegates to the synchronous service, with the CPU-bound part
(strategy scoring, label propagation, fingerprint hashing) offloaded to a
*bounded* thread-pool executor so the event loop never blocks on inference
work.  What the async layer adds on top:

* **per-session ordering** — an :class:`asyncio.Lock` per session serialises
  commands against the same session, so the event stream of a session is a
  faithful, gap-free log of what happened to it (the wrapped service's
  threading locks only guarantee mutual exclusion, not the orderly
  command → event pairing a stream consumer needs);
* **backpressure on create** — with ``max_sessions`` set, :meth:`create` and
  :meth:`resume` *await* until a session slot frees up instead of letting an
  unbounded number of live sessions accumulate;
* **event streams** — every protocol event a session produces is also
  published to its stream; ``async for event in service.events(session_id)``
  first replays the session's history, then yields live events (in JSON wire
  form) until the session is closed.

Task-safety: one :class:`AsyncSessionService` instance belongs to one event
loop (its locks, queues and semaphore bind to the loop on first use).  Within
that loop any number of tasks may call it concurrently — distinct sessions
advance in parallel (up to ``max_workers`` inference steps at a time), and
commands against the same session queue up on its lock.  The *wrapped*
:class:`~repro.service.service.SessionService` stays thread-safe, so sharing
it with synchronous threads is allowed; sessions created behind the facade's
back are adopted on first touch (they hold no backpressure slot), and a
session *closed* behind the facade's back is reaped — its streams ended, its
slot freed — by the next facade command that touches it (until then its
stream consumers keep waiting; prefer closing through the facade).

Quickstart::

    async with AsyncSessionService(max_sessions=256) as service:
        descriptor = await service.create(table, strategy="lookahead-entropy")
        sid = descriptor.session_id
        while True:
            event = await service.next_question(sid)
            if isinstance(event, Converged):
                break
            await service.answer(sid, my_answer_for(event))
        await service.close(sid)
"""

from __future__ import annotations

import asyncio
import functools
from collections.abc import AsyncIterator, Callable
from typing import TypeVar

from ..core.parallel import create_thread_pool
from ..core.protocol import Event, InteractionMode, LabelApplied, event_to_wire
from ..core.stepper import AnswerSet, LabelLike
from ..core.strategies.base import Strategy
from ..relational.candidate import CandidateTable
from .service import SessionDescriptor, SessionService, SessionServiceError

T = TypeVar("T")

#: Default size of the inference executor: enough to overlap a few CPU-bound
#: strategy steps without oversubscribing a small container.
DEFAULT_MAX_WORKERS = 4


#: Default per-subscriber event-queue bound (see ``stream_buffer``).
DEFAULT_STREAM_BUFFER = 256


class _StreamSubscriber:
    """One consumer's bounded queue plus its lag state."""

    __slots__ = ("queue", "dropped")

    def __init__(self, buffer_size: int) -> None:
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=buffer_size)
        self.dropped = False


class _SessionStream:
    """The event log of one session plus its live subscribers.

    ``history`` holds every published wire event in order; each subscriber
    carries a *bounded* :class:`asyncio.Queue` that receives events published
    after the subscription.  A subscriber whose queue overflows — a stream
    consumer that stalled while the session kept producing — is marked
    ``dropped``: it receives no further events and its stream ends once it
    has drained what it already buffered, so one stalled consumer can never
    grow memory without limit.  Publishing after :meth:`finish` is
    *impossible* by contract: the event is dropped, recorded in neither the
    history nor any queue (the sentinel marking the end of each queue stays
    the final item).  All mutation happens on the event loop thread, between
    awaits, so no further locking is needed.
    """

    __slots__ = ("history", "subscribers", "closed", "buffer_size")

    def __init__(self, buffer_size: int = DEFAULT_STREAM_BUFFER) -> None:
        self.history: list[dict[str, object]] = []
        self.subscribers: list[_StreamSubscriber] = []
        self.closed = False
        self.buffer_size = buffer_size

    def subscribe(self) -> _StreamSubscriber:
        subscriber = _StreamSubscriber(self.buffer_size)
        self.subscribers.append(subscriber)
        return subscriber

    def _offer(self, subscriber: _StreamSubscriber, item: dict | None) -> None:
        if subscriber.dropped:
            return
        try:
            subscriber.queue.put_nowait(item)
        except asyncio.QueueFull:
            subscriber.dropped = True

    def publish(self, wire: dict[str, object]) -> bool:
        """Record and fan out one event; a no-op returning False after :meth:`finish`."""
        if self.closed:
            return False
        self.history.append(wire)
        for subscriber in self.subscribers:
            self._offer(subscriber, wire)
        return True

    def finish(self) -> None:
        if self.closed:
            return
        self.closed = True
        for subscriber in self.subscribers:
            self._offer(subscriber, None)


class AsyncSessionService:
    """Asyncio facade over :class:`~repro.service.service.SessionService`.

    Parameters
    ----------
    service:
        The synchronous service to wrap (default: a fresh one).  Sharing a
        populated service is supported; its pre-existing sessions are adopted
        lazily and never count against ``max_sessions``.
    max_sessions:
        Backpressure limit: how many live sessions :meth:`create` /
        :meth:`resume` admit before they start *awaiting* a :meth:`close`.
        ``None`` (the default) disables the limit.
    max_workers:
        Size of the bounded thread pool the CPU-bound inference steps run on.
        This caps how many sessions make progress simultaneously; further
        commands queue in the executor, they do not block the loop.  When
        wrapping a :class:`~repro.service.cluster.ClusterSessionService`,
        size it at least to the cluster's worker count — each executor
        thread blocks on one worker pipe, so fewer threads than workers
        leaves processes idle.
    stream_buffer:
        Bound of each stream subscriber's event queue.  A consumer that
        falls more than this many events behind is disconnected (its stream
        ends after it drains what it buffered) instead of growing memory
        without limit.

    Use as an async context manager (or call :meth:`aclose`) so the executor
    threads are released deterministically.
    """

    def __init__(
        self,
        service: SessionService | None = None,
        *,
        max_sessions: int | None = None,
        max_workers: int = DEFAULT_MAX_WORKERS,
        stream_buffer: int = DEFAULT_STREAM_BUFFER,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError(f"max_sessions must be a positive integer, got {max_sessions!r}")
        if max_workers < 1:
            raise ValueError(f"max_workers must be a positive integer, got {max_workers!r}")
        if stream_buffer < 1:
            raise ValueError(f"stream_buffer must be a positive integer, got {stream_buffer!r}")
        self.service = service if service is not None else SessionService()
        self.max_sessions = max_sessions
        self.stream_buffer = stream_buffer
        self._slots = asyncio.Semaphore(max_sessions) if max_sessions is not None else None
        self._slot_holders: set[str] = set()
        self._executor = create_thread_pool(
            max_workers=max_workers, thread_name_prefix="repro-aio"
        )
        self._locks: dict[str, asyncio.Lock] = {}
        self._streams: dict[str, _SessionStream] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    async def _call(self, fn: Callable[..., T], *args: object, **kwargs: object) -> T:
        """Run a synchronous service call on the bounded executor."""
        if self._closed:
            raise SessionServiceError("the async session service is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    def _register(self, session_id: str, holds_slot: bool) -> None:
        # setdefault, not assignment: another task may have adopted the
        # session (visible in the wrapped service mid-create) and subscribed
        # to its stream already — replacing the lock/stream would orphan
        # those subscribers and void the per-session ordering.
        self._locks.setdefault(session_id, asyncio.Lock())
        self._streams.setdefault(session_id, _SessionStream(self.stream_buffer))
        if holds_slot:
            self._slot_holders.add(session_id)

    async def _adopt_if_foreign(self, session_id: str) -> None:
        """Adopt a session created directly on the wrapped sync service.

        The membership check runs on the executor: with a slow backing
        (e.g. a :class:`~repro.service.cluster.ClusterSessionService`,
        where ``session_ids`` is a pipe broadcast to every worker) a
        synchronous call here would stall the whole event loop on every
        unknown-id command.
        """
        if self._closed or session_id in self._locks:
            return
        known = await self._call(self.service.session_ids)
        if self._closed:
            return  # never re-populate the maps aclose() cleared
        if session_id in known:
            self._register(session_id, holds_slot=False)

    async def _lock_for(self, session_id: str) -> asyncio.Lock:
        if self._closed:
            raise SessionServiceError("the async session service is closed")
        await self._adopt_if_foreign(session_id)
        if self._closed:
            raise SessionServiceError("the async session service is closed")
        try:
            return self._locks[session_id]
        except KeyError:
            raise SessionServiceError(f"unknown session id {session_id!r}") from None

    def _reap(self, session_id: str) -> None:
        """Drop the facade state of a session that left the wrapped service.

        Ends its event streams and frees its backpressure slot; a no-op for
        untracked ids.
        """
        self._locks.pop(session_id, None)
        stream = self._streams.pop(session_id, None)
        if stream is not None:
            stream.finish()
        if session_id in self._slot_holders:
            self._slot_holders.discard(session_id)
            if self._slots is not None:
                self._slots.release()

    async def _session_call(
        self, session_id: str, fn: Callable[..., T], *args: object, **kwargs: object
    ) -> T:
        """A :meth:`_call` that reaps the session when it turns out gone.

        A synchronous thread sharing the wrapped service may have closed the
        session behind the facade's back; the wrapped call then raises
        :class:`SessionServiceError`, and the facade must not keep the
        session's stream open or its slot held.
        """
        try:
            return await self._call(fn, *args, **kwargs)
        except SessionServiceError:
            self._reap(session_id)
            raise

    async def _acquire_slot(self) -> None:
        """Await a backpressure slot; raise instead of waiting on a closed service.

        :meth:`aclose` wakes one blocked waiter with a spare slot; each woken
        waiter finds the service closed, passes the slot on to the next
        waiter, and raises — so no create/resume hangs across a shutdown.
        """
        if self._closed:
            raise SessionServiceError("the async session service is closed")
        if self._slots is None:
            return
        await self._slots.acquire()
        if self._closed:
            self._slots.release()
            raise SessionServiceError("the async session service is closed")

    async def _create_session(
        self, fn: Callable[[], SessionDescriptor]
    ) -> SessionDescriptor:
        """The shared create/resume path: slot, spawn, admit — leak-free.

        Awaits a backpressure slot, runs the session-creating sync call via
        :meth:`_spawn`, and registers the result; the slot is released on
        any failure (including cancellation, where :meth:`_spawn` also
        discards the orphaned session).
        """
        await self._acquire_slot()
        try:
            descriptor = await self._spawn(fn)
        except BaseException:
            if self._slots is not None:
                self._slots.release()
            raise
        return self._admit(descriptor)

    async def _spawn(self, fn: Callable[[], SessionDescriptor]) -> SessionDescriptor:
        """Run a session-creating sync call, leak-free under cancellation.

        The executor thread cannot be interrupted: if the awaiting task is
        cancelled mid-create (a request timeout, say), the wrapped service
        still registers the session.  The call is therefore shielded, and on
        cancellation a done-callback closes whatever session the orphaned
        call produced.
        """
        if self._closed:
            raise SessionServiceError("the async session service is closed")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, fn)
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            future.add_done_callback(self._discard_orphan)
            raise

    def _close_orphan(self, session_id: str) -> None:
        """Close an orphaned wrapped-service session off the event loop.

        Runs on the executor while it accepts work (a slow backing must not
        stall the loop); the synchronous fallback only covers a shutdown
        race where the executor is already gone.
        """

        def close_quietly() -> None:
            try:
                self.service.close(session_id)
            except SessionServiceError:
                pass

        try:
            self._executor.submit(close_quietly)
        except RuntimeError:  # executor already shut down (aclose raced us)
            close_quietly()

    def _discard_orphan(self, future: asyncio.Future[SessionDescriptor]) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        self._close_orphan(future.result().session_id)

    def _admit(self, descriptor: SessionDescriptor) -> SessionDescriptor:
        """Register a freshly created/resumed session — unless the service
        closed while the creation was in flight on the executor, in which
        case the orphan is closed in the wrapped service, its slot freed,
        and :class:`SessionServiceError` raised (nothing would ever finish
        its event stream otherwise)."""
        if self._closed:
            self._close_orphan(descriptor.session_id)
            if self._slots is not None:
                self._slots.release()
            raise SessionServiceError("the async session service is closed")
        self._register(descriptor.session_id, holds_slot=self._slots is not None)
        return descriptor

    def _publish(self, session_id: str, event: Event) -> None:
        stream = self._streams.get(session_id)
        if stream is not None:
            stream.publish(event_to_wire(event))

    # ------------------------------------------------------------------ #
    # Table registry
    # ------------------------------------------------------------------ #
    async def register_table(self, table: CandidateTable) -> str:
        """Register a candidate table and return its fingerprint (idempotent).

        The row hashing runs on the executor.  Never raises for a valid
        table; :class:`SessionServiceError` if the service is closed.
        """
        return await self._call(self.service.register_table, table)

    async def tables(self) -> dict[str, str]:
        """The registered tables: ``fingerprint -> table name``."""
        return await self._call(self.service.tables)

    async def table(self, fingerprint: str) -> CandidateTable:
        """The registered table with the given fingerprint.

        Raises :class:`SessionServiceError` for an unknown fingerprint.
        """
        return await self._call(self.service.table, fingerprint)

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    async def create(
        self,
        table: CandidateTable | str,
        mode: InteractionMode | str = InteractionMode.GUIDED,
        strategy: Strategy | str | None = None,
        k: int | None = None,
        strict: bool = True,
    ) -> SessionDescriptor:
        """Create a session; awaits a free slot when ``max_sessions`` is set.

        Arguments and validation are those of
        :meth:`~repro.service.service.SessionService.create`: raises
        :class:`ValueError` for options the mode does not accept,
        :class:`~repro.exceptions.StrategyError` for invalid option values or
        unknown strategy names, and :class:`SessionServiceError` for an
        unknown table fingerprint.  On any such error the awaited slot is
        released again.  Raises :class:`SessionServiceError` when the
        service is (or gets) closed — including while awaiting a slot.
        """
        return await self._create_session(
            functools.partial(
                self.service.create, table, mode=mode, strategy=strategy, k=k, strict=strict
            )
        )

    async def resume(
        self,
        payload: dict[str, object],
        table: CandidateTable | str | None = None,
    ) -> SessionDescriptor:
        """Restore a saved session document as a new live session.

        Semantics (and exceptions) of
        :meth:`~repro.service.service.SessionService.resume`; like
        :meth:`create`, awaits a free slot when ``max_sessions`` is set and
        releases it if the restore fails.
        """
        return await self._create_session(
            functools.partial(self.service.resume, payload, table=table)
        )

    async def describe(self, session_id: str) -> SessionDescriptor:
        """A snapshot of the session's kind and progress.

        Raises :class:`SessionServiceError` for an unknown (or already
        closed) session id.
        """
        return await self._session_call(session_id, self.service.describe, session_id)

    async def session_ids(self) -> list[str]:
        """Ids of all live sessions (including adopted ones)."""
        return await self._call(self.service.session_ids)

    async def save(self, session_id: str) -> dict[str, object]:
        """The session as a v3 persistence document (labels + session kind + strictness).

        Taken under the session lock, so the document is a consistent
        snapshot even while other tasks are answering.  Raises
        :class:`SessionServiceError` for an unknown session id.
        """
        lock = await self._lock_for(session_id)
        async with lock:
            return await self._session_call(session_id, self.service.save, session_id)

    async def close(self, session_id: str) -> SessionDescriptor:
        """Close a session: remove it, end its event streams, free its slot.

        Returns the final descriptor.  Raises :class:`SessionServiceError`
        when the session id is unknown — in particular on a double close.
        In-flight commands against the session finish first (the close queues
        on the session lock like any other command).  The facade's own state
        (lock, stream, backpressure slot) is released even when the wrapped
        service raises — e.g. when a synchronous thread sharing the service
        closed the session first — so streams end and slots never leak.
        """
        lock = await self._lock_for(session_id)
        async with lock:
            try:
                return await self._call(self.service.close, session_id)
            finally:
                self._reap(session_id)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    async def next_question(self, session_id: str) -> Event:
        """The session's next protocol event (question, batch, or converged).

        The returned event is also published to the session's event stream.
        Raises :class:`SessionServiceError` for an unknown session id and
        :class:`~repro.exceptions.StrategyError` when the underlying strategy
        cannot choose (both leave the session unchanged).
        """
        lock = await self._lock_for(session_id)
        async with lock:
            event = await self._session_call(
                session_id, self.service.next_question, session_id
            )
            self._publish(session_id, event)
            return event

    async def answer(
        self, session_id: str, label: LabelLike, tuple_id: int | None = None
    ) -> LabelApplied:
        """Apply one label to the session and publish the resulting event.

        Semantics of :meth:`~repro.core.stepper.InferenceSession.submit`:
        raises :class:`SessionServiceError` for an unknown session,
        :class:`~repro.exceptions.StrategyError` when a batch/manual session
        is answered without ``tuple_id``, and
        :class:`~repro.exceptions.InconsistentLabelError` for an unparseable
        label or a contradicting one on a strict session.
        """
        lock = await self._lock_for(session_id)
        async with lock:
            applied = await self._session_call(
                session_id, self.service.answer, session_id, label, tuple_id=tuple_id
            )
            self._publish(session_id, applied)
            return applied

    async def answer_many(
        self, session_id: str, answers: AnswerSet
    ) -> list[LabelApplied]:
        """Apply a batch of ``tuple_id -> label`` answers atomically.

        The whole batch runs under the session lock, so its
        :class:`LabelApplied` events appear contiguously in the stream.
        Exceptions as for :meth:`answer`; tuples made uninformative by
        earlier answers of the same batch are skipped, per
        :meth:`~repro.core.stepper.InferenceSession.submit_many`.  When a
        mid-batch answer fails, the answers applied before it stay applied —
        their events are still published to the stream (the log stays
        gap-free) before the exception propagates.
        """
        lock = await self._lock_for(session_id)
        async with lock:
            try:
                events = await self._session_call(
                    session_id, self.service.answer_many, session_id, answers
                )
            except Exception as exc:
                for event in getattr(exc, "applied_events", ()):
                    self._publish(session_id, event)
                raise
            for event in events:
                self._publish(session_id, event)
            return events

    # ------------------------------------------------------------------ #
    # Event streams
    # ------------------------------------------------------------------ #
    async def events(
        self, session_id: str, replay: bool = True
    ) -> AsyncIterator[dict[str, object]]:
        """Stream the session's protocol events in JSON wire form.

        Yields every event the session has already produced (unless
        ``replay=False``), then live events as commands produce them, and
        ends when the session is closed.  Multiple consumers may stream the
        same session; each gets the full sequence.  A consumer that falls
        more than ``stream_buffer`` events behind is disconnected: its
        stream ends early (after the events it already buffered) rather
        than buffering without bound.  Raises :class:`SessionServiceError`
        if the session id is unknown when the stream starts, or the service
        is closed.
        """
        if self._closed:
            raise SessionServiceError("the async session service is closed")
        await self._adopt_if_foreign(session_id)
        stream = self._streams.get(session_id)
        if stream is None:
            raise SessionServiceError(f"unknown session id {session_id!r}")
        subscriber = stream.subscribe()
        # Snapshot synchronously, *after* subscribing: anything published
        # from here on lands in the queue, so the hand-off is gap-free.
        history = list(stream.history) if replay else []
        already_closed = stream.closed
        try:
            for wire in history:
                yield wire
            if already_closed:
                return
            queue = subscriber.queue
            while True:
                # A dropped (lagging) subscriber receives nothing further —
                # once its buffered backlog is drained, the stream ends.
                if subscriber.dropped and queue.empty():
                    return
                wire = await queue.get()
                if wire is None:
                    return
                yield wire
        finally:
            if subscriber in stream.subscribers:
                stream.subscribers.remove(subscriber)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Shut the service down: end all event streams, release the executor.

        Live sessions are *not* closed in the wrapped synchronous service
        (it may be shared); their streams end.  Idempotent.  Commands after
        ``aclose`` raise :class:`SessionServiceError` — including
        :meth:`create`/:meth:`resume` calls currently awaiting a
        backpressure slot, which are woken and raise instead of hanging.
        """
        if self._closed:
            return
        self._closed = True
        for stream in self._streams.values():
            stream.finish()
        self._streams.clear()
        self._locks.clear()
        if self._slots is not None:
            # Start the wake-up cascade for any waiters blocked in
            # _acquire_slot (each re-releases before raising).
            self._slots.release()
        self._executor.shutdown(wait=False, cancel_futures=False)

    async def __aenter__(self) -> AsyncSessionService:
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AsyncSessionService(sessions={len(self.service)}, "
            f"max_sessions={self.max_sessions})"
        )
