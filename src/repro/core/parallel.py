"""Intra-session thread fan-out: the one pool behind sharded scoring.

The cluster tier parallelizes *across* sessions; this module parallelizes
*inside* one, on exactly one path: a
:class:`~repro.core.kernels.ShardedTypeTable` fans its per-shard lookahead
kernel (prune counts) over one shared thread pool.  The numpy K×I
expressions release the GIL, so shards score concurrently against shared
memory with nothing copied or pickled.

There is no knob.  :func:`~repro.core.kernels.make_type_table` shards a
table only when the flat table would be a numpy table, the host has at
least two CPUs and the table is large enough to pay for the hand-off:
``shards = min(available_cpus(), distinct_types // TYPES_PER_SHARD)``, flat
when that is below 2 (see :func:`auto_shards`).

This module is also the **only sanctioned pool-creation site** of the
library (enforced by analysis rule RPR007): other layers that own an
executor obtain it from :func:`create_thread_pool`.  The shared shard pool is
created lazily, on the first fanned call, and released by
:func:`shutdown_pool` (a later fan-out starts a fresh one).  A forked
child forgets the parent's pool and starts its own on its first fan-out.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any

#: Distinct equality types each shard must hold.  Measured on 2 CPUs with
#: numpy (whole ``lookahead-entropy`` sessions, flat vs 2 shards): the fan
#: breaks even at about 480 types (~240 per shard) and wins by 1.16× at
#: 1,100 types and 1.6× at 1,500; 512 per shard keeps every shard at twice
#: the break-even size, so small and mid-sized tables stay flat.  Only the
#: 2-shard case has been measured: the rule gives 3 or more shards on hosts
#: with more CPUs and tables past 1,535 types, and whether that pays is
#: unverified.
TYPES_PER_SHARD = 512


def available_cpus() -> int:
    """The CPUs this process may run on (at least 1).

    Counts the process's CPU affinity where the platform reports it, so a
    process pinned to 2 CPUs of a larger host sizes its fan-out for 2.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def auto_shards(distinct_types: int) -> int:
    """How many shards the automatic rule gives a numpy table of this size.

    ``min(available_cpus(), distinct_types // TYPES_PER_SHARD)``; a result
    below 2 means the table stays flat.
    """
    return min(available_cpus(), distinct_types // TYPES_PER_SHARD)


def parallel_mode() -> str:
    """``thread`` when large type tables fan out on this host, else ``serial``.

    Fan-out needs the numpy kernels (the pure-Python loops hold the GIL) and
    at least two CPUs; which tables then shard depends on their size
    (:func:`auto_shards`).
    """
    # Deferred: kernels imports this module at import time (the sharded
    # tables fan out through it), so a module-level import would be a cycle.
    from .kernels import numpy_enabled

    return "thread" if numpy_enabled() and available_cpus() >= 2 else "serial"


def even_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into contiguous spans whose sizes differ by ≤ 1.

    Spans are returned in order, cover ``range(total)`` exactly, and the
    first ``total % parts`` spans carry the extra element — so deliberately
    *uneven* boundaries exist whenever ``parts ∤ total``.
    """
    if total <= 0:
        return [(0, 0)]
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def create_thread_pool(
    max_workers: int | None = None, thread_name_prefix: str = "repro-pool"
) -> ThreadPoolExecutor:
    """A plain thread pool for layers that own their executor (e.g. the
    asyncio facade's ``run_in_executor`` bridge).

    Keeping the construction here — rather than at each call site — is what
    lets rule RPR007 pin pool creation to this module; the *caller* still
    owns the pool and is responsible for shutting it down.
    """
    return ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix=thread_name_prefix)


_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _shard_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = create_thread_pool(
                max_workers=available_cpus(), thread_name_prefix="repro-shard"
            )
        return _pool


def fan_out(task: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """``[task(item) for item in items]``, the items run concurrently.

    The first item runs on the calling thread and the rest on the shared
    shard pool, so one item never starts the pool.  Each fanned call runs in
    its own copy of the caller's :mod:`contextvars` context (one copy per
    call: a context cannot be entered by two threads at once), so context
    the caller set — a tracing span, say — is visible inside the task.
    """
    if len(items) <= 1:
        return [task(item) for item in items]
    pool = _shard_pool()
    futures = [
        pool.submit(contextvars.copy_context().run, task, item) for item in items[1:]
    ]
    try:
        first = contextvars.copy_context().run(task, items[0])
    finally:
        wait(futures)  # no shard is still running when this returns or raises
    return [first, *(future.result() for future in futures)]


def _forget_pool_in_child() -> None:
    # A forked child inherits the parent's pool object but none of its
    # threads (and possibly a lock another thread held at fork time): start
    # over, so the child's first fan-out creates a pool of its own.
    global _pool, _pool_lock
    _pool_lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def shutdown_pool() -> None:
    """Release the shared shard pool's threads (idempotent)."""
    global _pool
    with _pool_lock:
        pool = _pool
        _pool = None
    if pool is not None:
        pool.shutdown(wait=True)


def merge_partial_counts(
    partials: Sequence[Sequence[tuple[int, int]]],
) -> list[tuple[int, int]]:
    """Elementwise sum of per-shard ``(if_positive, if_negative)`` partials.

    Prune counts are exact integer sums over the informative snapshot, and
    the snapshot is partitioned by the shards — so summing the per-shard
    partial sums reproduces the unsharded kernel's output bit for bit,
    regardless of shard boundaries or completion order.
    """
    if not partials:
        return []
    if len(partials) == 1:
        return list(partials[0])
    totals = [[positive, negative] for positive, negative in partials[0]]
    for partial in partials[1:]:
        for index, (positive, negative) in enumerate(partial):
            row = totals[index]
            row[0] += positive
            row[1] += negative
    return [(positive, negative) for positive, negative in totals]
