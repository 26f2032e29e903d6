"""Tests for the thread fan-out: the automatic sharding rule and the shared pool."""

from __future__ import annotations

import contextvars
import os
import signal
import time

import pytest

from repro.core import parallel
from repro.core.kernels import (
    HAVE_NUMPY,
    NumpyTypeTable,
    PyTypeTable,
    ShardedTypeTable,
    make_type_table,
    use_backend,
)

C = parallel.TYPES_PER_SHARD

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the rule only fans numpy tables")


@pytest.fixture(autouse=True)
def _release_pool():
    yield
    parallel.shutdown_pool()


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(parallel, "available_cpus", lambda: count)


def _table(types: int, wide: bool = False, backend: str = "numpy"):
    base = 1 << 63 if wide else 0
    return make_type_table([base + mask for mask in range(types)], [1] * types, backend=backend)


class TestModeResolution:
    """The automatic rule: which tables shard, into how many shards."""

    @needs_numpy
    def test_single_cpu_stays_flat(self, monkeypatch):
        _cpus(monkeypatch, 1)
        assert isinstance(_table(8 * C), NumpyTypeTable)
        assert parallel.parallel_mode() == "serial"

    @needs_numpy
    def test_below_two_shards_of_types_stays_flat(self, monkeypatch):
        _cpus(monkeypatch, 8)
        assert isinstance(_table(2 * C - 1), NumpyTypeTable)
        assert parallel.parallel_mode() == "thread"

    def test_python_backend_stays_flat(self, monkeypatch):
        _cpus(monkeypatch, 8)
        assert isinstance(_table(4 * C, backend="python"), PyTypeTable)
        with use_backend("python"):
            assert parallel.parallel_mode() == "serial"

    def test_masks_past_the_int64_lane_stay_flat(self, monkeypatch):
        _cpus(monkeypatch, 8)
        assert isinstance(_table(4 * C, wide=True), PyTypeTable)

    def test_shard_count_resolution(self, monkeypatch):
        for cpus, types, expected in [
            (1, 9 * C, 1), (2, 2 * C - 1, 1), (2, 2 * C, 2), (2, 9 * C, 2),
            (4, 3 * C + 7, 3), (4, 9 * C, 4), (16, 5 * C, 5),
        ]:
            _cpus(monkeypatch, cpus)
            assert parallel.auto_shards(types) == min(cpus, types // C) == expected

    def test_auto_resolves_by_numpy_availability(self, monkeypatch):
        _cpus(monkeypatch, 4)
        assert parallel.parallel_mode() == ("thread" if HAVE_NUMPY else "serial")
        with use_backend("python"):
            assert parallel.parallel_mode() == "serial"

    @needs_numpy
    @pytest.mark.parametrize(
        ("cpus", "types", "expected"),
        [(2, 2 * C, 2), (2, 9 * C, 2), (4, 3 * C + 7, 3), (4, 9 * C, 4), (16, 5 * C, 5)],
    )
    def test_large_numpy_tables_shard(self, monkeypatch, cpus, types, expected):
        _cpus(monkeypatch, cpus)
        table = _table(types)
        assert isinstance(table, ShardedTypeTable)
        assert len(table.shards) == expected
        assert all(isinstance(shard, NumpyTypeTable) for shard in table.shards)
        assert parallel.parallel_mode() == "thread"

    def test_cpu_count_follows_the_process_affinity(self, monkeypatch):
        # A process pinned to 2 CPUs of a 64-CPU host sizes its fan for 2.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert parallel.available_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parallel.available_cpus() == 64

    def test_explicit_shards_always_fan(self, monkeypatch):
        _cpus(monkeypatch, 1)
        table = make_type_table([1, 2, 3], [1, 1, 1], backend="python", shards=2)
        assert isinstance(table, ShardedTypeTable)
        assert len(table.shards) == 2


class TestParallelExecutor:
    """The shared shard pool behind :func:`parallel.fan_out`."""

    def test_pool_starts_lazily_and_single_payloads_skip_it(self):
        parallel.shutdown_pool()
        assert parallel.fan_out(lambda x: x + 1, []) == []
        assert parallel.fan_out(lambda x: x + 1, [41]) == [42]
        assert parallel._pool is None  # one payload cannot fan out
        assert parallel.fan_out(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert parallel._pool is not None
        parallel.shutdown_pool()
        parallel.shutdown_pool()  # idempotent
        assert parallel._pool is None
        assert parallel.fan_out(lambda x: -x, [1, 2]) == [-1, -2]  # restarts lazily

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_fans_out_on_a_pool_of_its_own(self):
        # The parent's pool threads do not survive fork; a child that reused
        # the inherited pool object would wait forever for its shards.
        assert parallel.fan_out(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        inherited = parallel._pool
        assert inherited is not None
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            status = 1
            try:
                signal.alarm(10)  # a hang fails the test instead of stalling it
                if (
                    parallel._pool is None
                    and parallel.fan_out(lambda x: x * 10, [1, 2, 3]) == [10, 20, 30]
                    and parallel._pool is not inherited
                ):
                    status = 0
                parallel.shutdown_pool()
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert parallel._pool is inherited  # the parent's pool is untouched
        assert parallel.fan_out(lambda x: -x, [1, 2]) == [-1, -2]

    def test_a_failing_task_raises_after_every_task_finished(self):
        finished = []

        def task(item):
            if item == 0:
                raise ValueError("inline shard failed")
            time.sleep(0.02)
            finished.append(item)

        with pytest.raises(ValueError, match="inline shard failed"):
            parallel.fan_out(task, [0, 1, 2])
        assert sorted(finished) == [1, 2]


class TestWorkerTask:
    """What a fanned task sees, and how per-shard results combine."""

    def test_tasks_see_the_callers_context(self):
        marker = contextvars.ContextVar("marker", default=None)

        def task(item):
            seen = marker.get()
            marker.set(item)  # confined to this task's own context copy
            return seen

        token = marker.set("caller")
        try:
            assert parallel.fan_out(task, list(range(6))) == ["caller"] * 6
            assert marker.get() == "caller"
        finally:
            marker.reset(token)

    def test_merge_partial_counts_sums_elementwise(self):
        assert parallel.merge_partial_counts([]) == []
        assert parallel.merge_partial_counts([[(1, 2), (3, 4)]]) == [(1, 2), (3, 4)]
        assert parallel.merge_partial_counts(
            [[(1, 2), (3, 4)], [(10, 20), (30, 40)]]
        ) == [(11, 22), (33, 44)]
