"""A fixed host-speed reference kernel.

Shared small hosts drift by tens of percent over a few seconds, which is
larger than the changes the benchmark must resolve.  The benchmark therefore
runs this kernel between sessions, while the program is idle, and scales
every timing by the kernel samples taken just before and just after it (see
``common.summarise``).  The kernel mixes the two kinds of work the program
does — interpreted dict bookkeeping and a numpy array operation — and
imports nothing from the program, so no change to the program can move it.
Its arrays hold about 4 MB (the whole kernel adds about 10 MB), so that it
adds little to the peak memory the benchmark reports.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional for the program too
    _np = None

#: Interpreted part: dict updates over this many keys (~20 ms on a 2-vCPU host).
DICT_KEYS = 80_000
#: Array part: ``SORT_REPEATS`` sorts of this many floats, each into the same
#: preallocated buffer (~20 ms in all on the same host).
SORT_VALUES = 250_000
SORT_REPEATS = 15


class HostReference:
    """Times the reference kernel and keeps every sample of one run."""

    def __init__(self, seed: int = 20140901) -> None:
        rng = random.Random(seed)
        self._keys = [rng.randrange(1 << 30) for _ in range(DICT_KEYS)]
        if _np is not None:
            self._values = _np.random.default_rng(seed).random(SORT_VALUES)
            self._buffer = _np.empty_like(self._values)
        else:
            self._values = [rng.random() for _ in range(SORT_VALUES)]
            self._buffer = list(self._values)
        self.samples_ms: list[float] = []

    @property
    def kind(self) -> str:
        """Which array implementation the kernel used (provenance)."""
        return "dict+numpy.sort" if _np is not None else "dict+sorted"

    def run(self) -> float:
        """Collect garbage, then run the kernel once; record and return its time (ms).

        Callers run this between sessions, while the program is idle.  The
        collection first leaves every session the same garbage-collector
        state whatever ran before it, so the shuffled order cannot move a
        full collection into a different session's timings.
        """
        gc.collect()
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for key in self._keys:
            bucket = key & 0x3FFF
            counts[bucket] = counts.get(bucket, 0) + 1
        buffer = self._buffer
        for _ in range(SORT_REPEATS):
            buffer[:] = self._values
            buffer.sort()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if not buffer[0] <= buffer[-1] or sum(counts.values()) != DICT_KEYS:
            raise RuntimeError("host reference kernel produced a wrong result")
        self.samples_ms.append(elapsed_ms)
        return elapsed_ms

    def median_ms(self) -> float:
        """The run's host reference time: the median of all samples."""
        if not self.samples_ms:
            raise RuntimeError("the host reference kernel has not run yet")
        return statistics.median(self.samples_ms)
