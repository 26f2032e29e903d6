"""Shared pieces of the session benchmark: specs, oracle, recorder, statistics."""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
from dataclasses import dataclass

from hostref import HostReference

from repro.core.queries import JoinQuery
from repro.relational.candidate import CandidateTable
from repro.service.protocol import Converged, Event, encode_event

#: Host reference time the scaled timings are normalised to (milliseconds).
NOMINAL_REF_MS = 40.0
#: Percentile reported beside the median; needs >= 10 samples beyond it.
TAIL_PERCENTILE = 90


@dataclass(frozen=True)
class SessionSpec:
    """One session of a workload: which table, which goal, which driver."""

    key: str
    table_key: str
    goal: JoinQuery
    mode: str = "guided"
    strategy: str | None = "lookahead-entropy"
    k: int | None = None


def scope(tracer, name: str, session: str | None = None, root: bool = False):
    """A span the benchmark opens itself (a no-op in untraced runs)."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.root(name, session) if root else tracer.span(name)


class PrimedOracle:
    """Answers membership questions for one goal from a precomputed id set.

    Priming evaluates the goal once during set-up, so an answer costs one set
    lookup and the oracle stays out of the measured step times.
    """

    def __init__(self, table: CandidateTable, goal: JoinQuery) -> None:
        self.table = table
        self.goal = goal
        self._selected = goal.evaluate(table)

    def label(self, tuple_id: int) -> str:
        return "yes" if tuple_id in self._selected else "no"

    def answers(self, tuple_ids) -> list[tuple[int, str]]:
        return [(tuple_id, self.label(tuple_id)) for tuple_id in tuple_ids]

    def accepts(self, event: Event) -> bool:
        """Whether a ``Converged`` event names a query instance-equivalent to the goal."""
        return isinstance(event, Converged) and event.as_join_query().instance_equivalent(
            self.goal, self.table
        )


class Recorder:
    """Raw measurements of one run, in seconds, each tagged with its place
    among the host reference samples (how many had been taken before it)."""

    def __init__(self, host: HostReference) -> None:
        self.host = host
        self.setup_s: list[tuple[float, int]] = []
        self.first_question_s: list[tuple[float, int]] = []
        self.label_s: list[tuple[float, int]] = []
        self.walls_s: list[tuple[float, int]] = []
        self.labels: list[int] = []
        self.sessions = 0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.event_bytes = 0
        self.problems: list[str] = []

    def _mark(self) -> int:
        return len(self.host.samples_ms)

    def add_setup(self, seconds: float) -> None:
        self.setup_s.append((seconds, self._mark()))

    def add_session(self, key: str, first: float, steps: list[float], events: list[Event]) -> None:
        """Record one checked, timed session."""
        mark = self._mark()
        self.record_events(key, events)
        self.first_question_s.append((first, mark))
        self.label_s.extend((step, mark) for step in steps)
        self.labels.append(events[-1].step)
        self.sessions += 1

    def add_wall(self, seconds: float) -> None:
        """Closed-loop time in which ``sessions`` were served."""
        self.walls_s.append((seconds, self._mark()))

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{key}: {reason}")

    def record_events(self, key: str, events: list[Event]) -> None:
        """Keep the digest and the wire size of a session's encoded events.

        Events are encoded and hashed one at a time (lines joined by ``\\n``),
        so the harness never holds a whole session's wire form at once: on
        ``large-table`` one event can list 10⁶ tuple ids.
        """
        digest = hashlib.sha256()
        for number, event in enumerate(events):
            line = encode_event(event).encode("utf-8")
            self.event_bytes += len(line)
            digest.update(b"\n" + line if number else line)
        self.digests[key] = digest.hexdigest()

    def run_digest(self) -> str:
        """Digest of every session's events, independent of the run order."""
        digest = hashlib.sha256()
        for key in sorted(self.digests):
            digest.update(f"{key}={self.digests[key]}\n".encode())
        return digest.hexdigest()


def tail_index(count: int) -> int:
    """Index into a sorted sample of the nearest-rank ``TAIL_PERCENTILE``."""
    return max(0, math.ceil(count * TAIL_PERCENTILE / 100) - 1)


def _metrics(setup, first, labels, walls, sessions) -> dict[str, float]:
    labels = sorted(labels)
    return {
        "setup_s": statistics.median(setup),
        "first_question_ms": statistics.median(first) * 1e3,
        "label_p50_ms": statistics.median(labels) * 1e3,
        "label_p90_ms": labels[tail_index(len(labels))] * 1e3,
        "sessions_per_s": sessions / sum(walls),
    }


def summarise(recorder: Recorder, peak_rss_mb: float) -> dict:
    """End-to-end metrics: raw values, and timings scaled to the nominal host.

    Each measurement is scaled by the host reference samples taken right
    before and right after it: ``scaled = raw × NOMINAL_REF_MS / local_ref_ms``
    (the inverse for the throughput).  The host drifts within a run, so the
    reference taken next to a measurement tracks it better than the run-wide
    median, which is printed as ``host_ref_ms``.
    """
    samples = recorder.host.samples_ms

    def scaled(pairs):
        return [
            value * NOMINAL_REF_MS / statistics.fmean(samples[max(0, mark - 1) : mark + 1])
            for value, mark in pairs
        ]

    def plain(pairs):
        return [value for value, _ in pairs]

    series = (recorder.setup_s, recorder.first_question_s, recorder.label_s, recorder.walls_s)
    raw = _metrics(*(plain(pairs) for pairs in series), recorder.sessions)
    metrics = _metrics(*(scaled(pairs) for pairs in series), recorder.sessions)
    metrics["questions_per_session"] = statistics.fmean(recorder.labels)
    metrics["peak_rss_mb"] = peak_rss_mb
    count = len(recorder.label_s)
    counts = {
        "setups": len(recorder.setup_s),
        "sessions": recorder.sessions,
        "label_samples": count,
        "label_samples_beyond_p90": count - tail_index(count) - 1,
    }
    return {"raw": raw, "scaled": metrics, "counts": counts}


#: End-to-end metric units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "first_question_ms": "ms",
    "label_p50_ms": "ms",
    "label_p90_ms": "ms",
    "sessions_per_s": "1/s",
    "questions_per_session": "labels",
    "peak_rss_mb": "MB",
}
