"""Crowd-batch dispatch: many simulated workers answering one session's batches.

The paper motivates join inference for *crowdsourcing*: the membership
questions are cheap enough for untrained workers, and minimising their number
minimises the bill.  This module reproduces that serving scenario end-to-end
on top of the asyncio service:

* :class:`WorkerProfile` / :class:`SimulatedWorker` — one crowd worker with a
  latency model (mean ± jitter, served by ``asyncio.sleep``) and a noise
  model (the ground-truth answer flips with ``error_rate``), both driven by a
  seeded per-worker RNG so runs are reproducible;
* :func:`majority_vote` — the aggregation rule: each question is asked to an
  odd number of workers and the majority label wins, which is how real crowd
  platforms defend against noisy workers;
* :class:`CrowdDispatcher` — the loop: pull the session's next event, fan the
  proposed batch out across the worker pool (``votes_per_question`` workers
  per tuple, all questions in flight concurrently), aggregate the votes, and
  feed the winners back through
  :meth:`~repro.service.aio.AsyncSessionService.answer_many` — until the
  session converges.

Task-safety: a :class:`SimulatedWorker` answers one question at a time per
call but holds no shared mutable state besides its RNG and counters, which
are only touched from the event loop thread; one worker pool may therefore
serve many dispatchers (and many sessions) concurrently in the same loop.

Quickstart (guided by a known goal query, 5 workers, one of them sloppy)::

    workers = simulated_crowd(goal, num_workers=5, error_rate=0.1,
                              mean_latency=0.05, seed=7)
    dispatcher = CrowdDispatcher(service, workers, votes_per_question=3)
    report = await dispatcher.run(descriptor.session_id)
    assert report.converged
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Sequence
from dataclasses import dataclass

from ..core.examples import Label
from ..core.oracle import GoalQueryOracle, NoisyOracle, Oracle
from ..core.protocol import BatchQuestionsAsked, Converged, QuestionAsked
from ..core.queries import JoinQuery
from ..exceptions import ReproError
from ..relational.candidate import CandidateTable
from .aio import AsyncSessionService


class DispatchError(ReproError):
    """The crowd dispatcher was configured or used inconsistently."""


@dataclass(frozen=True)
class WorkerProfile:
    """How one simulated crowd worker behaves.

    ``mean_latency`` / ``latency_jitter`` model the seconds a worker takes to
    answer (uniform in ``mean ± jitter``, clamped at 0); ``error_rate`` is
    the probability each answer flips away from the ground truth.
    """

    name: str
    mean_latency: float = 0.0
    latency_jitter: float = 0.0
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_latency < 0 or self.latency_jitter < 0:
            raise DispatchError(
                f"worker {self.name!r}: latency parameters must be >= 0"
            )
        if not 0.0 <= self.error_rate <= 1.0:
            raise DispatchError(
                f"worker {self.name!r}: error_rate must be within [0, 1], "
                f"got {self.error_rate}"
            )


class SimulatedWorker:
    """One crowd worker: ground truth from an oracle, plus latency and noise.

    The worker is *async*: :meth:`answer` sleeps out its simulated latency
    (yielding the event loop, which is what makes concurrent sessions
    overlap) before producing the — possibly flipped — label.  ``seed`` fixes
    the worker's private RNG; two workers with different seeds err on
    different questions.
    """

    def __init__(
        self, profile: WorkerProfile, oracle: Oracle, seed: int | None = None
    ) -> None:
        self.profile = profile
        self.oracle = oracle
        self._rng = random.Random(seed)
        # The noise model is the library's NoisyOracle, not a re-implementation;
        # this worker only adds the latency model on top.
        self._answerer: Oracle = (
            NoisyOracle(oracle, profile.error_rate, seed=seed)
            if profile.error_rate
            else oracle
        )
        self.answers_given = 0

    @property
    def errors_made(self) -> int:
        """How many of this worker's answers flipped away from the truth."""
        return self._answerer.flips if isinstance(self._answerer, NoisyOracle) else 0

    async def answer(self, table: CandidateTable, tuple_id: int) -> Label:
        """This worker's answer to one membership question.

        Raises whatever the backing oracle raises (e.g.
        :class:`~repro.exceptions.OracleError` for a tuple it cannot label).
        """
        profile = self.profile
        if profile.mean_latency or profile.latency_jitter:
            jitter = self._rng.uniform(-profile.latency_jitter, profile.latency_jitter)
            delay = max(0.0, profile.mean_latency + jitter)
            if delay:
                await asyncio.sleep(delay)
        label = self._answerer.label(table, tuple_id)
        self.answers_given += 1
        return label

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulatedWorker({self.profile.name!r}, answers={self.answers_given}, "
            f"errors={self.errors_made})"
        )


def simulated_crowd(
    goal: JoinQuery,
    num_workers: int,
    error_rate: float = 0.0,
    mean_latency: float = 0.0,
    latency_jitter: float = 0.0,
    seed: int = 0,
) -> list[SimulatedWorker]:
    """A homogeneous worker pool answering according to ``goal``.

    All workers share one :class:`~repro.core.oracle.GoalQueryOracle` (the
    ground truth is deterministic, so sharing only saves the repeated query
    evaluation) but carry private, distinctly-seeded RNGs.  Raises
    :class:`DispatchError` for a non-positive ``num_workers`` and validates
    the profile parameters per :class:`WorkerProfile`.
    """
    if num_workers < 1:
        raise DispatchError(f"num_workers must be positive, got {num_workers!r}")
    oracle = GoalQueryOracle(goal)
    return [
        SimulatedWorker(
            WorkerProfile(
                name=f"worker-{index}",
                mean_latency=mean_latency,
                latency_jitter=latency_jitter,
                error_rate=error_rate,
            ),
            oracle,
            seed=seed * 7919 + index,
        )
        for index in range(num_workers)
    ]


def majority_vote(votes: Sequence[Label]) -> Label:
    """The majority label of a non-empty, odd-sized vote set.

    Raises :class:`DispatchError` on an empty or tied vote — callers should
    ask an odd number of workers, which :class:`CrowdDispatcher` enforces.
    """
    if not votes:
        raise DispatchError("cannot aggregate an empty vote set")
    positives = sum(1 for vote in votes if vote is Label.POSITIVE)
    negatives = len(votes) - positives
    if positives == negatives:
        raise DispatchError(f"tied vote ({positives} vs {negatives}); use an odd vote count")
    return Label.POSITIVE if positives > negatives else Label.NEGATIVE


@dataclass(frozen=True)
class CrowdRunReport:
    """What one dispatched session cost and produced.

    ``questions`` counts distinct tuples asked about, ``votes`` the worker
    answers collected (``questions × votes_per_question``), ``contested`` the
    questions whose votes were not unanimous (i.e. where majority vote
    actually earned its keep).  ``query`` / ``atoms`` are the inferred
    query's rendering and canonical attribute pairs when the session
    converged.
    """

    session_id: str
    converged: bool
    rounds: int
    questions: int
    votes: int
    contested: int
    query: str | None
    atoms: tuple[tuple[str, str], ...] | None = None

    def as_dict(self) -> dict[str, object]:
        """Plain-dictionary form for JSON responses and reports."""
        return {
            "session_id": self.session_id,
            "converged": self.converged,
            "rounds": self.rounds,
            "questions": self.questions,
            "votes": self.votes,
            "contested": self.contested,
            "query": self.query,
            "atoms": None if self.atoms is None else [list(pair) for pair in self.atoms],
        }


class CrowdDispatcher:
    """Drives one session per :meth:`run` call through a pool of workers.

    Parameters
    ----------
    service:
        The :class:`~repro.service.aio.AsyncSessionService` owning the
        sessions.
    workers:
        The pool.  Question *j* of a batch goes to ``votes_per_question``
        consecutive workers (round-robin), so load spreads evenly.
    votes_per_question:
        How many workers answer each question; must be odd (majority vote)
        and at most the pool size.
    max_rounds:
        Safety valve: give up (``converged=False`` in the report) after this
        many batch rounds.  ``None`` means run until convergence.

    Raises :class:`DispatchError` at construction for an empty pool, an even
    or oversized vote count, or a non-positive ``max_rounds``.

    One dispatcher may serve many sessions concurrently (``run`` holds no
    dispatcher-wide state), and works with every session mode: guided
    sessions are treated as batches of one.
    """

    def __init__(
        self,
        service: AsyncSessionService,
        workers: Sequence[SimulatedWorker],
        votes_per_question: int = 3,
        max_rounds: int | None = None,
    ) -> None:
        if not workers:
            raise DispatchError("the worker pool must not be empty")
        if votes_per_question < 1 or votes_per_question % 2 == 0:
            raise DispatchError(
                f"votes_per_question must be a positive odd number, got {votes_per_question!r}"
            )
        if votes_per_question > len(workers):
            raise DispatchError(
                f"votes_per_question={votes_per_question} exceeds the pool size "
                f"({len(workers)} workers)"
            )
        if max_rounds is not None and max_rounds < 1:
            raise DispatchError(f"max_rounds must be positive, got {max_rounds!r}")
        self.service = service
        self.workers = list(workers)
        self.votes_per_question = votes_per_question
        self.max_rounds = max_rounds

    async def _collect_votes(
        self, table: CandidateTable, tuple_ids: Sequence[int], offset: int
    ) -> tuple[list[tuple[int, Label]], int]:
        """Fan the batch out to the pool and majority-aggregate the answers.

        All ``len(tuple_ids) × votes_per_question`` worker answers are in
        flight concurrently; their simulated latencies overlap.  Returns the
        aggregated ``(tuple_id, label)`` pairs plus how many questions drew a
        non-unanimous vote.
        """
        pool = self.workers
        assignments: list[tuple[int, SimulatedWorker]] = []
        for index, tuple_id in enumerate(tuple_ids):
            start = offset + index * self.votes_per_question
            for vote in range(self.votes_per_question):
                worker = pool[(start + vote) % len(pool)]
                assignments.append((tuple_id, worker))
        answers = await asyncio.gather(
            *(worker.answer(table, tuple_id) for tuple_id, worker in assignments)
        )
        votes_by_tuple: dict[int, list[Label]] = {}
        for (tuple_id, _worker), label in zip(assignments, answers, strict=True):
            votes_by_tuple.setdefault(tuple_id, []).append(label)
        split = sum(1 for votes in votes_by_tuple.values() if len(set(votes)) > 1)
        aggregated = [
            (tuple_id, majority_vote(votes_by_tuple[tuple_id]))
            for tuple_id in tuple_ids
        ]
        return aggregated, split

    async def run(self, session_id: str) -> CrowdRunReport:
        """Dispatch the session's batches to the crowd until convergence.

        Raises :class:`~repro.service.service.SessionServiceError` for an
        unknown session and :class:`DispatchError` if a round proposes no
        questions (a stalled session).  The session is left open — closing
        it (and reading its event stream) stays with the caller.
        """
        descriptor = await self.service.describe(session_id)
        table = await self.service.table(descriptor.table_fingerprint)
        rounds = questions = votes = contested = 0
        offset = 0
        while True:
            event = await self.service.next_question(session_id)
            if isinstance(event, Converged):
                return CrowdRunReport(
                    session_id=session_id,
                    converged=True,
                    rounds=rounds,
                    questions=questions,
                    votes=votes,
                    contested=contested,
                    query=event.query,
                    atoms=event.atoms,
                )
            if isinstance(event, QuestionAsked):
                tuple_ids: tuple[int, ...] = (event.tuple_id,)
            elif isinstance(event, BatchQuestionsAsked):
                tuple_ids = event.tuple_ids
            else:  # pragma: no cover - the protocol has no other question kind
                raise DispatchError(f"unexpected session event {event!r}")
            if not tuple_ids:
                raise DispatchError(
                    f"session {session_id!r} proposed an empty batch before converging"
                )
            aggregated, split = await self._collect_votes(table, tuple_ids, offset)
            offset = (offset + len(tuple_ids) * self.votes_per_question) % len(self.workers)
            await self.service.answer_many(session_id, aggregated)
            rounds += 1
            questions += len(tuple_ids)
            votes += len(tuple_ids) * self.votes_per_question
            contested += split
            if self.max_rounds is not None and rounds >= self.max_rounds:
                final = await self.service.describe(session_id)
                query = atoms = None
                if final.converged:
                    converged = await self.service.next_question(session_id)
                    assert isinstance(converged, Converged)
                    query, atoms = converged.query, converged.atoms
                return CrowdRunReport(
                    session_id=session_id,
                    converged=final.converged,
                    rounds=rounds,
                    questions=questions,
                    votes=votes,
                    contested=contested,
                    query=query,
                    atoms=atoms,
                )
