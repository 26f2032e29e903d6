"""The four types of interaction of the demonstration scenario (Figure 3).

1. **Labeling all tuples** — the attendee labels whatever tuples she wants,
   in any order, with no help from the system
   (:class:`ManualSession` with ``gray_out=False``).
2. **Interactively graying out uninformative tuples** — same free labeling,
   but after each label the system grays out the tuples that became
   uninformative (:class:`ManualSession` with ``gray_out=True``).
3. **Proposing top-k informative tuples** — the system computes the ``k``
   most informative tuples and asks the attendee to label only them
   (:class:`TopKSession`).
4. **Proposing the most informative tuple** — the fully interactive inference
   process of Figure 2 (:class:`GuidedSession`).

All four are :class:`~repro.core.stepper.InferenceSession`\\ s in one fixed
mode, so every frontend — these classes, the engine, the CLI, the HTTP
service — drives the identical state machine.  The classes add only what a
mode needs beyond the stepper's commands: labeling with the propagation
returned (``label``, ``answer``), the oracle-driven ``run`` loops, the
grayed-out view, and the statistics and benefit panels.
"""

from __future__ import annotations

from ..core.engine import answer_from_oracle
from ..core.examples import Label
from ..core.oracle import Oracle
from ..core.propagation import PropagationResult
from ..core.protocol import Converged, InteractionMode
from ..core.queries import JoinQuery
from ..core.state import InferenceState
from ..core.stepper import InferenceSession
from ..core.strategies.base import Strategy
from ..exceptions import StrategyError
from ..relational.candidate import CandidateTable
from .benefit import BenefitReport, compute_benefit
from .statistics import SessionStatistics

__all__ = [
    "GuidedSession",
    "InteractionMode",
    "ManualSession",
    "TopKSession",
]


class ModeSession(InferenceSession):
    """What every interaction type adds to the stepper: labels that return
    their propagation, and the demo's statistics and benefit panels."""

    def label(self, tuple_id: int, label: Label | str | bool) -> PropagationResult:
        """Record one user label and propagate it."""
        self.submit(label, tuple_id=tuple_id)
        return self.last_propagation()

    def statistics(self) -> SessionStatistics:
        """The progress panel of the demo interface."""
        return SessionStatistics.from_state(self.state)

    def benefit_report(
        self,
        strategy: Strategy | str = "lookahead-entropy",
        goal: JoinQuery | None = None,
    ) -> BenefitReport:
        """The Figure 4 comparison: this session vs a strategy-guided one."""
        return compute_benefit(
            self.state, self.num_interactions, strategy=strategy, goal=goal
        )


class ManualSession(ModeSession):
    """Interaction types 1 and 2: the attendee labels tuples in any order.

    With ``gray_out=False`` (type 1) the system gives no feedback at all —
    :meth:`visible_grayed_out` stays empty even though the state internally
    knows which tuples became uninformative.  With ``gray_out=True`` (type 2)
    every label's propagation is surfaced so the interface can gray tuples out,
    and :meth:`~repro.core.stepper.InferenceSession.labelable_ids` offers only
    the informative tuples.
    """

    def __init__(
        self,
        table: CandidateTable,
        gray_out: bool = False,
        state: InferenceState | None = None,
    ) -> None:
        mode = InteractionMode.MANUAL_WITH_PRUNING if gray_out else InteractionMode.MANUAL
        super().__init__(table, mode=mode, state=state)
        self.gray_out = gray_out

    def visible_grayed_out(self) -> list[int]:
        """The tuples the interface currently shows as grayed out."""
        return self.state.certain_ids() if self.gray_out else []

    def run(self, oracle: Oracle, order: list[int] | None = None) -> JoinQuery:
        """Simulate an attendee labeling tuples in the given (or table) order.

        The attendee stops as soon as the labels identify a unique query —
        which, without graying out, she can only notice by exhausting the
        tuples she considers worth labeling.
        """
        sequence = order if order is not None else list(self.table.tuple_ids)
        for tuple_id in sequence:
            if self.is_converged():
                break
            if tuple_id in self.state.labeled_ids():
                continue
            if self.gray_out and self.state.status(tuple_id).is_certain:
                continue
            self.label(tuple_id, oracle.label(self.table, tuple_id))
        return self.inferred_query()


class TopKSession(ModeSession):
    """Interaction type 3: the system proposes the top-k informative tuples.

    Tuples are ranked with a lookahead score (how much either answer would
    resolve, :meth:`~repro.core.stepper.InferenceSession.propose_batch`); the
    attendee labels the proposed batch, the system re-ranks, and so on until
    convergence.
    """

    def __init__(
        self,
        table: CandidateTable,
        k: int | None = None,
        state: InferenceState | None = None,
    ) -> None:
        super().__init__(table, mode=InteractionMode.TOP_K, k=k, state=state)

    def run(self, oracle: Oracle, max_rounds: int | None = None) -> JoinQuery:
        """Label proposed batches until convergence (or ``max_rounds``)."""
        rounds = 0
        while not self.is_converged():
            if max_rounds is not None and rounds >= max_rounds:
                break
            # Earlier labels in the same batch may make later tuples
            # uninformative; submit_many skips them, as the attendee would.
            self.submit_many(
                (tuple_id, oracle.label(self.table, tuple_id))
                for tuple_id in self.propose_batch()
                if not self.state.status(tuple_id).is_uninformative
            )
            rounds += 1
        return self.inferred_query()


class GuidedSession(ModeSession):
    """Interaction type 4: the core interactive scenario of Figure 2.

    The system repeatedly proposes the most informative tuple according to the
    chosen strategy; the attendee only answers Yes/No.  The session can be
    driven step by step (:meth:`next_tuple` / :meth:`answer`) — the
    programmatic equivalent of the GUI — or run to convergence against an
    oracle (:meth:`run`).
    """

    def __init__(
        self,
        table: CandidateTable,
        strategy: Strategy | str | None = None,
        state: InferenceState | None = None,
    ) -> None:
        super().__init__(table, mode=InteractionMode.GUIDED, strategy=strategy, state=state)

    def next_tuple(self) -> int:
        """The tuple the system asks about next (stable until answered)."""
        event = self.next_question()
        if isinstance(event, Converged):
            raise StrategyError("no informative tuple remains; the session has converged")
        return event.tuple_id

    def answer(self, label: Label | str | bool) -> PropagationResult:
        """Answer the pending membership query."""
        self.submit(label)
        return self.last_propagation()

    def run(self, oracle: Oracle, max_interactions: int | None = None) -> JoinQuery:
        """Run the guided loop to convergence (or ``max_interactions``)."""
        answer_from_oracle(self, oracle, max_interactions)
        return self.inferred_query()
