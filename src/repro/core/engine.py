"""The interactive inference engine — the loop of the paper's Figure 2.

``input: a set of tuples`` → while an informative tuple remains: choose one
according to the strategy Υ, ask the user (oracle) for its label, propagate
the label — → ``output: inferred join query``.

:class:`JoinInferenceEngine` drives that loop against any
:class:`~repro.core.oracle.Oracle` and any
:class:`~repro.core.strategies.base.Strategy`, records every interaction in an
:class:`InferenceTrace`, and returns an :class:`InferenceResult` containing
the inferred query, the number of membership queries asked, and convergence
diagnostics.

The engine is a thin *adapter*: the loop itself lives in
:class:`~repro.core.stepper.InferenceSession` (the caller-driven stepper
every frontend shares), and :func:`answer_from_oracle` feeds it oracle
answers — for :meth:`JoinInferenceEngine.run` and for
:meth:`~repro.sessions.modes.GuidedSession.run` alike.  The blocking
oracle-callback signature is kept for the experiments, the CLI and existing
callers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..exceptions import ConvergenceError
from ..relational.candidate import CandidateTable
from .atoms import AtomScope, AtomUniverse
from .oracle import Oracle
from .queries import JoinQuery
from .state import InferenceState
from .stepper import InferenceSession, InferenceTrace, resolve_strategy
from .strategies.base import Strategy


@dataclass
class InferenceResult:
    """The outcome of one interactive inference run."""

    query: JoinQuery
    trace: InferenceTrace
    state: InferenceState
    converged: bool
    strategy_name: str

    @property
    def num_interactions(self) -> int:
        """Number of membership queries asked."""
        return self.trace.num_interactions

    def selected_tuples(self) -> frozenset[int]:
        """The tuples of the candidate table selected by the inferred query."""
        return self.query.evaluate(self.state.table)

    def matches_goal(self, goal: JoinQuery) -> bool:
        """Whether the inferred query is instance-equivalent to ``goal``."""
        return self.query.instance_equivalent(goal, self.state.table)

    def summary(self) -> str:
        """One-line human-readable description of the run."""
        status = "converged" if self.converged else "stopped early"
        return (
            f"{status} after {self.num_interactions} interaction(s) "
            f"[{self.strategy_name}]: {self.query.describe()}"
        )


class JoinInferenceEngine:
    """Runs the interactive join-inference loop of the paper's Figure 2."""

    def __init__(
        self,
        table: CandidateTable,
        strategy: Strategy | str | None = None,
        universe: AtomUniverse | None = None,
        scope: AtomScope = AtomScope.CROSS_RELATION,
        strict: bool = True,
    ) -> None:
        self.table = table
        self.universe = universe if universe is not None else AtomUniverse.from_table(table, scope=scope)
        self.strategy = resolve_strategy(strategy)
        self.strict = strict

    def new_state(self) -> InferenceState:
        """A fresh inference state over the engine's table and universe."""
        return InferenceState(self.table, universe=self.universe, strict=self.strict)

    def run(
        self,
        oracle: Oracle,
        max_interactions: int | None = None,
        initial_state: InferenceState | None = None,
        require_convergence: bool = False,
    ) -> InferenceResult:
        """Run the interactive loop until convergence (or ``max_interactions``).

        Parameters
        ----------
        oracle:
            Answers the membership queries (a simulated goal-query user, a
            console user, …).
        max_interactions:
            Optional cap on the number of questions; when the cap is reached
            before convergence the result has ``converged=False`` (or a
            :class:`~repro.exceptions.ConvergenceError` is raised when
            ``require_convergence`` is set).
        initial_state:
            Continue from an existing state (e.g. after a manual-labeling
            session) instead of starting from scratch.  The state must have
            been built over this engine's candidate table and an identical
            atom universe; a mismatch raises :class:`ValueError`, since the
            oracle would otherwise be asked about tuple ids the state
            resolves against a different table.
        """
        self.strategy.reset()
        if initial_state is not None:
            other = initial_state.table
            # Structural comparison, not identity: resuming a persisted session
            # legitimately reloads an equal table in a fresh process.  The
            # cheap checks run first so the same-table fast path never forces
            # a factorized table to materialise its rows.
            if other is not self.table and (
                other.attribute_names != self.table.attribute_names
                or len(other) != len(self.table)
                or any(a != b for a, b in zip(other, self.table, strict=True))
            ):
                raise ValueError(
                    "initial_state was built over a different candidate table than the "
                    "engine; tuple ids would silently refer to different tuples"
                )
            if initial_state.universe.atoms != self.universe.atoms:
                raise ValueError(
                    "initial_state uses a different atom universe than the engine "
                    f"({len(initial_state.universe.atoms)} vs {len(self.universe.atoms)} atoms)"
                )
        state = initial_state if initial_state is not None else self.new_state()
        session = InferenceSession(self.table, strategy=self.strategy, state=state)
        converged = answer_from_oracle(session, oracle, max_interactions)
        if not converged and require_convergence:
            raise ConvergenceError(
                f"inference did not converge within {max_interactions} interactions"
            )
        return InferenceResult(
            query=state.inferred_query(),
            trace=session.trace,
            state=state,
            converged=converged,
            strategy_name=self.strategy.name,
        )


def answer_from_oracle(
    session: InferenceSession, oracle: Oracle, max_interactions: int | None = None
) -> bool:
    """Answer a guided session's questions from ``oracle`` until it converges.

    Stops once the session holds ``max_interactions`` labels of this sitting
    and returns whether it converged.  The time the oracle takes to answer
    is recorded as each interaction's ``oracle_seconds``.
    """
    while not session.is_converged():
        if max_interactions is not None and session.num_interactions >= max_interactions:
            return False
        question = session.next_question()
        oracle_started = time.perf_counter()
        label = oracle.label(session.table, question.tuple_id)
        session.submit(label, oracle_seconds=time.perf_counter() - oracle_started)
    return True


def infer_join(
    table: CandidateTable,
    oracle: Oracle,
    strategy: Strategy | str | None = None,
    scope: AtomScope = AtomScope.CROSS_RELATION,
    max_interactions: int | None = None,
    universe: AtomUniverse | None = None,
    strict: bool = True,
    require_convergence: bool = False,
) -> InferenceResult:
    """One-call convenience wrapper: build an engine and run it.

    Exposes the engine's full configuration surface — ``universe`` (restrict
    the candidate atoms instead of deriving them from ``scope``), ``strict``
    (whether contradicting labels raise) and ``require_convergence`` (raise
    :class:`~repro.exceptions.ConvergenceError` when ``max_interactions`` is
    hit before convergence) — rather than silently using the defaults.

    This is the function the quickstart example uses::

        result = infer_join(table, GoalQueryOracle(goal), strategy="lookahead-entropy")
        print(result.query.describe(), result.num_interactions)
    """
    engine = JoinInferenceEngine(
        table, strategy=strategy, universe=universe, scope=scope, strict=strict
    )
    return engine.run(
        oracle, max_interactions=max_interactions, require_convergence=require_convergence
    )
