"""The mode sessions are InferenceSessions: their ``run`` loops against bare steppers.

Each mode class's ``run`` must ask the same questions, record the same
labels and pruned counts, and infer the same query as a bare
:class:`~repro.core.stepper.InferenceSession` of the same mode driven by the
protocol commands (``next_question`` / ``submit`` / ``submit_many``) alone.
"""

from __future__ import annotations

import time

import pytest

from repro import GoalQueryOracle
from repro.core.protocol import BatchQuestionsAsked, Converged, QuestionAsked
from repro.core.stepper import InferenceSession
from repro.core.strategies.registry import create_strategy
from repro.datasets import flights_hotels, synthetic
from repro.sessions.modes import GuidedSession, ManualSession, TopKSession


def signature(session: InferenceSession):
    """Questions, labels, pruned counts and the query of one session."""
    return (
        [
            (i.step, i.tuple_id, i.label.value, i.pruned, i.informative_remaining)
            for i in session.interactions
        ],
        session.inferred_query(),
        session.is_converged(),
    )


def workloads():
    """The two paper queries on Figure 1, plus a planted goal on a synthetic table."""
    table = flights_hotels.figure1_table()
    yield "figure1-q1", table, flights_hotels.query_q1()
    yield "figure1-q2", table, flights_hotels.query_q2()
    config = synthetic.SyntheticConfig(
        num_relations=2, attributes_per_relation=3, tuples_per_relation=8, domain_size=3, seed=5
    )
    synthetic_table = synthetic.generate_candidate_table(config)
    yield "synthetic", synthetic_table, synthetic.random_goal_query(
        synthetic_table, num_atoms=2, seed=5
    )


WORKLOADS = list(workloads())
IDS = [name for name, _, _ in WORKLOADS]


@pytest.mark.parametrize("name, table, goal", WORKLOADS, ids=IDS)
@pytest.mark.parametrize(
    "strategy", ["lookahead-entropy", "local-most-specific", "random"]
)
def test_guided_run_matches_a_bare_guided_stepper(name, table, goal, strategy):
    oracle = GoalQueryOracle(goal)
    session = GuidedSession(table, strategy=create_strategy(strategy, seed=7))
    session.run(oracle)

    bare = InferenceSession(table, mode="guided", strategy=create_strategy(strategy, seed=7))
    while not isinstance(event := bare.next_question(), Converged):
        assert isinstance(event, QuestionAsked)
        bare.submit(oracle.label(table, event.tuple_id))
    assert signature(session) == signature(bare)


@pytest.mark.parametrize("name, table, goal", WORKLOADS, ids=IDS)
def test_guided_run_cap_matches_a_bare_guided_stepper(name, table, goal):
    oracle = GoalQueryOracle(goal)
    session = GuidedSession(table, strategy="local-lexicographic")
    session.run(oracle, max_interactions=2)

    bare = InferenceSession(table, mode="guided", strategy="local-lexicographic")
    for _ in range(2):
        event = bare.next_question()
        if isinstance(event, Converged):
            break
        bare.submit(oracle.label(table, event.tuple_id))
    assert signature(session) == signature(bare)


@pytest.mark.parametrize("name, table, goal", WORKLOADS, ids=IDS)
@pytest.mark.parametrize("k", [1, 3, 5])
def test_top_k_run_matches_a_bare_top_k_stepper(name, table, goal, k):
    oracle = GoalQueryOracle(goal)
    session = TopKSession(table, k=k)
    session.run(oracle)

    bare = InferenceSession(table, mode="top-k", k=k)
    while not isinstance(event := bare.next_question(), Converged):
        assert isinstance(event, BatchQuestionsAsked)
        bare.submit_many({tid: oracle.label(table, tid) for tid in event.tuple_ids})
    assert signature(session) == signature(bare)


@pytest.mark.parametrize("name, table, goal", WORKLOADS, ids=IDS)
@pytest.mark.parametrize("gray_out", [False, True])
def test_manual_run_matches_a_bare_manual_stepper(name, table, goal, gray_out):
    # The attendee labels in descending id order, so the run is not simply
    # the order the stepper lists the tuples in.
    oracle = GoalQueryOracle(goal)
    order = sorted(table.tuple_ids, reverse=True)
    session = ManualSession(table, gray_out=gray_out)
    session.run(oracle, order=order)

    bare = InferenceSession(table, mode="manual-with-pruning" if gray_out else "manual")
    for tid in order:
        event = bare.next_question()
        if isinstance(event, Converged):
            break
        if tid in event.tuple_ids:
            bare.submit(oracle.label(table, tid), tuple_id=tid)
    assert signature(session) == signature(bare)


class _SlowOracle:
    def __init__(self, goal, delay: float) -> None:
        self._inner = GoalQueryOracle(goal)
        self.delay = delay

    def label(self, table, tuple_id):
        time.sleep(self.delay)
        return self._inner.label(table, tuple_id)


def test_guided_run_records_oracle_seconds(figure1_table, query_q2):
    delay = 0.05
    session = GuidedSession(figure1_table, strategy="lookahead-entropy")
    session.run(_SlowOracle(query_q2, delay))
    assert session.num_interactions >= 1
    for interaction in session.interactions:
        assert interaction.oracle_seconds >= delay
        assert interaction.elapsed_seconds < delay
    assert session.trace.total_oracle_seconds >= delay * session.num_interactions
