"""Tests for the four interaction modes of the demonstration scenario."""

from __future__ import annotations

import pytest

from repro import (
    GoalQueryOracle,
    GuidedSession,
    InteractionMode,
    ManualSession,
    TopKSession,
)
from repro.core.stepper import DEFAULT_K, InferenceSession
from repro.core.strategies import LexicographicStrategy
from repro.datasets import flights_hotels
from repro.exceptions import StrategyError

tid = flights_hotels.paper_tuple_id


class TestManualSessionMode1:
    def test_mode_and_no_visible_graying(self, figure1_table):
        session = ManualSession(figure1_table, gray_out=False)
        assert session.mode is InteractionMode.MANUAL
        session.label(tid(3), "+")
        assert session.visible_grayed_out() == []
        # The state still knows internally, it is just not surfaced.
        assert session.state.certain_ids()

    def test_labelable_ids_exclude_only_labeled_tuples(self, figure1_table):
        session = ManualSession(figure1_table, gray_out=False)
        session.label(tid(3), "+")
        labelable = session.labelable_ids()
        assert tid(3) not in labelable
        assert tid(4) in labelable  # uninformative but still offered in mode 1

    def test_run_labels_in_given_order_until_convergence(self, figure1_table, query_q2):
        session = ManualSession(figure1_table, gray_out=False)
        inferred = session.run(GoalQueryOracle(query_q2), order=list(figure1_table.tuple_ids))
        assert inferred.instance_equivalent(query_q2, figure1_table)
        assert session.is_converged()
        assert session.num_interactions <= len(figure1_table)


class TestManualSessionMode2:
    def test_mode_and_visible_graying(self, figure1_table):
        session = ManualSession(figure1_table, gray_out=True)
        assert session.mode is InteractionMode.MANUAL_WITH_PRUNING
        session.label(tid(12), "+")
        assert set(session.visible_grayed_out()) >= {tid(3), tid(4), tid(7)}

    def test_labelable_ids_hide_grayed_out_tuples(self, figure1_table):
        session = ManualSession(figure1_table, gray_out=True)
        session.label(tid(12), "+")
        labelable = set(session.labelable_ids())
        assert tid(3) not in labelable
        assert labelable == set(session.state.informative_ids())

    def test_graying_saves_labels_compared_to_mode_1(self, figure1_table, query_q2):
        order = list(figure1_table.tuple_ids)
        plain = ManualSession(figure1_table, gray_out=False)
        plain.run(GoalQueryOracle(query_q2), order=order)
        assisted = ManualSession(figure1_table, gray_out=True)
        assisted.run(GoalQueryOracle(query_q2), order=order)
        assert assisted.num_interactions <= plain.num_interactions
        assert assisted.inferred_query().instance_equivalent(query_q2, figure1_table)


class TestTopKSession:
    def test_propose_returns_at_most_k_informative_tuples(self, figure1_table):
        session = TopKSession(figure1_table, k=3)
        proposed = session.propose_batch()
        assert len(proposed) == 3
        assert set(proposed) <= set(session.state.informative_ids())

    def test_propose_with_override(self, figure1_table):
        session = TopKSession(figure1_table, k=3)
        assert len(session.propose_batch(k=5)) == 5

    def test_invalid_k_rejected(self, figure1_table):
        with pytest.raises(StrategyError):
            TopKSession(figure1_table, k=0)

    def test_run_converges_and_matches_goal(self, figure1_table, query_q2):
        session = TopKSession(figure1_table, k=3)
        inferred = session.run(GoalQueryOracle(query_q2))
        assert session.is_converged()
        assert inferred.instance_equivalent(query_q2, figure1_table)

    def test_max_rounds_cap(self, figure1_table, query_q2):
        session = TopKSession(figure1_table, k=1)
        session.run(GoalQueryOracle(query_q2), max_rounds=1)
        assert session.num_interactions == 1


class TestGuidedSession:
    def test_next_tuple_is_stable_until_answered(self, figure1_table):
        session = GuidedSession(figure1_table, strategy=LexicographicStrategy())
        first = session.next_tuple()
        assert session.next_tuple() == first
        session.answer("-")
        assert not session.is_converged()
        assert session.next_tuple() != first

    def test_step_by_step_equivalent_to_run(self, figure1_table, query_q2):
        oracle = GoalQueryOracle(query_q2)
        stepped = GuidedSession(figure1_table, strategy="lookahead-entropy")
        while not stepped.is_converged():
            tuple_id = stepped.next_tuple()
            stepped.answer(oracle.label(figure1_table, tuple_id))
        ran = GuidedSession(figure1_table, strategy="lookahead-entropy")
        ran.run(GoalQueryOracle(query_q2))
        assert stepped.num_interactions == ran.num_interactions
        assert stepped.inferred_query() == ran.inferred_query()

    def test_run_with_interaction_cap(self, figure1_table, query_q2):
        session = GuidedSession(figure1_table, strategy=LexicographicStrategy())
        session.run(GoalQueryOracle(query_q2), max_interactions=2)
        assert session.num_interactions == 2

    def test_statistics_and_benefit_available(self, figure1_table, query_q2):
        session = GuidedSession(figure1_table)
        session.run(GoalQueryOracle(query_q2))
        stats = session.statistics()
        assert stats.is_complete
        report = session.benefit_report()
        assert report.user_interactions == session.num_interactions

    def test_guided_uses_fewer_labels_than_manual(self, figure1_table, query_q2):
        manual = ManualSession(figure1_table, gray_out=False)
        manual.run(GoalQueryOracle(query_q2), order=list(figure1_table.tuple_ids))
        guided = GuidedSession(figure1_table)
        guided.run(GoalQueryOracle(query_q2))
        assert guided.num_interactions <= manual.num_interactions



    def test_interactions_recorded_with_steps(self, figure1_table, query_q2):
        session = GuidedSession(figure1_table)
        session.run(GoalQueryOracle(query_q2))
        assert [interaction.step for interaction in session.interactions] == list(
            range(1, session.num_interactions + 1)
        )


class TestModeSessionsAreSteppers:
    def test_each_class_is_an_inference_session_in_its_mode(self, figure1_table):
        sessions = {
            InteractionMode.MANUAL: ManualSession(figure1_table, gray_out=False),
            InteractionMode.MANUAL_WITH_PRUNING: ManualSession(figure1_table, gray_out=True),
            InteractionMode.TOP_K: TopKSession(figure1_table),
            InteractionMode.GUIDED: GuidedSession(figure1_table),
        }
        for mode, session in sessions.items():
            assert isinstance(session, InferenceSession)
            assert session.mode is mode

    def test_options_reach_the_stepper(self, figure1_table):
        assert TopKSession(figure1_table).k == DEFAULT_K
        assert TopKSession(figure1_table, k=2).k == 2
        assert GuidedSession(figure1_table, strategy="random").strategy.name == "random"
        assert GuidedSession(figure1_table).strategy.name == "lookahead-entropy"
