"""Tests for the sans-IO stepper (`InferenceSession`)."""

from __future__ import annotations

import pytest

from repro import GoalQueryOracle, JoinInferenceEngine
from repro.core.protocol import (
    BatchQuestionsAsked,
    Converged,
    InteractionMode,
    LabelApplied,
    QuestionAsked,
)
from repro.core.stepper import InferenceSession, validate_mode_options
from repro.exceptions import StrategyError


def drive(session: InferenceSession, oracle, table) -> None:
    """Drive a guided session to convergence against an oracle."""
    while True:
        event = session.next_question()
        if isinstance(event, Converged):
            break
        session.submit(oracle.label(table, event.tuple_id))


class TestGuidedStepping:
    def test_caller_driven_loop_matches_blocking_engine(self, figure1_table, query_q2):
        session = InferenceSession(figure1_table, strategy="lookahead-entropy")
        drive(session, GoalQueryOracle(query_q2), figure1_table)
        engine_result = JoinInferenceEngine(figure1_table, strategy="lookahead-entropy").run(
            GoalQueryOracle(query_q2)
        )
        assert session.is_converged()
        assert session.inferred_query() == engine_result.query
        assert [i.tuple_id for i in session.interactions] == [
            i.tuple_id for i in engine_result.trace.interactions
        ]

    def test_question_event_carries_renderable_row(self, figure1_table):
        session = InferenceSession(figure1_table)
        event = session.next_question()
        assert isinstance(event, QuestionAsked)
        assert event.step == 1
        assert event.attributes == figure1_table.attribute_names
        assert event.row == tuple(figure1_table.row(event.tuple_id))

    def test_question_is_stable_until_answered(self, figure1_table):
        session = InferenceSession(figure1_table, strategy="local-lexicographic")
        first = session.next_question()
        assert session.next_question() == first
        applied = session.submit("-")
        assert isinstance(applied, LabelApplied)
        assert applied.tuple_id == first.tuple_id
        assert session.next_question().tuple_id != first.tuple_id

    def test_pending_question_is_rechosen_when_made_uninformative(self, figure1_table):
        # Answering a guided session out-of-band (explicit tuple_id, as the
        # crowd dispatcher does) may label or gray out the pending question;
        # the session must then choose a fresh one instead of re-proposing a
        # tuple that can no longer teach us anything.
        session = InferenceSession(figure1_table, strategy="local-lexicographic")
        pending = session.next_question()
        session.submit("-", tuple_id=pending.tuple_id)
        following = session.next_question()
        assert isinstance(following, QuestionAsked)
        assert following.tuple_id != pending.tuple_id
        assert not session.state.status(following.tuple_id).is_uninformative

    def test_answering_a_stale_pending_question_raises(self, figure1_table):
        # A frontend answering the question it was shown must not have its
        # label silently applied to a different tuple after out-of-band
        # labels resolved that question.
        session = InferenceSession(figure1_table, strategy="local-lexicographic")
        pending = session.next_question()
        session.submit("-", tuple_id=pending.tuple_id)  # out-of-band
        with pytest.raises(StrategyError, match="resolved by other labels"):
            session.submit("+")
        # The session recovers: a fresh question is choosable and answerable.
        fresh = session.next_question()
        assert fresh.tuple_id != pending.tuple_id
        applied = session.submit("-")
        assert applied.tuple_id == fresh.tuple_id

    def test_converged_event_reports_the_query(self, figure1_table, query_q2):
        session = InferenceSession(figure1_table)
        drive(session, GoalQueryOracle(query_q2), figure1_table)
        event = session.next_question()
        assert isinstance(event, Converged)
        assert event.step == session.num_interactions
        assert event.as_join_query().instance_equivalent(query_q2, figure1_table)

    def test_label_applied_reports_propagation(self, figure1_table):
        session = InferenceSession(figure1_table)
        event = session.submit("+")  # submit without next_question chooses itself
        assert event.pruned == session.last_propagation().pruned_count
        assert event.informative_remaining == session.last_propagation().informative_after


class TestBatchModes:
    def test_top_k_emits_ranked_batches(self, figure1_table):
        session = InferenceSession(figure1_table, mode="top-k", k=3)
        event = session.next_question()
        assert isinstance(event, BatchQuestionsAsked)
        assert event.k == 3
        assert len(event.tuple_ids) == 3
        assert set(event.tuple_ids) <= set(session.state.informative_ids())

    def test_submit_many_skips_tuples_resolved_mid_batch(self, figure1_table, query_q2):
        oracle = GoalQueryOracle(query_q2)
        session = InferenceSession(figure1_table, mode="top-k", k=5)
        batch = session.next_question().tuple_ids
        events = session.submit_many(
            {tid: oracle.label(figure1_table, tid) for tid in batch}
        )
        # At least one of the five became uninformative through an earlier
        # answer of the same batch and was skipped.
        assert len(events) < len(batch)
        assert all(isinstance(event, LabelApplied) for event in events)

    def test_top_k_runs_to_convergence(self, figure1_table, query_q2):
        oracle = GoalQueryOracle(query_q2)
        session = InferenceSession(figure1_table, mode="top-k", k=3)
        while not session.is_converged():
            batch = session.next_question().tuple_ids
            session.submit_many((tid, oracle.label(figure1_table, tid)) for tid in batch)
        assert session.inferred_query().instance_equivalent(query_q2, figure1_table)

    def test_manual_mode_lists_unlabeled_tuples(self, figure1_table):
        session = InferenceSession(figure1_table, mode="manual")
        event = session.next_question()
        assert isinstance(event, BatchQuestionsAsked)
        assert event.k is None
        assert set(event.tuple_ids) == set(figure1_table.tuple_ids)
        session.submit("-", tuple_id=event.tuple_ids[0])
        assert event.tuple_ids[0] not in session.next_question().tuple_ids

    def test_manual_with_pruning_hides_certain_tuples(self, figure1_table):
        session = InferenceSession(figure1_table, mode="manual-with-pruning")
        session.submit("+", tuple_id=11)
        offered = set(session.next_question().tuple_ids)
        assert offered == set(session.state.informative_ids())

    def test_batch_modes_require_explicit_tuple_id(self, figure1_table):
        session = InferenceSession(figure1_table, mode="manual")
        with pytest.raises(StrategyError, match="explicit tuple_id"):
            session.submit("+")


class TestModeValidation:
    def test_unknown_mode_rejected(self, figure1_table):
        with pytest.raises(ValueError, match="unknown interaction mode"):
            InferenceSession(figure1_table, mode="telepathy")

    def test_k_rejected_for_guided(self, figure1_table):
        with pytest.raises(ValueError, match="guided"):
            InferenceSession(figure1_table, mode="guided", k=3)

    def test_strategy_rejected_for_top_k(self, figure1_table):
        with pytest.raises(ValueError, match="top-k"):
            InferenceSession(figure1_table, mode="top-k", strategy="random")

    def test_invalid_k_value_rejected(self, figure1_table):
        with pytest.raises(StrategyError, match="positive integer"):
            InferenceSession(figure1_table, mode="top-k", k=0)
        with pytest.raises(StrategyError, match="positive integer"):
            InferenceSession(figure1_table, mode="top-k", k="five")

    def test_validate_mode_options_accepts_none_values(self):
        assert (
            validate_mode_options("guided", {"strategy": None, "k": None})
            is InteractionMode.GUIDED
        )
