"""Adapter-equivalence tests: the redesigned surfaces behave like the seed.

``JoinInferenceEngine.run`` and the ``sessions.modes`` classes are now thin
adapters over the sans-IO stepper.  These tests pin their observable
behaviour to the seed semantics: same questions in the same order, same
labels, same propagation counts, same inferred query.
"""

from __future__ import annotations

import time

from repro import GoalQueryOracle, JoinInferenceEngine
from repro.core.engine import InferenceResult
from repro.core.stepper import InferenceTrace, Interaction
from repro.core.strategies.registry import create_strategy
from repro.datasets import flights_hotels
from repro.sessions.modes import GuidedSession, TopKSession


def seed_engine_run(table, strategy_name, oracle, max_interactions=None):
    """The seed's ``JoinInferenceEngine.run`` loop, kept verbatim as reference."""
    engine = JoinInferenceEngine(table, strategy=create_strategy(strategy_name, seed=7))
    engine.strategy.reset()
    state = engine.new_state()
    trace = InferenceTrace()
    step = 0
    while state.has_informative_tuple():
        if max_interactions is not None and step >= max_interactions:
            return InferenceResult(
                query=state.inferred_query(),
                trace=trace,
                state=state,
                converged=False,
                strategy_name=engine.strategy.name,
            )
        choose_started = time.perf_counter()
        tuple_id = engine.strategy.choose(state)
        choose_seconds = time.perf_counter() - choose_started
        label = oracle.label(table, tuple_id)
        propagate_started = time.perf_counter()
        propagation = state.add_label(tuple_id, label)
        elapsed = choose_seconds + (time.perf_counter() - propagate_started)
        step += 1
        trace.propagations.append(propagation)
        trace.interactions.append(
            Interaction(
                step=step,
                tuple_id=tuple_id,
                label=label,
                pruned=propagation.pruned_count,
                informative_remaining=propagation.informative_after,
                elapsed_seconds=elapsed,
            )
        )
    return InferenceResult(
        query=state.inferred_query(),
        trace=trace,
        state=state,
        converged=True,
        strategy_name=engine.strategy.name,
    )


def trace_signature(result):
    return (
        [
            (i.step, i.tuple_id, i.label.value, i.pruned, i.informative_remaining)
            for i in result.trace.interactions
        ],
        result.query.normalized().describe(),
        result.converged,
        result.strategy_name,
    )


STRATEGIES = (
    "random",
    "local-lexicographic",
    "local-most-specific",
    "local-most-general",
    "local-largest-type",
    "lookahead-expected",
    "lookahead-minmax",
    "lookahead-entropy",
)


class TestEngineTracesUnchanged:
    def test_all_strategies_on_both_paper_queries(self, figure1_table):
        for goal_name in ("q1", "q2"):
            goal = getattr(flights_hotels, f"query_{goal_name}")()
            for strategy_name in STRATEGIES:
                adapter = JoinInferenceEngine(
                    figure1_table, strategy=create_strategy(strategy_name, seed=7)
                ).run(GoalQueryOracle(goal))
                seed = seed_engine_run(figure1_table, strategy_name, GoalQueryOracle(goal))
                assert trace_signature(adapter) == trace_signature(seed), (
                    f"{goal_name} × {strategy_name}"
                )

    def test_max_interactions_cut_matches_seed(self, figure1_table, query_q2):
        adapter = JoinInferenceEngine(figure1_table, strategy=create_strategy("random", seed=7)).run(
            GoalQueryOracle(query_q2), max_interactions=2
        )
        seed = seed_engine_run(figure1_table, "random", GoalQueryOracle(query_q2), max_interactions=2)
        assert trace_signature(adapter) == trace_signature(seed)
        assert not adapter.converged


class TestSessionAdaptersUnchanged:
    def test_guided_session_asks_the_engine_questions(self, figure1_table, query_q2):
        session = GuidedSession(figure1_table, strategy=create_strategy("lookahead-entropy"))
        session.run(GoalQueryOracle(query_q2))
        seed = seed_engine_run(figure1_table, "lookahead-entropy", GoalQueryOracle(query_q2))
        assert [i.tuple_id for i in session.interactions] == [
            i.tuple_id for i in seed.trace.interactions
        ]
        assert session.inferred_query() == seed.query

    def test_top_k_batches_are_the_seed_ranking(self, figure1_table):
        # The seed TopKSession ranked candidates by (entropy score, -tuple_id)
        # over prune_counts_all; the stepper must reproduce that exactly.
        from repro.core.strategies.lookahead import EntropyStrategy

        session = TopKSession(figure1_table, k=4)
        counts = session.state.prune_counts_all(session.state.informative_ids())
        scorer = EntropyStrategy()
        expected = sorted(
            session.state.informative_ids(),
            key=lambda tid: (scorer.score(*counts[tid]), -tid),
            reverse=True,
        )[:4]
        assert session.propose_batch() == expected
