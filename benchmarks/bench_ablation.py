"""E10 — ablations of JIM's design choices.

Regenerates the three design-choice ablations: the value of pruning
uninformative tuples, the effect of restricting the atom universe to
cross-relation pairs, and what deeper lookahead (up to the exponential optimal
strategy) buys.  The timed operation is the exponential optimal strategy run
on the Figure 1 workload — the most expensive single component exercised here.
"""

from __future__ import annotations

from conftest import report

from repro import GoalQueryOracle, JoinInferenceEngine
from repro.core.strategies import OptimalStrategy
from repro.experiments.ablation import (
    ablate_atom_scope,
    ablate_lookahead_depth,
    ablate_pruning,
    default_ablation_workloads,
)

_WORKLOADS = default_ablation_workloads(seed=0)


def bench_optimal_strategy_on_figure1(benchmark, figure1_workload_q2):
    def run():
        engine = JoinInferenceEngine(figure1_workload_q2.table, strategy=OptimalStrategy())
        return engine.run(GoalQueryOracle(figure1_workload_q2.goal))

    result = benchmark(run)
    assert result.matches_goal(figure1_workload_q2.goal)

    pruning = ablate_pruning(_WORKLOADS, seeds=(0, 1, 2))
    report("E10a — pruning ablation: guided loop vs unguided random-order labeling", pruning.to_text())
    means = pruning.group_mean(["variant"], "interactions")
    assert means[("with-pruning (guided)",)] <= means[("no-pruning (random order)",)]

    scope = ablate_atom_scope(_WORKLOADS)
    report("E10b — atom-universe scope ablation (cross-relation vs all pairs)", scope.to_text())
    by_scope = scope.group_mean(["scope"], "interactions")
    assert set(by_scope) == {("cross-relation",), ("all-pairs",)}

    depth = ablate_lookahead_depth(_WORKLOADS, depths=(1, 2), include_optimal=True)
    report("E10c — lookahead depth ablation (greedy → k-step → optimal)", depth.to_text())
    assert all(row["interactions"] >= 1 for row in depth)
