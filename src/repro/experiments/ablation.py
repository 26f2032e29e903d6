"""E10 — ablations of JIM's design choices.

Three of JIM's design choices are ablated here:

* **Pruning of uninformative tuples** — the heart of the system: compare the
  guided loop (which never asks about uninformative tuples) against an
  unguided user who may waste labels on them.
* **Atom-universe scope** — restricting candidate atoms to cross-relation
  pairs (the join-predicate reading) vs admitting every attribute pair; the
  latter enlarges the query space and should cost extra interactions.
* **Lookahead depth / strategy family** — how much the extra computation of
  deeper lookahead buys in interactions, including the exponential optimal
  strategy on tiny instances as the lower bound.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..baselines.random_order import RandomOrderBaseline
from ..core.atoms import AtomScope, AtomUniverse
from ..core.engine import JoinInferenceEngine
from ..core.oracle import GoalQueryOracle
from ..core.strategies.lookahead import KStepLookaheadStrategy
from ..core.strategies.optimal import OptimalStrategy
from ..core.strategies.registry import create_strategy
from ..datasets.synthetic import SyntheticConfig
from ..datasets.workloads import Workload, figure1_workload, synthetic_workload
from .results import ResultTable


def default_ablation_workloads(seed: int = 0) -> list[Workload]:
    """Small workloads on which even the optimal strategy is tractable."""
    return [
        figure1_workload("q2"),
        synthetic_workload(
            SyntheticConfig(
                num_relations=2,
                attributes_per_relation=2,
                tuples_per_relation=6,
                domain_size=3,
                seed=seed,
            ),
            goal_atoms=2,
        ),
        synthetic_workload(
            SyntheticConfig(
                num_relations=2,
                attributes_per_relation=3,
                tuples_per_relation=8,
                domain_size=3,
                seed=seed + 1,
            ),
            goal_atoms=2,
        ),
    ]


def ablate_pruning(
    workloads: Sequence[Workload] | None = None,
    strategy: str = "lookahead-entropy",
    seeds: Sequence[int] = (0, 1, 2),
) -> ResultTable:
    """Guided loop (with pruning) vs an unguided user who may label anything."""
    if workloads is None:
        workloads = default_ablation_workloads()
    table = ResultTable(
        ["workload", "candidates", "variant", "seed", "interactions", "wasted_labels"]
    )
    for workload in workloads:
        for seed in seeds:
            engine = JoinInferenceEngine(workload.table, strategy=create_strategy(strategy, seed=seed))
            guided = engine.run(GoalQueryOracle(workload.goal))
            table.add_row(
                {
                    "workload": workload.name,
                    "candidates": workload.num_candidates,
                    "variant": "with-pruning (guided)",
                    "seed": seed,
                    "interactions": guided.num_interactions,
                    "wasted_labels": 0,
                }
            )
            unguided = RandomOrderBaseline(seed=seed, informed_pruning=False).run(
                workload.table, GoalQueryOracle(workload.goal)
            )
            table.add_row(
                {
                    "workload": workload.name,
                    "candidates": workload.num_candidates,
                    "variant": "no-pruning (random order)",
                    "seed": seed,
                    "interactions": unguided.num_interactions,
                    "wasted_labels": unguided.wasted_interactions,
                }
            )
    return table


def ablate_atom_scope(
    workloads: Sequence[Workload] | None = None,
    strategy: str = "lookahead-entropy",
) -> ResultTable:
    """Cross-relation atom universe vs the all-pairs universe."""
    if workloads is None:
        workloads = default_ablation_workloads()
    table = ResultTable(
        ["workload", "scope", "universe_size", "interactions", "correct"]
    )
    for workload in workloads:
        if not workload.table.has_provenance():
            continue
        for scope in (AtomScope.CROSS_RELATION, AtomScope.ALL_PAIRS):
            universe = AtomUniverse.from_table(workload.table, scope=scope)
            engine = JoinInferenceEngine(workload.table, strategy=strategy, universe=universe)
            result = engine.run(GoalQueryOracle(workload.goal))
            table.add_row(
                {
                    "workload": workload.name,
                    "scope": scope.value,
                    "universe_size": universe.size,
                    "interactions": result.num_interactions,
                    "correct": result.matches_goal(workload.goal),
                }
            )
    return table


def ablate_lookahead_depth(
    workloads: Sequence[Workload] | None = None,
    depths: Sequence[int] = (1, 2),
    include_optimal: bool = True,
    optimal_max_states: int = 100_000,
    optimal_max_atoms: int = 7,
    optimal_max_candidates: int = 60,
) -> ResultTable:
    """Interactions and choice time as lookahead depth grows, vs the optimum.

    The exponential optimal strategy is only attempted on workloads whose atom
    universe and candidate table are small enough
    (``optimal_max_atoms`` / ``optimal_max_candidates``); larger workloads get
    the heuristic rows only.
    """
    if workloads is None:
        workloads = default_ablation_workloads()
    table = ResultTable(
        ["workload", "candidates", "strategy", "interactions", "total_seconds"]
    )
    for workload in workloads:
        strategies = [("lookahead-minmax", create_strategy("lookahead-minmax"))]
        strategies.extend(
            (f"lookahead-kstep(depth={depth})", KStepLookaheadStrategy(depth=depth))
            for depth in depths
            if depth >= 2
        )
        universe = AtomUniverse.from_table(workload.table)
        optimal_feasible = (
            universe.size <= optimal_max_atoms
            and workload.num_candidates <= optimal_max_candidates
        )
        if include_optimal and optimal_feasible:
            strategies.append(("optimal", OptimalStrategy(max_states=optimal_max_states)))
        for name, strategy in strategies:
            engine = JoinInferenceEngine(workload.table, strategy=strategy)
            started = time.perf_counter()
            result = engine.run(GoalQueryOracle(workload.goal))
            elapsed = time.perf_counter() - started
            table.add_row(
                {
                    "workload": workload.name,
                    "candidates": workload.num_candidates,
                    "strategy": name,
                    "interactions": result.num_interactions,
                    "total_seconds": round(elapsed, 4),
                }
            )
    return table
