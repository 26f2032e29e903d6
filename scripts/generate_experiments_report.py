"""Regenerate EXPERIMENTS.md: run every experiment harness and record the results.

Run from the repository root::

    python scripts/generate_experiments_report.py

The script executes the quick configurations of experiments E1–E10 (the same
code paths the benchmarks time), renders their result tables, and writes
EXPERIMENTS.md with a paper-claim vs measured-result entry per experiment.
It takes a couple of minutes on a laptop.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

from repro import GoalQueryOracle, __version__, infer_join
from repro.datasets import setgame
from repro.datasets.tpch import TPCHConfig
from repro.experiments import (
    ablation,
    crowd,
    interactions,
    scalability,
    strategy_comparison,
    tpch_experiment,
    walkthrough,
)
from repro.experiments.results import ResultTable
from repro.experiments.trajectory import load_records

REPO_ROOT = Path(__file__).resolve().parents[1]


def _ratio_metrics(results: dict, prefix: str = "") -> list[tuple[str, float]]:
    """Flattened (dotted-name, value) pairs of the ratio metrics in a record.

    Only machine-portable ratios — speedups, overhead ratios, memory
    reductions — are rendered; raw wall-clock seconds are deliberately left
    out of the report.
    """
    metrics: list[tuple[str, float]] = []
    for key, value in sorted(results.items()):
        if isinstance(value, dict):
            metrics.extend(_ratio_metrics(value, prefix=f"{prefix}{key}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and any(
            tag in key for tag in ("speedup", "ratio", "reduction")
        ):
            metrics.append((f"{prefix}{key}", float(value)))
    return metrics


def perf_trajectory_body() -> str:
    """One line per recorded (commit, configuration) benchmark measurement."""
    results_dir = REPO_ROOT / "benchmarks" / "results"
    lines: list[str] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_") :]
        records = load_records(name, results_dir)
        if not records:
            continue
        lines.append(f"-- {name} ({len(records)} record(s)) --")
        for record in records:
            stamp = time.strftime("%Y-%m-%d", time.localtime(record.get("timestamp", 0)))
            flavor = "quick" if record.get("config", {}).get("quick") else "full"
            metrics = _ratio_metrics(record.get("results", {}))
            rendered = "  ".join(f"{key}={value:.2f}" for key, value in metrics)
            lines.append(
                f"{record.get('commit', '?')[:10]}  {stamp}  {flavor:>5}  "
                f"{rendered or '(no ratio metrics)'}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() or "(no benchmark records committed)"


def _section(experiment_id: str, title: str, paper_claim: str, expectation: str,
             body: str, bench: str) -> str:
    return (
        f"## {experiment_id} — {title}\n\n"
        f"*Paper artifact / claim.* {paper_claim}\n\n"
        f"*Expected shape.* {expectation}\n\n"
        f"*Measured (this reproduction).*\n\n```text\n{body}\n```\n\n"
        f"*Regenerate with* `pytest {bench} --benchmark-only -s`\n\n"
    )


def e6_table() -> ResultTable:
    table_12 = setgame.pair_table(deck_size=12, seed=7)
    rows = ResultTable(["goal features", "candidate pairs", "questions", "correct"])
    for features in (("color",), ("shading",), ("color", "shading"), ("number", "symbol"),
                     ("number", "symbol", "color")):
        goal = setgame.same_feature_query(*features)
        result = infer_join(table_12, GoalQueryOracle(goal), strategy="lookahead-entropy")
        rows.add_row(
            {
                "goal features": " & ".join(features),
                "candidate pairs": len(table_12),
                "questions": result.num_interactions,
                "correct": result.matches_goal(goal),
            }
        )
    full_table = setgame.pair_table(deck_size=None, max_rows=1500, seed=3)
    goal = setgame.demo_goal_query()
    result = infer_join(full_table, GoalQueryOracle(goal), strategy="lookahead-entropy")
    rows.add_row(
        {
            "goal features": "color & shading (81-card deck, sampled)",
            "candidate pairs": len(full_table),
            "questions": result.num_interactions,
            "correct": result.matches_goal(goal),
        }
    )
    return rows


def main() -> None:
    started = time.time()
    sections: list[str] = []

    # E1
    sections.append(
        _section(
            "E1",
            "Figure 1 walkthrough (Section 2 worked example)",
            "Labeling (3)+ makes (4) uninformative while Q1 and Q2 stay consistent; "
            "(8) distinguishes Q1 from Q2; labeling (12)+ grays out (3),(4),(7) and "
            "(12)− grays out (1),(5),(9); the labels {(3)+,(7)−,(8)−} identify Q2.",
            "Every fact reproduced verbatim.",
            walkthrough.run_walkthrough().to_table().to_text(),
            "benchmarks/bench_fig1_walkthrough.py",
        )
    )

    # E2
    e2 = interactions.interactive_vs_label_all(
        interactions.default_e2_workloads(tuple_counts=(6, 10, 14, 20), goal_atoms=2, seed=0)
    )
    sections.append(
        _section(
            "E2",
            "Interactive loop (Figure 2) vs labeling every tuple",
            "\"By using an interactive approach, Jim saves a lot of effort in specifying "
            "join queries\" — only a small fraction of the candidate tuples needs labels.",
            "Guided labels ≪ candidate-table size, and the saving grows with the table.",
            e2.to_text(),
            "benchmarks/bench_fig2_interactive_loop.py",
        )
    )

    # E3
    e3 = interactions.interaction_mode_effort(k=3, seed=1)
    sections.append(
        _section(
            "E3",
            "User effort under the four interaction types (Figure 3)",
            "The demo stages four interaction types: free labeling, free labeling with "
            "graying-out, top-k proposals, and the fully guided loop.",
            "Effort decreases from type 1 to type 4; graying out already helps the manual user.",
            e3.to_text(),
            "benchmarks/bench_fig3_interaction_modes.py",
        )
    )

    # E4
    e4 = interactions.strategy_benefit(seeds=(0, 1, 2))
    sections.append(
        _section(
            "E4",
            "Benefit of using a strategy (Figure 4)",
            "After a free-labeling session the demo shows \"how many interactions she would "
            "have done if she had used a strategy of proposing informative tuples\".",
            "The guided strategy needs a fraction of the unguided user's labels "
            "(positive saving on average).",
            e4.to_text(),
            "benchmarks/bench_fig4_strategy_benefit.py",
        )
    )

    # E5
    sweep = strategy_comparison.compare_strategies(
        strategy_comparison.sweep_workloads(
            tuples_per_relation=(6, 10, 14), goal_atoms=(1, 2, 3), domain_size=3, seeds=(0, 1)
        ),
        strategies=("random", "local-most-specific", "local-largest-type",
                    "lookahead-minmax", "lookahead-entropy"),
        seeds=(0,),
    )
    e5_body = "\n\n".join(
        [
            "-- mean interactions by goal complexity --",
            strategy_comparison.summarize_by_complexity(sweep).to_text(),
            "-- mean interactions by candidate-table size --",
            strategy_comparison.summarize_by_size(sweep).to_text(),
            "-- mean interactions by strategy family --",
            strategy_comparison.summarize_by_family(sweep).to_text(),
        ]
    )
    sections.append(
        _section(
            "E5",
            "Comparing strategies across instances and query complexity",
            "\"For more complex instances and join queries a lookahead strategy performs "
            "better than a local one while for simpler instances and queries a local "
            "strategy is better\" (better = fewer interactions / cheaper).",
            "Lookahead ≤ local ≤ random on the harder configurations; local strategies are "
            "competitive on the simple ones while being much cheaper per choice.",
            e5_body,
            "benchmarks/bench_strategy_comparison.py",
        )
    )

    # E6
    sections.append(
        _section(
            "E6",
            "Joining sets of pictures (Set cards, Figure 5)",
            "JIM infers joins over tagged pictures, e.g. \"select the pairs of pictures "
            "having the same color and the same shading\", with a minimal number of simple "
            "interactions.",
            "A handful of questions per feature join, flat in the size of the pair space.",
            e6_table().to_text(),
            "benchmarks/bench_fig5_setgame.py",
        )
    )

    # E7
    e7 = scalability.measure_scalability(
        scalability.scalability_workloads(tuples_per_relation=(10, 20, 30, 45), goal_atoms=2, seed=0),
        strategies=("local-most-specific", "lookahead-entropy", "random"),
    )
    sections.append(
        _section(
            "E7",
            "Scalability: time per interaction vs candidate-table size",
            "The demo must stay interactive: choosing the next informative tuple and "
            "propagating a label must be fast even on large instances (the full paper "
            "reports efficiency and scalability on benchmark and synthetic data).",
            "Per-interaction time well under a second and growing roughly linearly with the "
            "candidate-table size; local strategies cheaper than lookahead.",
            e7.to_text(),
            "benchmarks/bench_scalability.py",
        )
    )

    # E8
    config = TPCHConfig(customers=12, orders_per_customer=2, lineitems_per_order=2, seed=0)
    e8 = tpch_experiment.run_tpch_experiment(
        joins=("orders-customer", "lineitem-orders", "customer-nation", "customer-orders-lineitem"),
        strategies=("random", "local-most-specific", "lookahead-entropy"),
        config=config,
        max_rows=1200,
    )
    e8_body = "\n\n".join(
        [
            e8.to_text(),
            "-- foreign keys rediscovered from the generated data --",
            tpch_experiment.discovered_foreign_keys(config).to_text(),
        ]
    )
    sections.append(
        _section(
            "E8",
            "PK/FK join inference on the TPC-H-like database",
            "The underlying research paper evaluates join inference on TPC-H; the demo lets "
            "attendees infer such joins interactively.",
            "A handful of membership queries per PK/FK join against candidate spaces of "
            "hundreds to thousands of tuples, for every strategy.",
            e8_body,
            "benchmarks/bench_tpch.py",
        )
    )

    # E9
    e9 = crowd.compare_crowd_cost(
        crowd.crowd_workloads(tuples_per_relation=(8, 12, 16, 24), goal_atoms=1, seed=0)
    )
    sections.append(
        _section(
            "E9",
            "Crowdsourcing cost: JIM vs pairwise entity-resolution joins",
            "\"Minimizing the number of interactions entails lower financial costs\"; existing "
            "crowd joins resolve pairs of tuples, JIM infers the join predicate.",
            "JIM's question count stays near-constant while the pairwise cost grows with the "
            "number of candidate pairs (orders-of-magnitude reduction).",
            e9.to_text(),
            "benchmarks/bench_crowd_cost.py",
        )
    )

    # E10
    workloads = ablation.default_ablation_workloads(seed=0)
    e10_body = "\n\n".join(
        [
            "-- pruning ablation --",
            ablation.ablate_pruning(workloads, seeds=(0, 1, 2)).to_text(),
            "-- atom-universe scope ablation --",
            ablation.ablate_atom_scope(workloads).to_text(),
            "-- lookahead depth ablation --",
            ablation.ablate_lookahead_depth(workloads, depths=(1, 2), include_optimal=True).to_text(),
        ]
    )
    sections.append(
        _section(
            "E10",
            "Ablations of the design choices",
            "Three of JIM's design choices: pruning of uninformative tuples, the "
            "cross-relation restriction of the atom universe, and the depth of lookahead "
            "(up to the exponential optimal strategy).",
            "Pruning/guidance reduces labels vs an unguided user; the all-pairs universe is "
            "larger and never cheaper to identify; deeper lookahead approaches the optimum "
            "at rapidly growing computational cost.",
            e10_body,
            "benchmarks/bench_ablation.py",
        )
    )

    # Performance trajectory
    sections.append(
        "## Performance trajectory\n\n"
        "Ratio metrics (speedups, throughput/overhead ratios, memory reductions)\n"
        "recorded by the benchmarks into `benchmarks/results/BENCH_*.json`, one\n"
        "line per recorded (commit, configuration) pair in file order.  Absolute\n"
        "wall-clock values are machine-bound and omitted; the committed ratios are\n"
        "the baselines CI's `--compare` smoke runs guard against regressions.\n\n"
        f"```text\n{perf_trajectory_body()}\n```\n\n"
        "*Regenerate with* `python benchmarks/bench_<name>.py` (records a fresh "
        "measurement; `--compare` diffs against the latest same-config record)\n\n"
    )

    elapsed = time.time() - started
    header = (
        "# EXPERIMENTS — paper vs. this reproduction\n\n"
        "The demo paper contains no numeric result tables; its figures are the worked\n"
        "example (Figure 1), the interaction protocol (Figure 2) and three demo-scenario\n"
        "figures (3–5) whose content is qualitative (interaction counts, strategy\n"
        "comparisons, picture joins).  Each section below states the paper's claim, the\n"
        "expected qualitative shape, and the tables measured with this implementation.\n"
        "Absolute timings naturally differ from the 2014 Java GUI; the shapes are what\n"
        "is being reproduced.  Each section ends with the benchmark that regenerates it.\n\n"
        f"Environment: Python {platform.python_version()} on {platform.system()} "
        f"{platform.machine()}, repro {__version__}.  "
        f"Report generated by `python scripts/generate_experiments_report.py` "
        f"in {elapsed:.0f} s.\n\n"
    )
    output = header + "".join(sections)
    (REPO_ROOT / "EXPERIMENTS.md").write_text(output, encoding="utf-8")
    print(f"wrote {REPO_ROOT / 'EXPERIMENTS.md'} ({len(output)} characters) in {elapsed:.1f}s")


if __name__ == "__main__":
    sys.exit(main())
