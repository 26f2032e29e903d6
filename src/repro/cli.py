"""Command-line interface for JIM.

Three subcommands cover the library's main entry points without writing any
Python:

``jim demo``
    Drive the interactive console demo (interaction type 4) on one of the
    built-in datasets or on a flat CSV file; you answer ``y``/``n`` for each
    proposed tuple.  With ``--goal`` the answers are simulated instead, which
    is handy for scripted runs and for CI.

``jim infer``
    Run a fully simulated inference (goal-query oracle) on a dataset and print
    the inferred query, the number of membership queries, the SQL rendering
    and — when the candidate table has provenance — the GAV mapping.

``jim strategies``
    List the registered strategies (the names accepted by ``--strategy``).

Examples::

    jim demo --dataset flights --goal "To=City,Airline=Discount"
    jim infer --dataset setgame --goal "Left.color=Right.color" --strategy lookahead-minmax
    jim infer --csv mytable.csv --goal "a=b"
    jim strategies
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core.engine import JoinInferenceEngine
from .core.oracle import ConsoleOracle, GoalQueryOracle, Oracle
from .core.queries import JoinQuery
from .core.stepper import InferenceSession
from .core.strategies.registry import available_strategies
from .datasets import flights_hotels, setgame, synthetic, tpch
from .exceptions import ReproError
from .relational.candidate import CandidateTable
from .relational.csv_io import read_candidate_table_csv
from .relational.mappings import as_gav_mapping
from .ui.renderer import render_table

#: Built-in datasets selectable with ``--dataset``.
DATASET_CHOICES = ("flights", "setgame", "tpch", "synthetic")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``jim`` command."""
    parser = argparse.ArgumentParser(
        prog="jim",
        description="JIM — interactive join query inference from membership queries",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset",
            choices=DATASET_CHOICES,
            default="flights",
            help="built-in dataset to run on (default: the paper's flights&hotels table)",
        )
        sub.add_argument("--csv", help="flat CSV file to use as the candidate table instead")
        sub.add_argument(
            "--strategy",
            default="lookahead-entropy",
            help="strategy for choosing the next tuple (see 'jim strategies')",
        )
        sub.add_argument(
            "--goal",
            help="goal query as comma-separated equalities, e.g. 'To=City,Airline=Discount'",
        )
        sub.add_argument(
            "--max-interactions",
            type=int,
            default=None,
            help="stop after this many membership queries even if not converged",
        )

    demo = subparsers.add_parser("demo", help="interactive console demo (you answer y/n)")
    add_common(demo)

    infer = subparsers.add_parser("infer", help="simulated inference against a goal query")
    add_common(infer)

    subparsers.add_parser("strategies", help="list the registered strategies")
    return parser


def parse_goal(text: str) -> JoinQuery:
    """Parse ``"A=B,C=D"`` into a :class:`JoinQuery`."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ReproError(f"cannot parse goal atom {chunk!r}; expected 'Attr=Attr'")
        left, right = (part.strip() for part in chunk.split("=", 1))
        if not left or not right:
            raise ReproError(f"cannot parse goal atom {chunk!r}; expected 'Attr=Attr'")
        pairs.append((left, right))
    if not pairs:
        raise ReproError("the goal query must contain at least one equality")
    return JoinQuery.of(*pairs)


def load_table(dataset: str, csv_path: str | None) -> CandidateTable:
    """The candidate table selected by ``--dataset`` / ``--csv``."""
    if csv_path:
        return read_candidate_table_csv(csv_path)
    if dataset == "flights":
        return flights_hotels.figure1_table()
    if dataset == "setgame":
        return setgame.pair_table(deck_size=12, seed=7)
    if dataset == "tpch":
        return tpch.tpch_candidate_table("orders-customer", max_rows=None)
    if dataset == "synthetic":
        return synthetic.generate_candidate_table(
            synthetic.SyntheticConfig(tuples_per_relation=10, domain_size=4, seed=0)
        )
    raise ReproError(f"unknown dataset {dataset!r}")  # pragma: no cover - argparse guards this


def default_goal(dataset: str) -> JoinQuery:
    """A sensible goal query per built-in dataset (used when --goal is omitted)."""
    if dataset == "flights":
        return flights_hotels.query_q2()
    if dataset == "setgame":
        return setgame.demo_goal_query()
    if dataset == "tpch":
        return tpch.fk_join_goal("orders-customer")
    return synthetic.random_goal_query(
        synthetic.generate_candidate_table(
            synthetic.SyntheticConfig(tuples_per_relation=10, domain_size=4, seed=0)
        ),
        num_atoms=2,
        seed=2,
    )


def _print_outcome(
    table: CandidateTable, query: JoinQuery, num_interactions: int, converged: bool
) -> None:
    """The result block shared by the ``demo`` and ``infer`` subcommands."""
    print(f"inferred join query : {query.describe()}")
    print(f"membership queries  : {num_interactions} (of {len(table)} candidate tuples)")
    print(f"converged           : {converged}")
    print(f"SQL                 : {query.to_sql(table)}")
    if table.has_provenance() and not query.is_empty:
        mapping = as_gav_mapping(query, table, target="InferredJoin")
        print(f"GAV mapping         : {mapping.to_datalog()}")


def run_inference(args: argparse.Namespace, oracle: Oracle) -> int:
    """Driver of the ``infer`` subcommand (blocking engine run)."""
    table = load_table(args.dataset, args.csv)
    engine = JoinInferenceEngine(table, strategy=args.strategy)
    result = engine.run(oracle, max_interactions=args.max_interactions)
    _print_outcome(table, result.query, result.num_interactions, result.converged)
    return 0


def run_demo(args: argparse.Namespace, oracle: Oracle) -> int:
    """Driver of the ``demo`` subcommand.

    The CLI is a frontend like any other since the sans-IO redesign: it steps
    an :class:`~repro.core.stepper.InferenceSession`, consulting the
    oracle (a human at the terminal, or a goal query for scripted runs) for
    each :class:`~repro.core.protocol.QuestionAsked` event.
    """
    table = load_table(args.dataset, args.csv)
    print(render_table(table, max_rows=20))
    print()
    session = InferenceSession(table, mode="guided", strategy=args.strategy)
    converged = True
    while not session.is_converged():
        if (
            args.max_interactions is not None
            and session.num_interactions >= args.max_interactions
        ):
            converged = False
            break
        question = session.next_question()
        session.submit(oracle.label(table, question.tuple_id))
    _print_outcome(table, session.inferred_query(), session.num_interactions, converged)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``jim`` command (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "strategies":
            for name in available_strategies():
                print(name)
            return 0
        if args.command == "infer":
            goal = parse_goal(args.goal) if args.goal else default_goal(args.dataset)
            print(f"goal query          : {goal.describe()}")
            return run_inference(args, GoalQueryOracle(goal))
        # demo: a human answers unless a goal is given for scripted runs.
        if args.goal:
            oracle: Oracle = GoalQueryOracle(parse_goal(args.goal))
        else:
            oracle = ConsoleOracle()
        return run_demo(args, oracle)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
