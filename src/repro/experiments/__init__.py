"""Experiments: the harnesses that regenerate every figure of the paper.

See EXPERIMENTS.md for the experiments E1–E10, their measured results and the
benchmark that regenerates each.
Each module exposes plain functions returning
:class:`~repro.experiments.results.ResultTable` objects; the corresponding
benchmarks in ``benchmarks/`` call them and print the tables.
"""

from . import (
    ablation,
    crowd,
    interactions,
    results,
    runner,
    scalability,
    strategy_comparison,
    tpch_experiment,
    trajectory,
    walkthrough,
)
from .results import ResultTable
from .runner import run_matrix, run_single
from .trajectory import load_records, record_benchmark

__all__ = [
    "ResultTable",
    "ablation",
    "crowd",
    "interactions",
    "load_records",
    "record_benchmark",
    "results",
    "run_matrix",
    "run_single",
    "runner",
    "scalability",
    "strategy_comparison",
    "tpch_experiment",
    "trajectory",
    "walkthrough",
]
