"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's figures/experiments
(E1–E10, see EXPERIMENTS.md).  Besides timing a representative
operation with pytest-benchmark, each module prints the corresponding result
table through :func:`report`, so running::

    pytest benchmarks/ --benchmark-only -s

shows both the timings and the paper-style tables (EXPERIMENTS.md quotes them).
"""

from __future__ import annotations

import pytest


def report(title: str, body: str) -> None:
    """Print an experiment's result table under a visible banner."""
    banner = "=" * max(len(title), 8)
    print(f"\n{banner}\n{title}\n{banner}\n{body}\n")


@pytest.fixture(scope="session")
def figure1_workload_q2():
    from repro.datasets.workloads import figure1_workload

    return figure1_workload("q2")
