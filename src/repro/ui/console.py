"""Console demo driver: the terminal stand-in for the JIM GUI.

``run_console_demo`` drives a fully guided session (interaction type 4) at the
terminal: it prints the candidate table, repeatedly shows the most informative
tuple, reads a ``y``/``n`` answer, shows what got grayed out, and finally
prints the inferred query.  ``run_scripted_demo`` does the same against an
oracle and returns the transcript as a string, which is what the tests and the
examples use (no interactive input needed).

Both are adapters over the sans-IO stepper: the loop below consumes
:class:`~repro.core.protocol.QuestionAsked` events — which carry the row
to render — answers them via the oracle, and feeds the labels back with
``submit``.  It is the same protocol conversation the HTTP demo has, printed
instead of serialised.
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.oracle import ConsoleOracle, Oracle
from ..core.queries import JoinQuery
from ..core.stepper import InferenceSession
from ..core.strategies.base import Strategy
from ..relational.candidate import CandidateTable
from ..sessions.statistics import SessionStatistics
from .renderer import render_state, render_table

Printer = Callable[[str], None]


def run_scripted_demo(
    table: CandidateTable,
    oracle: Oracle,
    strategy: Strategy | str | None = None,
    max_interactions: int | None = None,
    show_table_every_step: bool = False,
) -> tuple[JoinQuery, str]:
    """Run a guided session against an oracle and return (query, transcript)."""
    lines: list[str] = []

    def emit(text: str) -> None:
        lines.append(text)

    query = _drive(table, oracle, strategy, emit, max_interactions, show_table_every_step)
    return query, "\n".join(lines)


def run_console_demo(
    table: CandidateTable,
    strategy: Strategy | str | None = None,
    max_interactions: int | None = None,
) -> JoinQuery:
    """Run a guided session interactively at the terminal (blocking on input)."""
    return _drive(table, ConsoleOracle(), strategy, print, max_interactions, False)


def _drive(
    table: CandidateTable,
    oracle: Oracle,
    strategy: Strategy | str | None,
    emit: Printer,
    max_interactions: int | None,
    show_table_every_step: bool,
) -> JoinQuery:
    session = InferenceSession(table, mode="guided", strategy=strategy)
    emit("=== JIM: interactive join query inference ===")
    emit(render_table(table, max_rows=20))
    emit("")
    while not session.is_converged():
        if max_interactions is not None and session.num_interactions >= max_interactions:
            emit(f"stopping after {max_interactions} interactions (not converged)")
            break
        event = session.next_question()
        rendered = ", ".join(
            f"{name}={value!r}" for name, value in zip(event.attributes, event.row, strict=True)
        )
        emit(f"[{event.step}] label tuple ({event.tuple_id + 1}): {rendered}")
        label = oracle.label(table, event.tuple_id)
        session.submit(label)
        emit(f"    answer: {label.value}   {session.last_propagation().summary()}")
        if show_table_every_step:
            emit(render_state(session.state, max_rows=20))
            emit("")
    query = session.inferred_query()
    emit("")
    emit(f"inferred join query: {query.describe()}")
    emit(f"membership queries asked: {session.num_interactions}")
    emit(SessionStatistics.from_state(session.state).summary())
    return query
