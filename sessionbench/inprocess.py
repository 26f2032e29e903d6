"""The in-process workloads: ``wide-schema`` and ``large-table``.

Both drive guided ``lookahead-entropy`` sessions from one closed-loop client
through the synchronous :class:`~repro.service.service.SessionService`.
``wide-schema`` gives every session its own 1,600-candidate table with 36
atoms, so choosing the next question dominates.  ``large-table`` shares four
10⁶-candidate factorised cross products between its sessions, so registering
the tables and expanding factorised types into tuple ids dominate.
"""

from __future__ import annotations

import random
import time

from common import PrimedOracle, Recorder, SessionSpec, scope
from hostref import HostReference

from repro.datasets import synthetic
from repro.relational.candidate import CandidateTable
from repro.service.protocol import Converged, QuestionAsked
from repro.service.service import SessionService

#: ``SyntheticConfig(2, 6, 40, 3)``: 1,600 candidates, 36 atoms.
WIDE_SHAPE = {
    "num_relations": 2, "attributes_per_relation": 6, "tuples_per_relation": 40, "domain_size": 3
}
#: ``SyntheticConfig(2, 3, 1000, 6)``: 10⁶ candidates, 9 atoms.
LARGE_SHAPE = {
    "num_relations": 2, "attributes_per_relation": 3, "tuples_per_relation": 1000, "domain_size": 6
}
#: Sessions per measured second (fixed work: the count depends only on --seconds).
WIDE_SESSIONS_PER_SECOND = 3.2
LARGE_SESSIONS_PER_SECOND = 1.3
LARGE_TABLES = 4
#: Table seed of the untimed warm-up session of ``wide-schema``.
WARMUP_TABLE_SEED = 10_000
GOAL_ATOMS = 2


def drive_session(service, fingerprint, spec: SessionSpec, oracle: PrimedOracle, tracer):
    """One closed-loop session; returns ``(first_s, step_s, wall_s, events)``.

    A step is one answer command plus the ``next_question`` that follows it:
    the time the user waits after labelling.
    """
    events = []
    steps: list[float] = []
    with scope(tracer, "session", spec.key, root=True):
        started = time.perf_counter()
        session_id = service.create(
            fingerprint, mode=spec.mode, strategy=spec.strategy, k=spec.k
        ).session_id
        event = service.next_question(session_id)
        first = time.perf_counter() - started
        while not isinstance(event, Converged):
            events.append(event)
            with scope(tracer, "oracle"):
                if isinstance(event, QuestionAsked):
                    label = oracle.label(event.tuple_id)
                else:
                    answers = oracle.answers(event.tuple_ids)
            step_started = time.perf_counter()
            if isinstance(event, QuestionAsked):
                applied = [service.answer(session_id, label)]
            else:
                applied = service.answer_many(session_id, answers)
            event = service.next_question(session_id)
            steps.append(time.perf_counter() - step_started)
            events.extend(applied)
        service.close(session_id)
        wall = time.perf_counter() - started
    events.append(event)
    return first, steps, wall, events


def run_session(service, fingerprint, spec, oracle, recorder: Recorder, tracer, timed: bool) -> None:
    """Drive, check and (when ``timed``) record one session."""
    recorder.attempted += 1
    try:
        first, steps, wall, events = drive_session(service, fingerprint, spec, oracle, tracer)
    except Exception as exc:  # a failing session counts against attempted
        recorder.fail(spec.key, f"{type(exc).__name__}: {exc}")
        return
    if not oracle.accepts(events[-1]):
        recorder.fail(spec.key, "converged to a query not instance-equivalent to the goal")
        return
    if not timed:
        return
    recorder.add_session(spec.key, first, steps, events)
    recorder.add_wall(wall)


def _timed_setup(instance, service: SessionService, recorder: Recorder, tracer):
    """``cross_product`` plus ``register_table``: the table becomes servable."""
    with scope(tracer, "setup", root=True):
        started = time.perf_counter()
        table = CandidateTable.cross_product(instance, name="synthetic_candidates")
        fingerprint = service.register_table(table)
        recorder.add_setup(time.perf_counter() - started)
    return table, fingerprint


def run_wide(seed: int, seconds: int, tracer) -> tuple[Recorder, HostReference, dict]:
    """Each session gets its own wide table; set-up, session, reference kernel."""
    host = HostReference()
    recorder = Recorder(host)
    service = SessionService()
    count = max(3, round(WIDE_SESSIONS_PER_SECOND * seconds))
    table_seeds = list(range(count))
    random.Random(seed).shuffle(table_seeds)
    warm = synthetic.SyntheticConfig(**WIDE_SHAPE, seed=WARMUP_TABLE_SEED)
    table, fingerprint = _timed_setup(synthetic.generate_instance(warm), service, Recorder(host), None)
    goal = synthetic.random_goal_query(table, GOAL_ATOMS, seed=warm.seed + 2)
    spec = SessionSpec("wide/warm-up", "wide/warm-up", goal)
    run_session(service, fingerprint, spec, PrimedOracle(table, goal), recorder, None, timed=False)
    host.run()
    for table_seed in table_seeds:
        config = synthetic.SyntheticConfig(**WIDE_SHAPE, seed=table_seed)
        instance = synthetic.generate_instance(config)
        table, fingerprint = _timed_setup(instance, service, recorder, tracer)
        goal = synthetic.random_goal_query(table, GOAL_ATOMS, seed=table_seed + 2)
        key = f"wide/t{table_seed:03d}"
        spec = SessionSpec(key, key, goal)
        run_session(service, fingerprint, spec, PrimedOracle(table, goal), recorder, tracer, True)
        host.run()
    return recorder, host, {"tables": count}


def _distinct_goals(table: CandidateTable, table_seed: int, count: int) -> list:
    """``count`` distinct planted 2-atom goals over one table, drawn from fixed seeds."""
    goals = []
    seen = set()
    draw = 0
    while len(goals) < count:
        goal = synthetic.random_goal_query(table, GOAL_ATOMS, seed=1000 * table_seed + draw)
        draw += 1
        if goal.atoms not in seen:
            seen.add(goal.atoms)
            goals.append(goal)
    return goals


def run_large(seed: int, seconds: int, tracer) -> tuple[Recorder, HostReference, dict]:
    """Four shared 10⁶-candidate tables; sessions in a seed-shuffled order."""
    host = HostReference()
    recorder = Recorder(host)
    service = SessionService()
    per_table = max(1, round(LARGE_SESSIONS_PER_SECOND * seconds / LARGE_TABLES))
    plan = []
    tables = {}
    for table_seed in range(LARGE_TABLES):
        config = synthetic.SyntheticConfig(**LARGE_SHAPE, seed=table_seed)
        instance = synthetic.generate_instance(config)
        host.run()
        table_key = f"large/t{table_seed}"
        tables[table_key] = _timed_setup(instance, service, recorder, tracer)
        goals = _distinct_goals(tables[table_key][0], table_seed, per_table + 1)
        if table_seed == 0:
            warm_goal = goals[-1]
        for number, goal in enumerate(goals[:per_table]):
            plan.append(SessionSpec(f"{table_key}/g{number:02d}", table_key, goal))
    # An extra goal over the first table drives the untimed warm-up session.
    table, fingerprint = tables["large/t0"]
    warm_spec = SessionSpec("large/warm-up", "large/t0", warm_goal)
    run_session(service, fingerprint, warm_spec, PrimedOracle(table, warm_goal), recorder, None, False)
    random.Random(seed).shuffle(plan)
    host.run()
    for spec in plan:
        table, fingerprint = tables[spec.table_key]
        oracle = PrimedOracle(table, spec.goal)
        run_session(service, fingerprint, spec, oracle, recorder, tracer, True)
        host.run()
    return recorder, host, {"tables": LARGE_TABLES}
