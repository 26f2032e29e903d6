"""The ``serve-cluster`` workload: the serving tiers under small sessions.

Stack: ``AsyncSessionService(ClusterSessionService(num_workers=2),
max_workers=2)`` with two closed-loop clients.  Three tables are registered
once per cluster and shared by every session: Figure 1 (goals Q1 and Q2),
TPC-H ``customer-orders-lineitem`` (2,000 sampled rows, its FK goal) and a
synthetic ``(2, 3, 80, 4)`` table (three seeded goals).  Every goal is run
with three session kinds — guided ``lookahead-entropy``, guided
``local-most-specific`` and top-k with k=5 via ``answer_many`` — so sessions
are small and the hops between tiers, not inference, dominate.

Every cluster session's wire events must be byte-identical to an in-process
:class:`~repro.service.stepper.InferenceSession` reference computed before
the event loop starts.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque

from common import PrimedOracle, Recorder, SessionSpec, scope
from hostref import HostReference

from repro.datasets import flights_hotels, synthetic, tpch
from repro.service.aio import AsyncSessionService
from repro.service.cluster import ClusterSessionService
from repro.service.protocol import Converged, QuestionAsked, encode_event
from repro.service.stepper import InferenceSession

WORKERS = 2
CLIENTS = 2
#: Session kinds: (mode, strategy, k).
KINDS = (
    ("guided", "lookahead-entropy", None),
    ("guided", "local-most-specific", None),
    ("top-k", None, 5),
)
#: Rounds of every (goal, kind) combination per measured second.
ROUNDS_PER_SECOND = 2.5
#: Cluster incarnations per run; each is one set-up sample.
INCARNATIONS = 3
#: Sessions between two barriers, where the host reference kernel runs.
BLOCK = 36
TPCH_JOIN = "customer-orders-lineitem"
SYNTHETIC_CONFIG = synthetic.SyntheticConfig(
    num_relations=2, attributes_per_relation=3, tuples_per_relation=80, domain_size=4, seed=11
)
SYNTHETIC_GOAL_SEEDS = (21, 22, 23)


def build_tables() -> dict:
    """Fresh instances of the three shared tables: ``key -> (table, {goal_key: goal})``."""
    figure1 = flights_hotels.figure1_table()
    orders = tpch.tpch_candidate_table(TPCH_JOIN, max_rows=2000)
    syn = synthetic.generate_candidate_table(SYNTHETIC_CONFIG)
    syn_goals = {}
    for goal_seed in SYNTHETIC_GOAL_SEEDS:
        goal = synthetic.random_goal_query(syn, 2, seed=goal_seed)
        syn_goals[f"g{goal_seed}"] = goal
    return {
        "figure1": (figure1, {"q1": flights_hotels.query_q1(), "q2": flights_hotels.query_q2()}),
        "tpch": (orders, {"fk": tpch.fk_join_goal(TPCH_JOIN)}),
        "synthetic": (syn, syn_goals),
    }


def combinations(tables: dict) -> list[SessionSpec]:
    """Every (table, goal, kind) combination, as session templates."""
    specs = []
    for table_key, (_, goals) in tables.items():
        for goal_key, goal in goals.items():
            for mode, strategy, k in KINDS:
                kind = strategy if mode == "guided" else f"{mode}-{k}"
                specs.append(
                    SessionSpec(f"{table_key}/{goal_key}/{kind}", table_key, goal, mode, strategy, k)
                )
    return specs


def reference_events(table, spec: SessionSpec, oracle: PrimedOracle) -> list[str]:
    """The encoded events of one session run directly on the sans-IO stepper."""
    session = InferenceSession(table, mode=spec.mode, strategy=spec.strategy, k=spec.k)
    events = []
    event = session.next_question()
    while not isinstance(event, Converged):
        events.append(event)
        if isinstance(event, QuestionAsked):
            events.append(session.submit(oracle.label(event.tuple_id)))
        else:
            events.extend(session.submit_many(oracle.answers(event.tuple_ids)))
        event = session.next_question()
    events.append(event)
    if not oracle.accepts(event):
        raise RuntimeError(f"reference session {spec.key} did not converge to its goal")
    return [encode_event(item) for item in events]


async def drive_session(service: AsyncSessionService, fingerprint, spec, oracle, tracer):
    """One closed-loop session over the async tier; as :func:`inprocess.drive_session`."""
    events = []
    steps: list[float] = []
    with scope(tracer, "session", spec.key, root=True):
        started = time.perf_counter()
        descriptor = await service.create(
            fingerprint, mode=spec.mode, strategy=spec.strategy, k=spec.k
        )
        session_id = descriptor.session_id
        event = await service.next_question(session_id)
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
                applied = [await service.answer(session_id, label)]
            else:
                applied = await service.answer_many(session_id, answers)
            event = await service.next_question(session_id)
            steps.append(time.perf_counter() - step_started)
            events.extend(applied)
        await service.close(session_id)
        wall = time.perf_counter() - started
    events.append(event)
    return first, steps, wall, events


async def run_block(service, fingerprints, block, context, recorder, tracer, timed) -> float:
    """Run one block of sessions on ``CLIENTS`` closed-loop clients; its wall time.

    Results are checked and recorded after the block's clock stops, so the
    harness's own work between sessions does not delay the other client.
    """
    queue = deque(block)
    results = []

    async def client() -> None:
        while queue:
            spec = queue.popleft()
            oracle = context["oracles"][spec.table_key, spec.goal]
            try:
                outcome = await drive_session(
                    service, fingerprints[spec.table_key], spec, oracle, tracer
                )
            except Exception as exc:  # a failing session counts against attempted
                outcome = exc
            results.append((spec, outcome))

    started = time.perf_counter()
    clients = [asyncio.create_task(client()) for _ in range(CLIENTS)]
    await asyncio.gather(*clients)
    wall = time.perf_counter() - started
    for spec, outcome in results:
        recorder.attempted += 1
        if isinstance(outcome, Exception):
            recorder.fail(spec.key, f"{type(outcome).__name__}: {outcome}")
            continue
        first, steps, _, events = outcome
        lines = [encode_event(event) for event in events]
        if lines != context["references"][spec.key.rsplit("#", 1)[0]]:
            recorder.fail(spec.key, "wire events differ from the in-process reference")
            continue
        if timed:
            recorder.add_session(spec.key, first, steps, events)
    return wall


async def serve_incarnation(cluster, fingerprints, warmup, blocks, context, recorder, host, tracer):
    """Warm up, then run the blocks, with the reference kernel at every barrier."""
    async with AsyncSessionService(cluster, max_workers=WORKERS) as service:
        await run_block(service, fingerprints, warmup, context, recorder, None, timed=False)
        host.run()
        for block in blocks:
            wall = await run_block(service, fingerprints, block, context, recorder, tracer, True)
            recorder.add_wall(wall)
            host.run()


def serve_sessions(warmup, blocks, context, recorder, host, tracer) -> int:
    """Start a cluster (timed set-up), serve the blocks, shut it down; its respawns."""
    fresh = build_tables()
    host.run()
    with scope(tracer, "setup", root=True):
        started = time.perf_counter()
        cluster = ClusterSessionService(num_workers=WORKERS)
        try:
            fingerprints = {key: cluster.register_table(table) for key, (table, _) in fresh.items()}
            recorder.add_setup(time.perf_counter() - started)
        except BaseException:
            cluster.shutdown()
            raise
    try:
        asyncio.run(
            serve_incarnation(cluster, fingerprints, warmup, blocks, context, recorder, host, tracer)
        )
        return sum(state["generation"] for state in cluster.worker_states())
    finally:
        cluster.shutdown()


def run_serve(seed: int, seconds: int, tracer) -> tuple[Recorder, HostReference, dict]:
    """Start a cluster ``INCARNATIONS`` times; each serves its share of the sessions."""
    host = HostReference()
    recorder = Recorder(host)
    tables = build_tables()
    templates = combinations(tables)
    context = {"oracles": {}, "references": {}}
    for spec in templates:
        table = tables[spec.table_key][0]
        oracle = context["oracles"].setdefault(
            (spec.table_key, spec.goal), PrimedOracle(table, spec.goal)
        )
        context["references"][spec.key] = reference_events(table, spec, oracle)
    rounds = max(INCARNATIONS, round(ROUNDS_PER_SECOND * seconds))
    plan = [
        SessionSpec(f"{spec.key}#{number:03d}", spec.table_key, spec.goal, spec.mode, spec.strategy, spec.k)
        for number in range(rounds)
        for spec in templates
    ]
    random.Random(seed).shuffle(plan)
    share = -(-len(plan) // INCARNATIONS)
    respawns = 0
    try:
        for incarnation in range(INCARNATIONS):
            sessions = plan[incarnation * share : (incarnation + 1) * share]
            blocks = [sessions[i : i + BLOCK] for i in range(0, len(sessions), BLOCK)]
            respawns += serve_sessions(templates, blocks, context, recorder, host, tracer)
    finally:
        stop_resource_tracker()
    return recorder, host, {
        "respawns": respawns,
        "protocol_bytes": recorder.event_bytes,
        "sessions_planned": len(plan),
    }


def stop_resource_tracker() -> None:
    """Stop and reap the multiprocessing resource tracker the spawned workers started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
