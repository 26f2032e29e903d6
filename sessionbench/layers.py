"""Which program callables the traced run wraps, and the per-layer metrics.

Every patch names a public callable of one layer, patched where its callers
look it up.  Per-layer metrics are summed over the spans of session trees
(the benchmark's ``session`` roots), except the two set-up layers, which are
summed over ``setup`` roots.  A layer's time is its self time: its spans'
durations minus the time their child spans cover, so the layer times plus the
session roots' own (unattributed) time add up to the traced session time by
construction.  What can go wrong is the nesting itself, which
:func:`span_problems` checks.
"""

from __future__ import annotations

import socket
from collections import defaultdict

from tracer import COUNTS, END, NAME, PARENT, SESSION_ROOT, SETUP_ROOT, START, Tracer, self_times

#: Service-API commands, wrapped on the in-process service and the cluster facade.
SERVICE_COMMANDS = ("register_table", "create", "next_question", "answer", "answer_many", "close")
#: Commands of the async tier.
AIO_COMMANDS = ("create", "next_question", "answer", "answer_many", "close")

#: Span name prefix -> per-layer time metric (self time, session trees).
TIME_METRICS = {
    "equality_types.build": "equality_types.build_s",
    "atoms.universe": "atoms.universe_s",
    "state.init": "state.init_s",
    "kernels.prune_counts": "kernels.prune_counts_s",
    "strategies.choose": "strategies.choose_self_s",
    "state.tiebreak": "state.tiebreak_s",
    "state.add_label": "state.add_label_s",
    "informativeness.apply_label": "informativeness.apply_label_s",
    "propagation.delta": "propagation.delta_s",
    "stepper.": "stepper.self_s",
    "protocol.": "protocol.encode_s",
    "service.": "service.self_s",
    "aio.": "aio.wait_s",
    "transport.": "cluster.round_trip_s",
    "candidate.fingerprint": "candidate.fingerprint_s",
    "oracle": "oracle_s",
}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "candidate.fingerprint_s": "s",
    "equality_types.build_s": "s",
    "equality_types.distinct_types": "count",
    "atoms.universe_s": "s",
    "state.init_s": "s",
    "kernels.prune_counts_s": "s",
    "kernels.calls": "count",
    "kernels.scored_types": "count",
    "strategies.choose_self_s": "s",
    "state.tiebreak_s": "s",
    "state.add_label_s": "s",
    "informativeness.apply_label_s": "s",
    "propagation.delta_s": "s",
    "propagation.types_flipped": "count",
    "propagation.ids_expanded": "count",
    "stepper.self_s": "s",
    "protocol.encode_s": "s",
    "protocol.bytes": "bytes",
    "service.self_s": "s",
    "service.commands": "count",
    "service.failed": "count",
    "aio.wait_s": "s",
    "cluster.round_trip_s": "s",
    "cluster.frames": "count",
    "cluster.respawns": "count",
    "transport.bytes_out": "bytes",
    "transport.bytes_in": "bytes",
    "wire.table_broadcast_s": "s",
    "oracle_s": "s",
    "session_s": "s",
    "unattributed_share": "share",
    "tracing.overhead_share": "share",
}


def _distinct_types(args, kwargs, result):
    return {"types": len(args[0].distinct_masks)}


def _scored_types(args, kwargs, result):
    return {"types": len(args[2])}


def _flipped(args, kwargs, result):
    return {
        "types": len(args[4]) + len(args[5]),
        "ids": len(result.newly_certain_positive) + len(result.newly_certain_negative),
    }


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries.  Undo with ``tracer.restore()``."""
    from repro.core import atoms, equality_types, informativeness, kernels, state
    from repro.core.strategies import local, lookahead
    from repro.relational import candidate
    from repro.service import aio, cluster, service, stepper, transport

    tracer.patch(candidate.CandidateTable, "fingerprint", "candidate.fingerprint")
    tracer.patch(atoms.AtomUniverse, "from_table", "atoms.universe")
    tracer.patch(
        equality_types.EqualityTypeIndex, "__init__", "equality_types.build", _distinct_types
    )
    tracer.patch(state.InferenceState, "__init__", "state.init")
    tracer.patch(state.InferenceState, "add_label", "state.add_label")
    tracer.patch(state.InferenceState, "first_informative_id", "state.tiebreak")
    tracer.patch(state, "delta_result", "propagation.delta", _flipped)
    tracer.patch(informativeness.TypeStatusCache, "apply_label", "informativeness.apply_label")
    tracer.patch(kernels, "prune_counts_batch", "kernels.prune_counts", _scored_types)
    tracer.patch(lookahead.EntropyStrategy, "choose", "strategies.choose")
    tracer.patch(local.LocalMostSpecificStrategy, "choose", "strategies.choose")
    for method in ("__init__", "next_question", "submit", "submit_many"):
        tracer.patch(stepper.InferenceSession, method, f"stepper.{method}")
    for method in SERVICE_COMMANDS:
        tracer.patch(service.SessionService, method, f"service.{method}")
        tracer.patch(cluster.ClusterSessionService, method, f"service.{method}")
    for method in AIO_COMMANDS:
        tracer.patch(aio.AsyncSessionService, method, f"aio.{method}")
    tracer.patch_executor_factory(aio, "create_thread_pool")
    tracer.patch(aio, "event_to_wire", "protocol.encode")
    tracer.patch(cluster, "event_from_wire", "protocol.decode")
    tracer.patch(transport.FramedConnection, "send", "transport.send")
    tracer.patch(transport.FramedConnection, "recv", "transport.recv")
    # Frame bytes are counted where they cross the socket, inside the
    # send/recv spans, so no payload is kept or encoded twice.
    tracer.patch_counter(socket.socket, "sendall", "bytes_out", lambda args, result: len(args[1]))
    tracer.patch_counter(socket.socket, "recv", "bytes_in", lambda args, result: len(result))


def span_problems(spans: list[list], limit: int = 5) -> list[str]:
    """Spans left open, or child spans outside their parent's interval.

    Either means a wrapper lost track of its caller, and the layer times
    built from the spans cannot be trusted.
    """
    problems = []
    for index, span in enumerate(spans):
        if span[END] == 0.0:
            problems.append(f"span {index} ({span[NAME]}) was never closed")
            continue
        parent = span[PARENT]
        if parent is not None:
            outer = spans[parent]
            if span[START] < outer[START] or (outer[END] and span[END] > outer[END]):
                problems.append(
                    f"span {index} ({span[NAME]}) lies outside its parent {parent} ({outer[NAME]})"
                )
        if len(problems) >= limit:
            break
    return problems


def per_layer_metrics(
    tracer: Tracer, wrapper_cost_s: float, harness: dict, broadcast: bool
) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of a traced run, and the accounting check.

    ``harness`` supplies what the driver counted itself: ``respawns`` (worker
    generations at cluster shutdown) and ``protocol_bytes`` (the JSON wire
    size of the events the async tier encoded).

    Returns ``(metrics, identity)``; ``identity`` holds the traced session
    time, the sum of layer self times plus the roots' own time (equal to it
    by construction) and the number of spans.
    """
    spans = tracer.spans
    own, roots = self_times(spans)
    values: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    session_total = 0.0
    attributed = 0.0
    unattributed = 0.0
    session_spans = 0
    for index, span in enumerate(spans):
        root = spans[roots[index]]
        name = span[NAME]
        counts = span[COUNTS] or {}
        if root[NAME] == SETUP_ROOT:
            if name == "candidate.fingerprint":
                values["candidate.fingerprint_s"] += own[index]
            if broadcast and name == "service.register_table":
                values["wire.table_broadcast_s"] += span[END] - span[START]
            continue
        if root[NAME] != SESSION_ROOT:
            continue
        session_spans += 1
        if index == roots[index]:
            session_total += span[END] - span[START]
            unattributed += own[index]
            continue
        metric = next(
            (metric for prefix, metric in TIME_METRICS.items() if name.startswith(prefix)),
            None,
        )
        if metric is None:
            raise RuntimeError(f"span {name!r} belongs to no layer")
        values[metric] += own[index]
        attributed += own[index]
        if name == "equality_types.build":
            counters["builds"] += 1
            counters["distinct_types"] += counts["types"]
        elif name == "kernels.prune_counts":
            counters["kernels.calls"] += 1
            counters["kernels.scored_types"] += counts.get("types", 0)
        elif name == "propagation.delta":
            counters["propagation.types_flipped"] += counts.get("types", 0)
            counters["propagation.ids_expanded"] += counts.get("ids", 0)
        elif name.startswith("service."):
            counters["service.commands"] += 1
            counters["service.failed"] += counts.get("failed", 0)
        elif name == "transport.send":
            counters["transport.bytes_out"] += counts.get("bytes_out", 0)
        elif name == "transport.recv":
            counters["cluster.frames"] += 1
            counters["transport.bytes_in"] += counts.get("bytes_in", 0)
    for name in (
        "kernels.calls",
        "kernels.scored_types",
        "propagation.types_flipped",
        "propagation.ids_expanded",
        "service.commands",
        "service.failed",
        "cluster.frames",
        "transport.bytes_out",
        "transport.bytes_in",
    ):
        values[name] = counters[name]
    values["equality_types.distinct_types"] = (
        counters["distinct_types"] / counters["builds"] if counters["builds"] else 0
    )
    values["cluster.respawns"] = harness.get("respawns", 0)
    values["protocol.bytes"] = harness.get("protocol_bytes", 0)
    values["session_s"] = session_total
    values["unattributed_share"] = unattributed / session_total if session_total else 0.0
    traced_calls = session_spans - sum(1 for i in range(len(spans)) if roots[i] == i)
    values["tracing.overhead_share"] = (
        traced_calls * wrapper_cost_s / session_total if session_total else 0.0
    )
    metrics = {name: float(values[name]) for name in PER_LAYER_UNITS}
    identity = {
        "session_s": session_total,
        "layers_plus_unattributed_s": attributed + unattributed,
        "spans": len(spans),
    }
    return metrics, identity
