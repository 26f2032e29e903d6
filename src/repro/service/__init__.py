"""The session services: many concurrent sessions behind one facade.

The sans-IO stepper (:class:`~repro.core.stepper.InferenceSession`, stepped
with ``next_question()`` / ``submit()``) and its typed event vocabulary
(:mod:`~repro.core.protocol`: :class:`QuestionAsked`, :class:`LabelApplied`,
:class:`Converged`, … with a stable JSON wire form) live in the core; both
are re-exported here.  This package serves them:

* :mod:`~repro.service.service` — :class:`SessionService`, a thread-safe
  facade managing many concurrent sessions by id over a fingerprint-keyed
  table registry, with save/resume backed by the v2 persistence format;
* :mod:`~repro.service.aio` — :class:`AsyncSessionService`, the
  asyncio-native facade: per-session ordering, bounded-executor offload of
  the CPU-bound steps, backpressure on create, and per-session event
  streams (``async for event in service.events(sid)``);
* :mod:`~repro.service.dispatch` — the crowd-batch dispatcher: simulated
  workers with latency/noise models, majority-vote aggregation, and
  :class:`CrowdDispatcher` multiplexing a session's question batches across
  a worker pool;
* :mod:`~repro.service.transport` — length-prefixed JSON framing over
  sockets (:class:`FramedConnection`, :class:`Listener`), the only module
  in the library that touches sockets;
* :mod:`~repro.service.worker` — the cluster worker loop and the
  ``python -m repro.service.worker`` entrypoint for remote machines;
* :mod:`~repro.service.cluster` — :class:`ClusterSessionService`, the
  supervised sharded tier: N workers (threads, local processes, or remote
  machines) each running a `SessionService`, consistent
  ``session_id -> worker`` routing, framed JSON commands over sockets,
  heartbeat health checks, and transparent respawn + session replay on
  worker death — the same facade as the single-process service (wrap it in
  :class:`AsyncSessionService` for streams and backpressure on real
  multi-core parallelism).

This package's ``stepper`` and ``protocol`` modules are aliases of the core
ones, kept for callers that import them by their old paths.
"""

from ..core.protocol import (
    BatchQuestionsAsked,
    Converged,
    Event,
    InteractionMode,
    LabelApplied,
    ProtocolError,
    QuestionAsked,
    decode_event,
    encode_event,
    event_from_wire,
    event_to_wire,
)
from ..core.stepper import InferenceSession, validate_mode_options
from .aio import AsyncSessionService
from .cluster import (
    ClusterServiceError,
    ClusterSessionService,
    ClusterWorkerError,
    WorkerUnavailableError,
)
from .dispatch import (
    CrowdDispatcher,
    CrowdRunReport,
    DispatchError,
    SimulatedWorker,
    WorkerProfile,
    majority_vote,
    simulated_crowd,
)
from .service import SessionDescriptor, SessionService, SessionServiceError
from .transport import (
    ConnectionClosedError,
    FramedConnection,
    FrameTooLargeError,
    Listener,
    TransportError,
)

__all__ = [
    "AsyncSessionService",
    "BatchQuestionsAsked",
    "ClusterServiceError",
    "ClusterSessionService",
    "ClusterWorkerError",
    "ConnectionClosedError",
    "Converged",
    "CrowdDispatcher",
    "CrowdRunReport",
    "DispatchError",
    "Event",
    "FrameTooLargeError",
    "FramedConnection",
    "InferenceSession",
    "InteractionMode",
    "LabelApplied",
    "Listener",
    "ProtocolError",
    "QuestionAsked",
    "SessionDescriptor",
    "SessionService",
    "SessionServiceError",
    "SimulatedWorker",
    "TransportError",
    "WorkerProfile",
    "WorkerUnavailableError",
    "decode_event",
    "encode_event",
    "event_from_wire",
    "event_to_wire",
    "majority_vote",
    "simulated_crowd",
    "validate_mode_options",
]
