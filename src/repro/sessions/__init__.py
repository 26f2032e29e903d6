"""Interactive sessions: the four interaction types of the demo (Figure 3),
session statistics, and the "benefit of using a strategy" report (Figure 4).
"""

from ..core.protocol import InteractionMode
from .benefit import BenefitReport, compute_benefit
from .modes import GuidedSession, ManualSession, TopKSession
from .persistence import (
    SessionPersistenceError,
    document_strict,
    load_session,
    resume_guided_session,
    save_session,
    session_options,
    table_fingerprint,
)
from .statistics import SessionStatistics

__all__ = [
    "BenefitReport",
    "GuidedSession",
    "InteractionMode",
    "ManualSession",
    "SessionPersistenceError",
    "SessionStatistics",
    "TopKSession",
    "compute_benefit",
    "document_strict",
    "load_session",
    "resume_guided_session",
    "save_session",
    "session_options",
    "table_fingerprint",
]

