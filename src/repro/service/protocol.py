"""Alias of :mod:`repro.core.protocol`, where the protocol events live."""

from ..core.protocol import Converged, Event, QuestionAsked, encode_event

__all__ = ["Converged", "Event", "QuestionAsked", "encode_event"]
