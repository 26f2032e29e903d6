"""Alias of :mod:`repro.core.stepper`, where the sans-IO stepper lives."""

from ..core.stepper import InferenceSession

__all__ = ["InferenceSession"]
