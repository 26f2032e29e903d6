"""Tests for the sans-IO protocol events and their JSON wire form."""

from __future__ import annotations

import json

import pytest

from repro.core.examples import Label
from repro.core.protocol import (
    BatchQuestionsAsked,
    Converged,
    LabelApplied,
    ProtocolError,
    QuestionAsked,
    converged_event,
    decode_event,
    encode_event,
    event_from_wire,
    event_to_wire,
)
from repro.core.queries import JoinQuery

EVENTS = [
    QuestionAsked(step=3, tuple_id=7, attributes=("To", "City"), row=("Paris", "Paris")),
    BatchQuestionsAsked(step=1, tuple_ids=(4, 2, 9), k=3),
    BatchQuestionsAsked(step=2, tuple_ids=(), k=None),
    LabelApplied(step=5, tuple_id=7, label=Label.POSITIVE, pruned=4, informative_remaining=2),
    Converged(step=6, query="City ≍ To", atoms=(("City", "To"),)),
]


class TestRoundTrip:
    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.type)
    def test_wire_roundtrip(self, event):
        assert event_from_wire(event_to_wire(event)) == event

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.type)
    def test_json_text_roundtrip(self, event):
        text = encode_event(event)
        json.loads(text)  # valid JSON
        assert decode_event(text) == event

    def test_wire_form_is_plain_json_types(self):
        payload = event_to_wire(EVENTS[3])
        assert payload["type"] == "label_applied"
        assert payload["label"] == "+"
        json.dumps(payload)

    def test_wire_form_tags_are_stable(self):
        assert [event_to_wire(e)["type"] for e in EVENTS] == [
            "question",
            "questions",
            "questions",
            "label_applied",
            "converged",
        ]


class TestConvergedHelpers:
    def test_converged_event_carries_query_atoms(self):
        query = JoinQuery.of(("To", "City"), ("Airline", "Discount"))
        event = converged_event(4, query)
        assert event.step == 4
        assert event.query == query.describe()
        assert event.as_join_query() == query

    def test_roundtrip_preserves_join_query(self):
        query = JoinQuery.of(("a", "b"))
        event = converged_event(1, query)
        assert decode_event(encode_event(event)).as_join_query() == query


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown event type"):
            event_from_wire({"type": "nope"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            event_from_wire(["question"])

    def test_missing_fields_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            event_from_wire({"type": "question", "step": 1})

    def test_bad_label_rejected(self):
        payload = event_to_wire(EVENTS[3])
        payload["label"] = "maybe"
        with pytest.raises(ProtocolError):
            event_from_wire(payload)

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_event("{nope")
