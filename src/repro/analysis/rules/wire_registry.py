"""RPR006 — the wire-format event registry is complete and unambiguous.

``core/protocol.py`` defines the protocol events as frozen dataclasses,
each tagged with a class-level ``type = "…"`` wire string, and decodes
incoming payloads through the ``_EVENT_CLASSES`` tag registry.  The failure
mode this rule exists for: someone adds a fifth event dataclass, the encoder
happily serialises it (``event_to_wire`` is generic), every *sender* works —
and the first *receiver* on the other side of a pipe or socket raises
``ProtocolError: unknown event type`` in production.  The registry, the
``Event`` union, and the set of tagged dataclasses must stay in lockstep.

Checked, per module in scope:

* every dataclass carrying a class-level string ``type`` attribute is listed
  in the ``_EVENT_CLASSES`` registry expression,
* every such dataclass is a member of the ``Event`` union alias,
* no two event dataclasses share a wire tag, and
* the registry does not list names that are not tagged event dataclasses
  (a stale entry after a rename).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..framework import Finding, ModuleSource, Rule, Scope, register_rule

_REGISTRY_NAME = "_EVENT_CLASSES"
_UNION_NAME = "Event"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _wire_tag(node: ast.ClassDef) -> tuple[str, ast.stmt] | None:
    """``(tag, assignment)`` when the class carries ``type = "…"``."""
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "type"
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            return stmt.value.value, stmt
    return None


def _referenced_names(node: ast.AST) -> set[str]:
    return {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}


@register_rule
class WireRegistryRule(Rule):
    code = "RPR006"
    name = "wire-registry-completeness"
    rationale = (
        "every tagged event dataclass is registered in _EVENT_CLASSES and the "
        "Event union, with a unique wire tag"
    )
    default_scope = Scope(include=("src/repro/core/protocol.py",))

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        events: dict[str, tuple[ast.ClassDef, str]] = {}
        registry_node: ast.Assign | ast.AnnAssign | None = None
        union_node: ast.Assign | ast.AnnAssign | None = None
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                tagged = _wire_tag(node)
                if tagged is not None:
                    events[node.name] = (node, tagged[0])
                continue
            # The registry is typically annotated (`_EVENT_CLASSES: dict[...] = {…}`).
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if isinstance(target, ast.Name) and value is not None:
                if target.id == _REGISTRY_NAME:
                    registry_node = node
                elif target.id == _UNION_NAME:
                    union_node = node
        if not events:
            return

        if registry_node is None:
            yield Finding(
                relpath=module.relpath,
                line=1,
                code=self.code,
                message=f"module defines event dataclasses but no {_REGISTRY_NAME} "
                "codec registry",
            )
            registered: set[str] = set()
        else:
            registered = _referenced_names(registry_node.value)
        union_members = _referenced_names(union_node.value) if union_node is not None else set()

        tags_seen: dict[str, str] = {}
        for name, (class_node, tag) in events.items():
            if registry_node is not None and name not in registered:
                yield self.finding(
                    module,
                    class_node,
                    f"event dataclass {name} (tag {tag!r}) is missing from "
                    f"{_REGISTRY_NAME}; receivers will reject it as an unknown "
                    "event type",
                )
            if union_node is not None and name not in union_members:
                yield self.finding(
                    module,
                    class_node,
                    f"event dataclass {name} is missing from the {_UNION_NAME} "
                    "union alias",
                )
            if tag in tags_seen:
                yield self.finding(
                    module,
                    class_node,
                    f"wire tag {tag!r} of {name} collides with {tags_seen[tag]}; "
                    "decoding is ambiguous",
                )
            else:
                tags_seen[tag] = name

        if registry_node is not None:
            stale = registered - set(events) - {"cls"}
            for name in sorted(stale):
                yield self.finding(
                    module,
                    registry_node,
                    f"{_REGISTRY_NAME} references {name!r}, which is not a tagged "
                    "event dataclass in this module",
                )
