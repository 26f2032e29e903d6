"""RPR009 — the import-layer DAG is law.

The repository's layering — ``exceptions`` at the bottom, the relational
substrate above it, the inference core above that, then sessions, then the
service tier, and the frontends (``experiments``, ``ui``, ``cli``) on top —
is what keeps the sans-IO core reusable and the package importable in under
a millisecond of surprise.  A module-level ``from ..service import …`` in a
lower layer executes the whole serving tier whenever the lower layer is
touched; the same import deferred into a function body still makes the lower
layer depend on the upper one, only later and less visibly.  Two module-level
imports pointing at each other are an ``ImportError`` waiting for the first
reordering.

Two kinds of findings:

* a **violating edge** — an import, at module level or deferred into a
  function body, from a layer that is not in the importer's allowed set.
  Only imports inside ``if TYPE_CHECKING:`` blocks are exempt: they never
  run, so annotations may name a type of a higher layer.
* an **import cycle** — any cycle in the module-level import graph,
  reported once with the full path.  Cycles are flagged in *any* package,
  including synthetic test fixtures; the layer table only governs
  ``repro.*`` modules.

``analysis`` itself is the strictest layer: it may import nothing from the
rest of the package (not even ``exceptions``), so the linter never drags
service code — or a bug in it — into a lint run.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..framework import Finding, Scope, register_rule
from ..project import ImportEdge, ProjectModel, ProjectRule

#: layer -> layers it may import (outside ``if TYPE_CHECKING:``).  A layer absent from the
#: table (third-party code, benchmarks, test fixtures) is unrestricted; the
#: package root (``repro/__init__``) re-exports across layers by design.
LAYER_DAG: dict[str, frozenset[str]] = {
    "exceptions": frozenset(),
    "relational": frozenset({"exceptions"}),
    "core": frozenset({"exceptions", "relational"}),
    "sessions": frozenset({"exceptions", "relational", "core"}),
    "datasets": frozenset({"exceptions", "relational", "core"}),
    "baselines": frozenset({"exceptions", "relational", "core", "sessions"}),
    "service": frozenset({"exceptions", "relational", "core", "sessions"}),
    "experiments": frozenset(
        {"exceptions", "relational", "core", "sessions", "datasets", "baselines", "service"}
    ),
    "ui": frozenset({"exceptions", "relational", "core", "sessions", "service"}),
    "cli": frozenset(
        {
            "exceptions",
            "relational",
            "core",
            "sessions",
            "datasets",
            "baselines",
            "service",
            "ui",
            "experiments",
        }
    ),
    # The analyzer imports nothing from the library it checks.
    "analysis": frozenset(),
}

_PACKAGE = "repro"


def _layer_of(module: str) -> str | None:
    """The layer a ``repro.*`` module belongs to, or ``None`` when ungoverned."""
    parts = module.split(".")
    if parts[0] != _PACKAGE:
        return None
    if len(parts) == 1:
        return None  # the package root re-exports across layers by design
    return parts[1]


@register_rule
class LayerArchitectureRule(ProjectRule):
    code = "RPR009"
    name = "layer-architecture"
    rationale = (
        "imports outside TYPE_CHECKING follow the declared layer DAG "
        "(exceptions -> relational -> core -> sessions -> service -> frontends) "
        "and the import graph stays acyclic"
    )
    default_scope = Scope()

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        yield from self._violating_edges(
            [edge for edge in project.import_edges if not edge.type_checking]
        )
        yield from self._cycles([edge for edge in project.import_edges if edge.import_time])

    def _violating_edges(self, edges: list[ImportEdge]) -> Iterator[Finding]:
        seen: set[tuple[str, int, str, str]] = set()
        for edge in edges:
            key = (edge.relpath, edge.line, edge.importer, edge.target)
            if key in seen:  # one ``from x import a, b`` records an edge per name
                continue
            seen.add(key)
            importer_layer = _layer_of(edge.importer)
            target_layer = _layer_of(edge.target)
            if importer_layer is None or target_layer is None:
                continue
            if importer_layer == target_layer:
                continue
            allowed = LAYER_DAG.get(importer_layer)
            if allowed is None or target_layer in allowed:
                continue
            allowed_text = ", ".join(sorted(allowed)) if allowed else "nothing"
            when = "in a function body" if edge.deferred else "at import time"
            yield self.finding_at(
                edge.relpath,
                edge.line,
                f"layer '{importer_layer}' must not import layer '{target_layer}' "
                f"{when} ({edge.importer} -> {edge.target}; allowed: "
                f"{allowed_text}); move the code down a layer or pass what it "
                "needs in from the caller",
            )

    def _cycles(self, edges: list[ImportEdge]) -> Iterator[Finding]:
        graph: dict[str, list[ImportEdge]] = {}
        for edge in edges:
            graph.setdefault(edge.importer, []).append(edge)
        seen_cycles: set[tuple[str, ...]] = set()
        state: dict[str, int] = {}  # 1 = on stack, 2 = done
        stack: list[ImportEdge] = []

        def visit(module: str) -> Iterator[Finding]:
            state[module] = 1
            for edge in graph.get(module, ()):
                if state.get(edge.target, 0) == 1:
                    # Found a cycle: the stack suffix from the target onward.
                    start = next(
                        i for i, e in enumerate([*stack, edge]) if e.importer == edge.target
                    )
                    cycle_edges = [*stack[start:], edge]
                    key = _canonical_cycle(tuple(e.importer for e in cycle_edges))
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        path = " -> ".join(
                            [*(e.importer for e in cycle_edges), edge.target]
                        )
                        anchor = min(cycle_edges, key=lambda e: (e.relpath, e.line))
                        yield self.finding_at(
                            anchor.relpath,
                            anchor.line,
                            f"import cycle: {path}",
                        )
                elif state.get(edge.target, 0) == 0:
                    stack.append(edge)
                    yield from visit(edge.target)
                    stack.pop()
            state[module] = 2

        for module in sorted(graph):
            if state.get(module, 0) == 0:
                yield from visit(module)


def _canonical_cycle(nodes: tuple[str, ...]) -> tuple[str, ...]:
    """Rotation-invariant key for a cycle's node sequence."""
    pivot = nodes.index(min(nodes))
    return nodes[pivot:] + nodes[:pivot]
