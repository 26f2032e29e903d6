"""RPR012 — constructed resources are owned on every path.

A :class:`FramedConnection` leaked on an error path is a socket the
supervisor can no longer health-check and an fd that survives until GC
feels like it; a leaked executor is a thread pool outliving the session
that needed it; a leaked ``Popen`` is a zombie.  PR 9's chaos harness kills
workers on purpose — the cleanup story only holds if *every* construction
site has an owner.

For every tracked construction in a function body —
``FramedConnection``/``Listener``, the transport factories
(``connect``/``framed_pair``), ``create_thread_pool`` and the stdlib
executors, ``subprocess.Popen`` — the rule accepts exactly the ownership
shapes the repository uses:

* consumed by a ``with``/``async with`` (directly, or the bound variable
  used as a context manager later, or handed to an
  ``ExitStack.enter_context``/``push``/``callback``);
* a ``close``/``shutdown``/``terminate``/``kill`` call on the variable
  inside a ``finally`` block, or inside an ``except`` handler that
  re-raises (the ``Listener.__init__`` close-on-error idiom: the error
  path is covered, the success path hands ownership elsewhere);
* stored on ``self`` of a class exposing a lifecycle method
  (``close``/``shutdown``/``aclose``/``__exit__``/``__aexit__``) — the
  class takes over ownership;
* returned or yielded — the caller takes over ownership.

A construction bound to a local that does none of the above is flagged at
the construction line; a plain ``x.close()`` *outside* ``try/finally`` does
not count, because the close never runs when the code between construction
and close raises — the exact path chaos testing exercises.  Constructions
passed straight into another call (``use(FramedConnection(...))``) transfer
ownership and are not tracked; receivers the resolver cannot see through
are never guessed at.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..framework import Finding, Scope, dotted_name, register_rule
from ..project import LIFECYCLE_METHODS, ModuleInfo, ProjectModel, ProjectRule

#: Constructor class names tracked wherever they resolve from.
TRACKED_CLASSES = frozenset({"FramedConnection", "Listener", "Popen"})
#: Every ``concurrent.futures``-style ``*PoolExecutor`` class is tracked too.
TRACKED_EXECUTOR_SUFFIX = "PoolExecutor"

#: Factory functions tracked when they resolve into the owning module.
TRACKED_FACTORIES = {
    "connect": "transport",
    "framed_pair": "transport",
    "create_thread_pool": "parallel",
}

#: Method calls on the resource that release it (when inside ``finally``).
RELEASE_METHODS = frozenset({"close", "shutdown", "aclose", "terminate", "kill"})

#: ExitStack-style sinks that take ownership of an argument.
OWNERSHIP_SINKS = frozenset({"enter_context", "push", "callback"})


@register_rule
class ResourceLifecycleRule(ProjectRule):
    code = "RPR012"
    name = "resource-lifecycle"
    rationale = (
        "every constructed connection/listener/executor/Popen is closed on all "
        "paths: with/try-finally, stored on a class with a lifecycle method, "
        "or returned to the caller"
    )
    default_scope = Scope()

    def check_project(self, project: ProjectModel) -> Iterator[Finding]:
        for summary in project.iter_functions():
            info = project.modules[summary.module]
            owner = None
            if summary.cls is not None:
                owner = project.resolve_class(summary.cls, summary.module)
            scan = _ResourceScan(project, info, owner_has_lifecycle=bool(owner and owner.has_lifecycle))
            scan.run(summary.node)
            for leak in scan.leaks():
                yield self.finding_at(summary.relpath, leak.line, leak.message(summary.qualname))


class _Leak:
    def __init__(self, display: str, line: int, detail: str) -> None:
        self.display = display
        self.line = line
        self.detail = detail

    def message(self, qualname: str) -> str:
        return (
            f"{self.display} constructed in {qualname!r} {self.detail}; close it "
            "on all paths (with / try-finally), store it on self of a class with "
            "close/shutdown, or return it to the caller"
        )


class _ResourceScan:
    """Escape analysis for tracked resources in one function body."""

    def __init__(
        self, project: ProjectModel, info: ModuleInfo, owner_has_lifecycle: bool
    ) -> None:
        self.project = project
        self.info = info
        self.owner_has_lifecycle = owner_has_lifecycle
        self.tracked: dict[str, tuple[str, int]] = {}  # var -> (display, line)
        self.escaped: set[str] = set()
        self.closed_no_finally: set[str] = set()
        self.discarded: list[_Leak] = []
        self.self_store_no_lifecycle: list[_Leak] = []

    # -------------------------------------------------------------- #
    def run(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for stmt in func.body:
            self._visit(stmt, in_finally=False)

    def leaks(self) -> Iterator[_Leak]:
        yield from self.discarded
        yield from self.self_store_no_lifecycle
        reported: set[tuple[str, int]] = set()
        for var, (display, line) in self.tracked.items():
            if var in self.escaped:
                continue
            if (display, line) in reported:  # both ends of framed_pair leak as one site
                continue
            reported.add((display, line))
            if var in self.closed_no_finally:
                detail = (
                    "is closed only outside try/finally (the close never runs "
                    "when an intervening statement raises)"
                )
            else:
                detail = "has no owner on some path"
            yield _Leak(display, line, detail)

    # -------------------------------------------------------------- #
    def _visit(self, node: ast.AST, in_finally: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, ast.Try):
            for child in [*node.body, *node.orelse]:
                self._visit(child, in_finally)
            for handler in node.handlers:
                # A close inside an except handler that re-raises is the
                # repository's close-on-error idiom (see Listener.__init__):
                # the error path is covered, the success path transferred
                # ownership.  A handler that swallows gets no credit.
                reraises = any(
                    isinstance(inner, ast.Raise) and inner.exc is None
                    for inner in ast.walk(handler)
                )
                self._visit(handler, in_finally or reraises)
            for child in node.finalbody:
                self._visit(child, True)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._mark_with_target(item.context_expr)
                self._visit(item.context_expr, in_finally)
            for child in node.body:
                self._visit(child, in_finally)
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            self._visit_assign(node.targets[0], node.value, node)
            self._visit(node.value, in_finally)
            return
        if isinstance(node, ast.Expr):
            self._visit_expr_statement(node.value, in_finally)
            return
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None:
                for name in ast.walk(value):
                    if isinstance(name, ast.Name):
                        self.escaped.add(name.id)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, in_finally)
        for child in ast.iter_child_nodes(node):
            self._visit(child, in_finally)

    def _visit_expr_statement(self, value: ast.expr, in_finally: bool) -> None:
        if isinstance(value, ast.Await):
            value = value.value
        display = self._tracked_construction(value)
        if display is not None:
            self.discarded.append(
                _Leak(display, value.lineno, "is discarded without an owner")
            )
            return
        if isinstance(value, ast.Call):
            self._visit_call(value, in_finally)
        self._visit_children_of_expr(value, in_finally)

    def _visit_children_of_expr(self, value: ast.expr, in_finally: bool) -> None:
        for child in ast.iter_child_nodes(value):
            self._visit(child, in_finally)

    def _visit_call(self, call: ast.Call, in_finally: bool) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            if func.attr in RELEASE_METHODS and receiver in self.tracked:
                if in_finally:
                    self.escaped.add(receiver)
                else:
                    self.closed_no_finally.add(receiver)
            if func.attr in OWNERSHIP_SINKS:
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        self.escaped.add(arg.id)

    def _visit_assign(self, target: ast.expr, value: ast.expr, node: ast.Assign) -> None:
        if isinstance(value, ast.Await):
            value = value.value
        display = self._tracked_construction(value)
        if isinstance(target, ast.Name):
            if display is not None:
                self.tracked[target.id] = (display, value.lineno)
                return
            if isinstance(value, ast.Name) and value.id in self.tracked:
                # Alias: ownership follows the new name too.
                self.tracked[target.id] = self.tracked[value.id]
                self.escaped.add(value.id)
                return
        elif isinstance(target, ast.Tuple) and all(
            isinstance(elt, ast.Name) for elt in target.elts
        ):
            if display is not None:
                # ``a, b = framed_pair(...)``: every bound name owns a resource.
                for elt in target.elts:
                    assert isinstance(elt, ast.Name)
                    self.tracked[elt.id] = (display, value.lineno)
                return
            if isinstance(value, ast.Tuple) and len(value.elts) == len(target.elts):
                for elt, sub in zip(target.elts, value.elts):
                    assert isinstance(elt, ast.Name)
                    self._visit_assign(elt, sub, node)
                return
        elif isinstance(target, ast.Attribute):
            stored = value if isinstance(value, ast.Name) else None
            if display is not None or (stored is not None and stored.id in self.tracked):
                if self._is_self_attr(target) and not self.owner_has_lifecycle:
                    shown = display or self.tracked[stored.id][0]  # type: ignore[index]
                    line = value.lineno
                    self.self_store_no_lifecycle.append(
                        _Leak(
                            shown,
                            line,
                            "is stored on self of a class with no "
                            "close/shutdown/__exit__ lifecycle method",
                        )
                    )
                if stored is not None:
                    self.escaped.add(stored.id)
                return

    @staticmethod
    def _is_self_attr(target: ast.Attribute) -> bool:
        return isinstance(target.value, ast.Name) and target.value.id == "self"

    def _mark_with_target(self, context_expr: ast.expr) -> None:
        if isinstance(context_expr, ast.Name):
            self.escaped.add(context_expr.id)
        elif isinstance(context_expr, ast.Call):
            # ``with contextlib.closing(conn):`` — the wrapper owns it now.
            for arg in context_expr.args:
                if isinstance(arg, ast.Name):
                    self.escaped.add(arg.id)
        # ``with connect(...) as conn:`` — the construction is consumed by the
        # with-statement itself and never enters the tracked set.

    # -------------------------------------------------------------- #
    def _tracked_construction(self, value: ast.expr) -> str | None:
        """Display name when ``value`` constructs a tracked resource."""
        if isinstance(value, ast.IfExp):
            return self._tracked_construction(value.body) or self._tracked_construction(
                value.orelse
            )
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        resolved = self.project.resolve_dotted(self.info.name, dotted)
        last = resolved.split(".")[-1]
        if last in TRACKED_CLASSES or last.endswith(TRACKED_EXECUTOR_SUFFIX):
            if last == "Popen" and "subprocess" not in resolved.split("."):
                return None
            return last
        owner = TRACKED_FACTORIES.get(last)
        if owner is not None:
            segments = resolved.split(".")
            if owner in segments[:-1] or resolved == last:
                return f"{last}()"
        return None
