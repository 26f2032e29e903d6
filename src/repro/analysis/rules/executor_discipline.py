"""RPR007 — executor discipline: pools are lazy, owned, and centralized.

Worker pools are expensive, stateful resources: a module-level pool spins up
threads or processes at import time (breaking ``import repro`` in contexts
that may never score a candidate, and forking from whatever state the
importer happens to hold), and a pool nobody shuts down leaks workers past
the session that needed them.  The project therefore centralizes pool
construction in :mod:`repro.core.parallel` — the one reviewed place that
knows the worker count and the shutdown story.

The rule flags:

* **Module-level pool creation** anywhere — a pool constructor called at
  import time (outside any function), including inside
  ``repro.core.parallel`` itself.  Pools must be created lazily, on first
  use.
* **Pool creation outside the sanctioned module** — calls whose final name
  segment is a pool constructor (any ``*PoolExecutor``, ``Pool``,
  ``ThreadPool``) in any other file.  Obtain a pool via
  :func:`repro.core.parallel.create_thread_pool` instead.
* **Pool-owning classes without a shutdown surface** — a class whose method
  assigns a pool (a pool constructor or ``create_thread_pool``) to a
  ``self`` attribute must define ``close``, ``shutdown``, ``__exit__`` or
  ``__aexit__`` so the owner can be shut down deterministically.
"""

from __future__ import annotations

import ast
import fnmatch
from collections.abc import Iterator

from ..framework import Finding, ModuleSource, Rule, Scope, dotted_name, register_rule

#: Final name segments that construct a worker pool, besides every
#: ``concurrent.futures``-style ``*PoolExecutor`` class.
POOL_CONSTRUCTORS = frozenset({"Pool", "ThreadPool"})
POOL_EXECUTOR_SUFFIX = "PoolExecutor"

#: The sanctioned factory; assigning its result (or a constructor's) to a
#: ``self`` attribute makes a class a pool owner.
POOL_FACTORY = "create_thread_pool"

#: The one module allowed to call pool constructors (lazily).
SANCTIONED_MODULE = "*core/parallel.py"

#: Method names that count as a shutdown surface on a pool-owning class.
SHUTDOWN_METHODS = frozenset({"close", "shutdown", "__exit__", "__aexit__"})


def _final_segment(func: ast.expr) -> str | None:
    """The last dotted segment of a call target, or ``None``."""
    if isinstance(func, ast.Name):
        return func.id
    dotted = dotted_name(func)
    if dotted:
        return dotted.rsplit(".", 1)[-1]
    return None


def _is_pool_constructor(segment: str | None) -> bool:
    """Whether a call's final name segment constructs a worker pool."""
    return segment is not None and (
        segment in POOL_CONSTRUCTORS or segment.endswith(POOL_EXECUTOR_SUFFIX)
    )


def _nodes_inside_functions(tree: ast.Module) -> frozenset[int]:
    """Ids of every node nested inside a function or lambda body."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.walk(node):
                if child is not node:
                    inside.add(id(child))
    return frozenset(inside)


def _assigns_pool_to_self(method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Does the method bind a pool factory's result to a ``self`` attribute?"""
    for node in ast.walk(method):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        segment = _final_segment(value.func)
        if segment != POOL_FACTORY and not _is_pool_constructor(segment):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return True
    return False


@register_rule
class ExecutorDisciplineRule(Rule):
    code = "RPR007"
    name = "executor-discipline"
    rationale = (
        "worker pools are created lazily, only by repro.core.parallel, and "
        "every pool-owning class exposes a shutdown surface"
    )
    default_scope = Scope(include=("*",))

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        sanctioned = fnmatch.fnmatch(module.relpath, SANCTIONED_MODULE)
        inside_functions = _nodes_inside_functions(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                segment = _final_segment(node.func)
                if not _is_pool_constructor(segment):
                    continue
                if id(node) not in inside_functions:
                    yield self.finding(
                        module,
                        node,
                        f"module-level {segment}() creation; pools must be "
                        "created lazily, on first use",
                    )
                elif not sanctioned:
                    yield self.finding(
                        module,
                        node,
                        f"{segment}() created outside repro.core.parallel; use "
                        "create_thread_pool() instead",
                    )
            elif isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: ModuleSource, node: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not any(_assigns_pool_to_self(method) for method in methods):
            return
        names = {method.name for method in methods}
        if names & SHUTDOWN_METHODS:
            return
        yield self.finding(
            module,
            node,
            f"class {node.name} owns a worker pool but defines none of "
            "close()/shutdown()/__exit__/__aexit__; pool owners must be "
            "shut down deterministically",
        )
