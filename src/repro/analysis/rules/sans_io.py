"""RPR001 — sans-IO purity of the inference core.

The engine layers (``core/``, ``relational/``), the protocol and the
stepper (``core/protocol.py``, ``core/stepper.py``) among them, are *sans-IO
by construction*: they compute over in-memory tables and emit typed events, and
every transport — HTTP demo, asyncio facade, cluster pipes, CLI — lives in an
outer layer.  That is what lets one stepper implementation serve four
frontends and what keeps the hot loop benchmarkable without mocking sockets.

The rule flags, inside the sans-IO scope:

* imports of transport/IO modules (``socket``, ``http``, ``urllib``,
  ``asyncio``, ``subprocess``, ``sqlite3``, …) at any nesting level, and
* calls that talk to the outside world: ``print``/``input``/``open``/
  ``breakpoint``, ``time.sleep``, ``os.system``/``os.popen``, and
  ``sys.stdout``/``sys.stderr`` writes.

``time.perf_counter`` (and the rest of ``time``'s clocks) stays allowed — the
engine timestamps its traces.  Whole-module carve-outs (the CSV reader, the
SQLite adapter) live in :mod:`repro.analysis.config`; single legitimate call
sites (the interactive console oracle) carry inline suppressions with a
reason.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..framework import Finding, ModuleSource, Rule, Scope, dotted_name, register_rule

#: Top-level modules whose import means the file does IO or owns a transport.
BANNED_MODULES = frozenset(
    {
        "asyncio",
        "ftplib",
        "http",
        "multiprocessing",
        "requests",
        "selectors",
        "smtplib",
        "socket",
        "socketserver",
        "sqlite3",
        "ssl",
        "subprocess",
        "telnetlib",
        "urllib",
        "webbrowser",
        "wsgiref",
    }
)

#: Builtins that read from or write to the terminal / filesystem.
BANNED_BUILTINS = frozenset({"breakpoint", "input", "open", "print"})

#: Dotted calls that block, shell out, or write to process streams.
BANNED_DOTTED = frozenset(
    {
        "os.popen",
        "os.remove",
        "os.system",
        "os.unlink",
        "sys.stderr.flush",
        "sys.stderr.write",
        "sys.stdout.flush",
        "sys.stdout.write",
        "time.sleep",
    }
)


@register_rule
class SansIORule(Rule):
    code = "RPR001"
    name = "sans-io-purity"
    rationale = (
        "the inference core and protocol layer never perform IO; transports "
        "live in the service/UI layers"
    )
    default_scope = Scope(
        include=(
            "src/repro/core/*",
            "src/repro/relational/*",
        )
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield self.finding(
                            module,
                            node,
                            f"import of IO/transport module {alias.name!r} in "
                            "sans-IO code",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in BANNED_MODULES:
                    yield self.finding(
                        module,
                        node,
                        f"import from IO/transport module {node.module!r} in "
                        "sans-IO code",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: ModuleSource, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in BANNED_BUILTINS:
            yield self.finding(
                module,
                node,
                f"call to {func.id}() in sans-IO code; return data or emit a "
                "protocol event instead",
            )
            return
        dotted = dotted_name(func)
        if dotted in BANNED_DOTTED:
            yield self.finding(
                module,
                node,
                f"call to {dotted}() in sans-IO code"
                + ("; time.perf_counter is the allowed clock" if dotted == "time.sleep" else ""),
            )
