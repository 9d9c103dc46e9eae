"""The observer gate grammar, shared by OBS001, OBS002 and EFF001.

Instrumented code talks to an observer (tracer, telemetry recorder)
only behind a gate whose test names the handle::

    trace = self.trace
    if trace is not None:
        trace.record_interval(...)          # gated

    if tracer is None:
        return                              # early exit gates the rest
    tracer.begin_request(...)               # gated

A gate is any ``if`` (or conditional expression) whose test mentions a
handle name, matched by terminal name so both a local ``tracer`` and an
attribute ``self.trace`` count.  Gate names accumulate into nested
suites, and an ``if`` whose body ends in ``return``/``raise``/
``continue``/``break`` gates the rest of its suite.
:func:`scan_gates` applies that grammar to one suite for one
handle-name set.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from .source import terminal_name

#: Receiver names treated as simulated-time tracing handles.
TRACER_NAMES = frozenset({"trace", "tracer", "_tracer", "observer"})

#: Statements that end a suite, making a preceding ``if x is None:``
#: an effective gate for everything after it.
_TERMINAL = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def write_root(target: ast.expr) -> Optional[str]:
    """The name an attribute/item write is rooted at (``x`` for
    ``x.a[0] = ...``), or ``None`` for a bare-name rebind."""
    node, depth = target, 0
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node, depth = node.value, depth + 1
    return node.id if depth and isinstance(node, ast.Name) else None


def gate_names(test: ast.expr, handles: FrozenSet[str]) -> FrozenSet[str]:
    """The handle names a gate expression mentions."""
    return frozenset(map(terminal_name, ast.walk(test))) & handles


class GateScan(NamedTuple):
    """What one suite does with observer handles, per the gate grammar."""

    #: (lineno, end_lineno) spans of statements inside a gate body.
    gated_spans: List[Tuple[int, int]]
    #: Ungated method calls on a handle-named receiver.
    ungated_calls: List[Tuple[ast.Call, str]]
    #: Ungated attribute/item writes rooted at a handle-named local.
    ungated_writes: List[Tuple[ast.expr, str]]


def scan_gates(statements: List[ast.stmt], handles: FrozenSet[str]) -> GateScan:
    """Walk a statement suite once under the gate grammar for *handles*."""
    scan = GateScan([], [], [])

    def suite(stmts: List[ast.stmt], guarded: FrozenSet[str]) -> None:
        # Left to right, so early-exit gates accumulate.
        for statement in stmts:
            if not isinstance(statement, ast.If):
                visit(statement, guarded)
                continue
            names = gate_names(statement.test, handles)
            if names:
                scan.gated_spans.extend(
                    (gated.lineno, gated.end_lineno or gated.lineno)
                    for gated in statement.body
                )
            suite(statement.body, guarded | names)
            suite(statement.orelse, guarded)
            body = statement.body
            if names and body and isinstance(body[-1], _TERMINAL):
                guarded = guarded | names

    def visit(node: ast.AST, guarded: FrozenSet[str]) -> None:
        if isinstance(node, ast.IfExp):
            names = gate_names(node.test, handles)
            visit(node.test, guarded | names)
            visit(node.body, guarded | names)
            visit(node.orelse, guarded)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = terminal_name(node.func.value)
            if name in handles and name not in guarded:
                scan.ungated_calls.append((node, name))
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                root = write_root(target)
                if root in handles and root not in guarded:
                    scan.ungated_writes.append((target, root))
        for _, value in ast.iter_fields(node):
            if isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    # A nested statement suite (function/loop/with/try
                    # body): scanned sequentially so early-exit gates
                    # accumulate at any depth.
                    suite(value, guarded)
                else:
                    for item in value:
                        if isinstance(item, ast.AST):
                            visit(item, guarded)
            elif isinstance(value, ast.AST):
                visit(value, guarded)

    suite(statements, frozenset())
    return scan
