"""Small AST helpers shared by the rule pack."""

from __future__ import annotations

import ast
from typing import Dict, Optional

from ..source import dotted_name, resolve_target


def decorator_name(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Resolved dotted name of a decorator (unwrapping calls)."""
    if isinstance(node, ast.Call):
        node = node.func
    resolved = resolve_target(node, imports)
    if resolved is not None:
        return resolved
    return dotted_name(node)


def keyword_value(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def is_constant_true(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is True
