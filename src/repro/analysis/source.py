"""Parsed source files and ``# repro: noqa`` suppression pragmas.

A :class:`SourceFile` bundles everything a rule needs about one file:
its project-relative path (rules scope themselves by path), the raw
text, the parsed ``ast`` tree, and the per-line suppression table.

Suppressions use a repo-specific pragma so they never collide with
flake8/ruff ``# noqa`` comments::

    risky_line()  # repro: noqa            -- suppress every rule here
    risky_line()  # repro: noqa[DET001]    -- suppress only DET001
    risky_line()  # repro: noqa[DET001,PERF001]

Every name a rule resolves goes through one import table per file
(:attr:`SourceFile.imports`, relative imports made absolute) and one
resolver (:func:`resolve_target`), so the per-file rules and the
whole-program model agree on what ``np.random.randint`` or ``from .
import errors`` refers to.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Matches ``# repro: noqa`` with an optional ``[RULE,...]`` selector.
_PRAGMA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9_,\s]+)\])?", re.IGNORECASE
)

#: Sentinel rule-set meaning "suppress everything on this line".
SUPPRESS_ALL: FrozenSet[str] = frozenset({"*"})

#: Leading path components stripped before deriving a module name (the
#: conventional source roots).
_SRC_ROOTS = ("src",)


def module_name_for(relpath: str) -> Optional[str]:
    """Derive the dotted module name for a project-relative ``.py`` path.

    >>> module_name_for("src/repro/simulator/service.py")
    'repro.simulator.service'
    >>> module_name_for("src/repro/core/__init__.py")
    'repro.core'
    >>> module_name_for("scripts/bench_runtime.py")
    'scripts.bench_runtime'
    """
    parts = list(relpath.split("/"))
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] in _SRC_ROOTS and len(parts) > 1:
        parts = parts[1:]
    stem = parts[-1][: -len(".py")]
    if stem == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = stem
    if not parts or not all(part.isidentifier() for part in parts):
        return None
    return ".".join(parts)


def absolute_imports(
    tree: ast.Module, package: Optional[str]
) -> Dict[str, str]:
    """Local import bindings with relative levels resolved to absolute
    dotted targets against *package*.

    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    time`` binds ``time -> time.time``; in package ``repro.simulator``,
    ``from . import errors`` binds ``errors -> repro.simulator.errors``.
    With no known package (a path that is not a module) a relative
    target keeps its leading dots, so it never matches an absolute name.
    """
    table: Dict[str, str] = {}
    pkg_parts = package.split(".") if package else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                base = module
            elif package is None:
                base = "." * node.level + module
            else:
                kept = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(kept + ([module] if module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """``c`` for a Name ``c`` or an attribute access ``....c``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def resolve_target(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain through an import table.

    ``np.random.randint`` with ``{"np": "numpy"}`` resolves to
    ``numpy.random.randint``.  Returns ``None`` for targets whose root is
    not an imported name (locals, attributes of self, ...).
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    target = imports.get(root)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


def parse_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule names suppressed there."""
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = SUPPRESS_ALL
        else:
            table[lineno] = frozenset(
                name.strip().upper() for name in rules.split(",") if name.strip()
            )
    return table


def _statement_span(statement: ast.stmt) -> Tuple[int, int]:
    """The line range a pragma on *statement* anchors to.

    Simple statements own their full ``lineno..end_lineno`` span, so a
    pragma on the closing line of a multi-line call suppresses the
    finding reported at the statement's first line.  Compound
    statements (``if``/``for``/``def``/...) own only their *header*
    lines -- a pragma inside the body must not silence the whole block.
    """
    body = getattr(statement, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return statement.lineno, max(statement.lineno, body[0].lineno - 1)
    return statement.lineno, statement.end_lineno or statement.lineno


def expand_suppressions(
    tree: Optional[ast.Module], table: Dict[int, FrozenSet[str]]
) -> Dict[int, FrozenSet[str]]:
    """Widen line-anchored pragmas to their enclosing statement span.

    For each pragma line, the *innermost* statement whose span covers
    it claims the pragma, and every line of that span inherits the
    suppressed rule set -- so findings anchored at any line of a
    multi-line statement match a pragma written on any of its lines.
    Files that do not parse keep the exact-line table (there is no
    tree to widen over).
    """
    if tree is None or not table:
        return table
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            spans.append(_statement_span(node))
    expanded: Dict[int, FrozenSet[str]] = dict(table)
    for pragma_line, rules in table.items():
        covering = [
            span
            for span in spans
            if span[0] <= pragma_line <= span[1]
        ]
        if not covering:
            continue
        # Innermost: the latest-starting (then shortest) covering span.
        start, end = max(covering, key=lambda s: (s[0], -s[1]))
        for line in range(start, end + 1):
            existing = expanded.get(line)
            expanded[line] = rules if existing is None else existing | rules
    return expanded


@dataclasses.dataclass
class SourceFile:
    """One Python file presented to the rules.

    The text is parsed, and its pragmas read, on first use: a warm
    cached run that only hashes a file never pays for either.
    """

    #: Absolute filesystem path.
    path: Path

    #: Project-relative POSIX path -- what findings report and what
    #: scope checks match against (e.g. ``src/repro/simulator/cpu.py``).
    relpath: str

    text: str

    @classmethod
    def load(cls, path: Path, relpath: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        return cls.from_text(text, path=path, relpath=relpath)

    @classmethod
    def from_text(
        cls, text: str, *, relpath: str, path: Optional[Path] = None
    ) -> "SourceFile":
        """Build a source file from in-memory text (the fixture path used
        by the rule tests, which simulate arbitrary repo locations)."""
        return cls(
            path=path if path is not None else Path(relpath),
            relpath=relpath,
            text=text,
        )

    @functools.cached_property
    def _parsed(self) -> Tuple[Optional[ast.Module], Optional[str]]:
        try:
            return ast.parse(self.text, filename=self.relpath), None
        except SyntaxError as exc:
            return None, f"{exc.msg} (line {exc.lineno})"

    @property
    def tree(self) -> Optional[ast.Module]:
        return self._parsed[0]

    @property
    def parse_error(self) -> Optional[str]:
        """Syntax error message when parsing failed (rules are skipped)."""
        return self._parsed[1]

    @functools.cached_property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        return expand_suppressions(self.tree, parse_suppressions(self.text))

    @functools.cached_property
    def imports(self) -> Dict[str, str]:
        """Local name -> absolute dotted import target (see
        :func:`absolute_imports`), computed once per file."""
        if self.tree is None:
            return {}
        module = module_name_for(self.relpath)
        package = None
        if module is not None:
            package = (
                module if self.name == "__init__.py"
                else module.rpartition(".")[0]
            )
        return absolute_imports(self.tree, package)

    # -- path scoping ------------------------------------------------------

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.relpath.split("/"))

    def in_scope(self, *directories: str) -> bool:
        """Whether the file lives under any of *directories* (matched as
        path components, so ``"simulator"`` matches
        ``src/repro/simulator/engine.py`` and fixture paths alike)."""
        parts = self.parts[:-1]  # directories only
        return any(directory in parts for directory in directories)

    @property
    def name(self) -> str:
        return self.parts[-1]

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return rules is SUPPRESS_ALL or "*" in rules or rule.upper() in rules
