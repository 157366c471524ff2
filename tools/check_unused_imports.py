#!/usr/bin/env python
"""Lint gate: no unused module-level imports (ruff's F401), stdlib only.

The CI ``lint`` job runs ``ruff check .``; this check catches the same
class of offence on a host without ruff, so a tier-1 test can run it.
It is pure AST — nothing is imported — and looks at the imports in a
module's top-level body (including top-level ``if``/``try`` blocks;
imports inside functions are out of scope).  An imported name counts
as used when the module

* loads it anywhere (``name`` or ``name.attr``), including inside a
  quoted annotation such as ``Optional["TrafficModel"]``, or
* lists it in a literal ``__all__`` (a re-export).

Skipped: ``__future__`` and star imports, any import statement with a
bare ``# noqa`` or a ``# noqa: ...F401...`` comment on one of its
lines, and ``__init__.py`` files (re-export hubs; the ruff config
exempts them from F401 too).

Usage: ``python tools/check_unused_imports.py [PATH ...]`` (default:
the repository root).  Exit status 0 when clean, 1 with one
``path:line: name imported but unused`` line per offence otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: directory names never scanned
SKIP_DIRS = {".git", "__pycache__", "build", "dist", ".venv", "venv"}

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.I)


def _noqa(line: str) -> bool:
    m = _NOQA.search(line)
    return bool(m) and (m.group("codes") is None
                        or "F401" in m.group("codes").upper())


def _top_level_imports(body):
    """Import statements in a module body and its top-level
    ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _top_level_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _top_level_imports(
                node.body + node.orelse + node.finalbody
                + [s for h in node.handlers for s in h.body])


def _bindings(node):
    """``(bound name, shown name)`` pairs of one import statement."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            yield alias.asname, alias.name
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0], alias.name
        else:
            yield alias.name, alias.name


def _annotation_names(ann) -> set:
    """Names loaded inside the quoted parts of one annotation."""
    out = set()
    for sub in ast.walk(ann):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(parsed)
                    if isinstance(n, ast.Name)}
    return out


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                used |= _annotation_names(ann)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if (any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in targets)
                    and isinstance(node.value, (ast.List, ast.Tuple))):
                used |= {e.value for e in node.value.elts
                         if isinstance(e, ast.Constant)
                         and isinstance(e.value, str)}
    return used


def offences(path: pathlib.Path, source: str) -> list:
    """``path:line: name imported but unused`` for each offence."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    out = []
    for node in _top_level_imports(tree.body):
        span = lines[node.lineno - 1:node.end_lineno]
        if any(_noqa(line) for line in span):
            continue
        for bound, shown in _bindings(node):
            if bound not in used:
                out.append(f"{path}:{node.lineno}: {shown!r} imported "
                           f"but unused")
    return out


def python_files(paths):
    for p in paths:
        if p.is_file():
            yield p
            continue
        for f in sorted(p.rglob("*.py")):
            rel = f.relative_to(p).parts
            if not any(part in SKIP_DIRS or part.endswith(".egg-info")
                       for part in rel):
                yield f


def main(argv: list) -> int:
    paths = [pathlib.Path(a) for a in argv[1:]] or [ROOT]
    found = []
    for f in python_files(paths):
        found += offences(f, f.read_text(encoding="utf-8"))
    for line in found:
        print(line)
    if found:
        print(f"check_unused_imports: {len(found)} unused import(s)",
              file=sys.stderr)
        return 1
    print("check_unused_imports: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
