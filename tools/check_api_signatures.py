#!/usr/bin/env python
"""Lint gate: the ``repro.api`` facade honours the 5.0 contract.

Ruff has no rule for "public signatures must be keyword-only", so
``make lint`` runs this instead (see the per-file-ignores note in
pyproject.toml).  The check is pure AST — no imports of the package —
and enforces three things on ``src/repro/api.py``:

* **keyword-only**: no public (non-underscore) module-level function
  or public method accepts positional arguments beyond ``self`` — no
  positional-only params, no positional-or-keyword params, no
  ``*args``;
* **surface**: every name the 5.0 contract promises
  (:data:`REQUIRED_SURFACE`) is defined, and ``__all__`` lists exactly
  those names plus ``__api_version__`` — no extra public names;
* **version**: ``__api_version__`` has major version
  :data:`EXPECTED_MAJOR`.

Exit status 0 when clean, 1 with one line per offence otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import sys

API_FILE = pathlib.Path(__file__).resolve().parents[1] / "src/repro/api.py"

#: Names the api 5.0 contract promises (functions and classes).
REQUIRED_SURFACE = {
    "ExperimentSpec", "RunOptions", "GoldenVerdict",
    "spec_to_dict", "spec_from_dict",
    "build_cluster", "build_traffic",
    "run", "run_figures", "verify_goldens",
}

#: Required major version of ``__api_version__``.
EXPECTED_MAJOR = 5


def _literal_strings(node: ast.expr) -> list[str] | None:
    """The strings of a literal list/tuple, or None for anything
    else."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return out


def _offences(tree: ast.Module, path: pathlib.Path) -> list[str]:
    out = []

    def check(fn: ast.FunctionDef, owner: str = "") -> None:
        if fn.name.startswith("_"):
            return
        name = f"{owner}{fn.name}"
        args = fn.args
        if args.posonlyargs:
            out.append(f"{path}:{fn.lineno}: {name}: positional-only "
                       f"parameters are banned in the facade")
        positional = [a.arg for a in args.args if a.arg != "self"]
        if positional:
            out.append(f"{path}:{fn.lineno}: {name}: parameter(s) "
                       f"{', '.join(positional)} must be keyword-only "
                       f"(add a leading `*,`)")
        if args.vararg is not None:
            out.append(f"{path}:{fn.lineno}: {name}: *{args.vararg.arg} "
                       f"is banned (accepts positional calls)")

    defined = set()
    version = None
    exported = None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            check(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defined.add(node.name)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    check(item, owner=f"{node.name}.")
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if (isinstance(tgt, ast.Name)
                        and tgt.id == "__api_version__"
                        and isinstance(node.value, ast.Constant)):
                    version = node.value.value
                if isinstance(tgt, ast.Name) and tgt.id == "__all__":
                    exported = _literal_strings(node.value)

    for name in sorted(REQUIRED_SURFACE - defined):
        out.append(f"{path}:1: required api 5.0 name {name!r} is not "
                   f"defined")
    if exported is None:
        out.append(f"{path}:1: __all__ is not a literal list of "
                   f"strings")
    else:
        public = set(exported) - {"__api_version__"}
        for name in sorted(public - REQUIRED_SURFACE):
            out.append(f"{path}:1: __all__ exports {name!r}, which is "
                       f"not in the api 5.0 surface")
        for name in sorted(REQUIRED_SURFACE - public):
            out.append(f"{path}:1: __all__ is missing api 5.0 name "
                       f"{name!r}")
    if version is None:
        out.append(f"{path}:1: __api_version__ is not a literal "
                   f"assignment")
    elif int(str(version).split(".")[0]) != EXPECTED_MAJOR:
        out.append(f"{path}:1: __api_version__ {version!r} must have "
                   f"major version {EXPECTED_MAJOR}")
    return out


def main(argv: list[str]) -> int:
    path = pathlib.Path(argv[1]) if len(argv) > 1 else API_FILE
    tree = ast.parse(path.read_text(), filename=str(path))
    offences = _offences(tree, path)
    for line in offences:
        print(line)
    if offences:
        print(f"check_api_signatures: {len(offences)} offence(s) — "
              f"repro.api breaks its 5.0 contract", file=sys.stderr)
        return 1
    print(f"check_api_signatures: {path.name} ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
