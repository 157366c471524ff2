"""Every command line the docs show parses under the real CLI parser.

Collects each line or inline code span that starts with ``repro `` or
``python -m repro.cli `` in the README, DESIGN.md, docs/, the Makefile,
the CI workflows and the verify skill, and runs it through
``cli.build_parser().parse_args`` (parse only, nothing simulates), so
a renamed verb or flag cannot leave a stale example behind.
"""

import glob
import os
import re
import shlex

import pytest

from repro import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("README.md", "DESIGN.md", "docs/*.md", "Makefile",
           ".github/workflows/*.yml", ".claude/skills/verify/SKILL.md")
PREFIXES = {"repro ": 1, "python -m repro.cli ": 3}   # -> argv[0] tokens

#: Make variables spelled out, then shell wrappers stripped from the
#: front of a line: ``$ ``, a YAML ``run:``, a list dash, ``VAR=$(``
#: command substitution and ``VAR=value`` environment assignments.
_MAKE_VARS = (("$(REPRO)", "repro"), ("$(PYTHON)", "python"))
_LEAD = re.compile(r"^(?:\$ |run: |- |[A-Z_]+=\$\(|[A-Z_]+=\S+ )*")


def _candidates(text):
    for old, new in _MAKE_VARS:
        text = text.replace(old, new)
    text = text.replace("\\\n", " ")                # shell continuations
    text = re.sub(r"^\s*```.*$", "", text, flags=re.M)  # code fences
    spans = [" ".join(s.split()) for s in re.findall(r"`([^`]+)`", text)]
    lines = [_LEAD.sub("", line.strip()) for line in text.splitlines()]
    for cand in spans + lines:
        # drop a trailing comment, closing quote/backtick or $( ... )
        cand = cand.split(" #")[0].split("`")[0].strip().rstrip(")")
        if cand.startswith(tuple(PREFIXES)):
            yield cand


def _doc_commands():
    found = []
    for pattern in SOURCES:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            rel = os.path.relpath(path, ROOT)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            found += [(rel, c) for c in dict.fromkeys(_candidates(text))]
    return found


DOC_COMMANDS = _doc_commands()


def test_commands_found_in_every_kind_of_source():
    files = {rel for rel, _cmd in DOC_COMMANDS}
    for rel in ("README.md", "DESIGN.md", "docs/api.md", "Makefile",
                ".github/workflows/ci.yml",
                ".github/workflows/nightly.yml",
                ".claude/skills/verify/SKILL.md"):
        assert rel in files


@pytest.mark.parametrize("rel,command", DOC_COMMANDS,
                         ids=[f"{r}: {c}" for r, c in DOC_COMMANDS])
def test_doc_command_parses(rel, command, capsys):
    argv = shlex.split(command)
    for prefix, n in PREFIXES.items():
        if command.startswith(prefix):
            argv = argv[n:]
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:           # --help
            return
        pytest.fail(f"{rel}: `{command}` does not parse: "
                    f"{capsys.readouterr().err.strip()} (exit {exc.code})")
