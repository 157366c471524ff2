"""tools/check_unused_imports.py: the stdlib F401 check.

The CI ``lint`` job runs it beside ``ruff check .``; this test runs it
on every host, ruff or not, over the whole repository.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    path = ROOT / "tools" / "check_unused_imports.py"
    spec = importlib.util.spec_from_file_location("check_unused_imports",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_repository_has_no_unused_imports(capsys):
    assert _tool().main(["check_unused_imports"]) == 0, \
        capsys.readouterr().out


def test_flags_unused_and_honours_uses_noqa_and_all():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "import os.path as osp",
        "import json  # noqa: F401",
        "import re  # noqa",
        "from typing import List, Optional",
        "from collections import (OrderedDict,",
        "                         deque)",
        "from math import *",
        "try:",
        "    import numpy as np",
        "except ImportError:",
        "    np = None",
        "__all__ = ['deque']",
        "def f(x: 'Optional[int]') -> List[int]:",
        "    return [osp.sep]",
    ])
    got = _tool().offences(pathlib.Path("m.py"), source)
    assert got == ["m.py:2: 'os' imported but unused",
                   "m.py:7: 'OrderedDict' imported but unused",
                   "m.py:11: 'numpy' imported but unused"]


def test_init_modules_are_re_export_hubs():
    tool = _tool()
    assert tool.offences(pathlib.Path("pkg/__init__.py"), "import os\n") == []
    assert tool.offences(pathlib.Path("pkg/mod.py"), "import os\n") == [
        "pkg/mod.py:1: 'os' imported but unused"]
