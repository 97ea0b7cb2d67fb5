"""pytest plugin: list the lines of the ``wmhseg`` package that no test runs.

It is loaded only when asked for::

    PYTHONPATH=src:tests python -m pytest -q -m "not slow" -p linetrace

Every frame of a file under the package directory is traced with
``sys.settrace`` and ``threading.settrace``, so lines run by pool threads
count. Lines that only a child process runs (a test that starts
``python -c ...``) are not seen. At the end of the session the plugin prints
each executable line, taken from the ``co_lines`` of the compiled modules,
that never ran, as ``path:line``, and then their count. It uses the
standard library alone.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("wmhseg").origin).parent
_PREFIX = str(PACKAGE) + "/"

_ran: set[tuple[str, int]] = set()
_traced: dict[object, bool] = {}  # code object -> is in the package


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    inside = _traced.get(code)
    if inside is None:
        inside = _traced[code] = code.co_filename.startswith(_PREFIX)
    if not inside:
        return None
    _ran.add((code.co_filename, frame.f_lineno))
    return _line


def _executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftest files import the package, so that its module
    # level lines are traced too
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        code = compile(path.read_text(), name, "exec")
        missed += [f"{path.relative_to(PACKAGE.parent)}:{line}"
                   for line in sorted(_executable(code))
                   if (name, line) not in _ran]
    terminalreporter.section("lines of wmhseg that no test ran")
    for entry in missed:
        terminalreporter.write_line(entry)
    terminalreporter.write_line(f"{len(missed)} unrun lines")
