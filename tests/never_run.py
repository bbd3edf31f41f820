"""A pytest plugin that lists the statements of ``src/glstar`` no test ran.

    PYTHONPATH=src python -m pytest -q -p tests.never_run

It installs a ``sys.settrace`` tracer before the test modules are imported
and follows only the frames of files under ``src/glstar``, recording each
line they run.  A statement has run when a line of its header has: the
whole of a simple statement, and the lines of a compound statement up to
its first body statement, decorators included.  Docstrings are not
statements.  At the end of the session it prints, file by file, the first
line of each statement that never ran.  Every statement of every file
must run: one that never ran fails the session (exit status 1), so run
the gate on the whole suite.  It fails no single test.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src" / "glstar")
_ran: dict[str, set[int]] = {}
_found: dict[str, list[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_SRC):
        return None
    _ran.setdefault(name, set()).add(frame.f_lineno)
    return _local


def _statements(path):
    """(first line, header lines) of every statement of a source file."""
    out = []
    for node in ast.walk(ast.parse(Path(path).read_text(), path)):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(first, max(first, last) + 1)))
    return out


def never_run():
    """{file: [first line of each statement that never ran]}."""
    out = {}
    for path in sorted(Path(_SRC).glob("*.py")):
        ran = _ran.get(str(path), set())
        lines = sorted(line for line, header in _statements(path)
                       if ran.isdisjoint(header))
        if lines:
            out[str(path)] = lines
    return out


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    _found.update(never_run())
    if session.exitstatus == pytest.ExitCode.OK and _found:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statements of src/glstar that never ran")
    for path, lines in _found.items():
        terminalreporter.write_line(
            f"{Path(path).relative_to(Path(_SRC).parent.parent)}: "
            f"{len(lines)}: {' '.join(map(str, lines))}")
    if _found:
        terminalreporter.write_line("FAILED: statements never ran", red=True)
    else:
        terminalreporter.write_line("none")
