"""List the executable lines of ``src/causaltext`` that the tier-1 suite never runs.

Run from anywhere, with any extra pytest arguments after it:

    python tests/line_reach.py [PYTEST_ARGS...]

It runs the suite in this process under ``sys.settrace`` and
``threading.settrace`` and prints ``FILE:LINE: SOURCE`` for each line that
the compiled module maps an instruction to and that no test ran.  Lines that
only a child process runs (``python -m causaltext.cli``, a subprocess) are
listed too, since a child is not traced.  ``coverage`` is not a dependency,
and ``tests/test_reach.py`` sees only whole functions, and only under the
commands; this sees every line under every test.  Tracing makes the suite
take about twice as long, so it is not a CI step, and pytest does not
collect this file.  The exit status is pytest's.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "causaltext"


def executable_lines(path: Path) -> set:
    """The line numbers that some instruction of the module, or of code nested in it, maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    ran: dict = {}  # file name -> the set of its lines run, or None for a file outside the package

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            ran[name] = set() if os.path.realpath(name).startswith(str(PACKAGE) + os.sep) else None
        return None if ran[name] is None else local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-o", "addopts=", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict = {}
    for name, lines in ran.items():
        if lines is not None:
            by_path.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - by_path.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of {PACKAGE.relative_to(ROOT)} never ran "
          f"(pytest exit status {int(status)}; child processes are not traced)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
