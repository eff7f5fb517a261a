"""Print every executable line of ``src/ccbilliards`` that tier-1 never runs.

Runs the tier-1 suite in this process, under ``sys.settrace`` and
``threading.settrace``, and records the lines run in the package's files.
A line is executable when a code object compiled from its file (the module
or any function, class or comprehension in it) maps an instruction to it
through ``co_lines``.  Prints each executable line that never ran as

    src/ccbilliards/flow.py:461:     raise RuntimeError(...)

then a count per file and a total.  Extra arguments go to pytest in place
of the default ``-q --continue-on-collection-errors``:

    PYTHONPATH=src python tests/line_trace.py

Lines run only in a subprocess (the CLI tests that start a fresh
interpreter) count as not run.  The run takes about four times as long as
the plain suite.  It prints only: the exit status is 0 whatever the tests
or the count.  Pytest does not collect this file.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ccbilliards")


def executable_lines(path):
    """The line numbers that some code object compiled from path maps an
    instruction to."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # a module's code maps its first instructions to line 0
        lines.update(ln for _, _, ln in code.co_lines() if ln)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args):
    """Run pytest with pytest_args under the line tracer; returns (exit
    code, {real path: set of lines run})."""
    import pytest

    prefix = os.path.realpath(PACKAGE) + os.sep
    # code file name -> lines run, or None for a file outside the package
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        try:
            lines = ran[path]
        except KeyError:
            inside = os.path.realpath(path).startswith(prefix)
            lines = ran[path] = set() if inside else None
        if lines is None:
            return None
        lines.add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file = {}
    for path, lines in ran.items():
        if lines is not None:
            by_file.setdefault(os.path.realpath(path), set()).update(lines)
    return code, by_file


def main(argv):
    args = argv or ["-q", "--continue-on-collection-errors"]
    code, ran = traced_run(["-p", "no:cacheprovider", *args])
    counts = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        rel = os.path.relpath(path, ROOT)
        missed = sorted(executable_lines(path)
                        - ran.get(os.path.realpath(path), set()))
        with open(path) as fh:
            source = fh.read().splitlines()
        for ln in missed:
            print(f"{rel}:{ln}: {source[ln - 1].rstrip()}")
        counts.append((rel, len(missed)))
    print()
    for rel, n in counts:
        print(f"{n:5d}  {rel}")
    print(f"{sum(n for _, n in counts):5d}  lines never run (pytest exit "
          f"status {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
