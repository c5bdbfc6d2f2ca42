"""What code of ``src/donaldson`` a script never runs.

    python3 tools/traffic.py SCRIPT [ARG...]

runs SCRIPT as ``__main__`` with ``sys.argv`` = [SCRIPT, ARG...] and this
checkout's ``src`` first on ``sys.path``, under a line tracer that records
only the files of ``src/donaldson``.  When the script ends, it prints the
functions that never ran and, inside the functions that ran, the lines
that never ran, each as ``module.py:line qualified.name``.  A lambda's or a
comprehension's lines count as lines of the function that holds it.

Only this process is traced: a child process that the script starts (each
CLI command of the benchmark's cli_session workload, or ``--workload all``,
which runs each workload in its own process) is not seen, so what only a
child runs is listed as never run.  The exit status is the script's
(``sys.exit``'s argument).
"""

import inspect
import runpy
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "donaldson"


def functions(code, owner=None, found=None):
    """{(first line, qualified name): its line numbers} of every function in
    ``code``, a module's code; a lambda's or comprehension's lines go to its
    owner, a class body's to none."""
    found = {} if found is None else found
    is_function = code.co_flags & inspect.CO_OPTIMIZED
    if is_function and not code.co_name.startswith("<"):
        name = getattr(code, "co_qualname", code.co_name)  # Python 3.11 on
        owner = found.setdefault((code.co_firstlineno, name), set())
    elif not is_function:
        owner = None
    if is_function and owner is not None:
        owner.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if inspect.iscode(const):
            functions(const, owner, found)
    return found


def spans(missed, lines) -> str:
    """The ``missed`` ones of ``lines`` as runs of neighbours in ``lines``: '4-6, 9'."""
    runs = []  # [first, last, index of last in lines]
    for i, a in enumerate(sorted(lines)):
        if a not in missed:
            continue
        if runs and runs[-1][2] == i - 1:
            runs[-1][1:] = a, i
        else:
            runs.append([a, a, i])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b, _ in runs)


def report(ran: dict[str, set], called: dict[str, set]) -> list[str]:
    never, partly = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        lines, calls = ran.get(str(path), set()), called.get(str(path), set())
        for (first, name), own in sorted(functions(code).items()):
            where, own = f"{path.name}:{first} {name}", own - {first}
            if first not in calls:
                never.append(where)
            elif own - lines:
                partly.append(f"{where}: {spans(own - lines, own)}")
    return ([f"functions that never ran ({len(never)}):"] + [f"  {x}" for x in never]
            + [f"lines that never ran, in functions that ran ({len(partly)}):"]
            + [f"  {x}" for x in partly])


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: traffic.py SCRIPT [ARG...]", file=sys.stderr)
        return 2
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set] = {}
    called: dict[str, set] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran.setdefault(path, set())
        called.setdefault(path, set()).add(frame.f_code.co_firstlineno)
        return local

    sys.argv = list(argv)
    sys.path[:1] = [str(Path(argv[0]).resolve().parent), str(SRC)]  # as python SCRIPT would
    status = 0
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("traffic: child processes are not traced; what only they run is listed as never run")
    print("\n".join(report(ran, called)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
