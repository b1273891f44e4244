"""List the ``src/repro`` functions that no entry point reaches.

Run from a git checkout::

    python benchmarks/reach.py

The entry points are the repository's own drivers of the paper's claims:
the three perfbench workloads (seed 1, ``--seconds 2``, untraced), one
traced perfbench run (``ediamond_mape``, ``--trace 1``), every
``examples/*.py`` (``examples/cli_pipeline.py`` runs every ``repro``
command, observability on; ``examples/obs_export.py`` is CI's exporter
scrape) and ``pytest benchmarks``.
Each runs in a copy of the
tracked files (``git ls-files``) under a temporary directory, with a
function-entry profiler (``sys.setprofile``, every thread) installed by a
``sitecustomize`` module on ``PYTHONPATH``; the copy is deleted
afterwards.  The drivers rewrite committed result files
(``benchmarks/results/``, ``BENCH_*.json``), so running them in the
checkout would not leave it as it was.

A function counts as reached when its code object was entered at least
once.  Its *body lines* run from its first body statement (the docstring,
if any) to its last line; a nested function's lines count for it and
again for the function around it.  The trace sees function entry, not
branches, and it does not count tests as entry points.

Output: one line per unreached function (``path:line name (n lines)``),
then one line of JSON with the body-line total, the unreached total and
per-file ``[unreached, body]`` counts.  Each command's status and time
go to stderr, and for a failed command the tails of its stdout and
stderr (pytest writes its failure report to stdout).  No flags; it
takes about 110 s on a 2-core x86 host, most of it in
``pytest benchmarks``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
WORKLOADS = ("ediamond_mape", "mixed80_mape", "ediamond_queries")
# Installed as ``sitecustomize`` in every traced process.  It records the
# code objects entered and, at exit, writes the (file, first line, name)
# of those under REACH_PACKAGE to a file of its own in REACH_OUT.
_PROFILER = '''\
import atexit, json, os, sys, threading

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["REACH_PACKAGE"]
    rows = sorted(
        {(c.co_filename, c.co_firstlineno, c.co_name) for c in _seen
         if c.co_filename.startswith(prefix)}
    )
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(rows, f)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def entry_points(root: str) -> list[list[str]]:
    """The commands whose reach is measured, relative to ``root``."""
    py = sys.executable
    commands = [
        [py, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "2", "--trace", "0"]
        for name in WORKLOADS
    ]
    commands.append(
        [py, "perfbench/run.py", "--workload", "ediamond_mape", "--seed", "1",
         "--seconds", "0", "--trace", "1"]
    )
    examples = sorted(
        name for name in os.listdir(os.path.join(root, "examples"))
        if name.endswith(".py")
    )
    commands += [[py, os.path.join("examples", name)] for name in examples]
    commands.append([py, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"])
    return commands


def function_lines(source: str) -> dict[tuple[int, str], tuple[str, int]]:
    """Map each function of ``source`` to its qualified name and body lines.

    Keys are ``(first line, name)`` as the function's code object reports
    them: the first decorator's line for a decorated function.
    """
    out: dict[tuple[int, str], tuple[str, int]] = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                body = child.end_lineno - child.body[0].lineno + 1
                out[(first, child.name)] = (name, body)
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def trace(root: str, commands: Sequence[Sequence[str]], package: str = PACKAGE) -> set:
    """Run ``commands`` in a copy of ``root``'s tracked files under the profiler.

    Returns the ``(path relative to package, first line, name)`` of every
    function entered.  The copy is deleted before returning, so ``root``
    is left as it was.
    """
    tracked = subprocess.run(
        ["git", "ls-files", "-z"], cwd=root, check=True, capture_output=True
    ).stdout.decode().split("\0")
    scratch = tempfile.mkdtemp(prefix="reach-")
    try:
        copy = os.path.join(scratch, "repo")
        for rel in filter(None, tracked):
            src = os.path.join(root, rel)
            if os.path.isfile(src):
                dst = os.path.join(copy, rel)
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copy2(src, dst)
        hook = os.path.join(scratch, "hook")
        out = os.path.join(scratch, "out")
        os.makedirs(hook)
        os.makedirs(out)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as f:
            f.write(_PROFILER)
        prefix = os.path.join(copy, package) + os.sep
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([hook, os.path.join(copy, "src")]),
            PYTHONDONTWRITEBYTECODE="1",
            REACH_PACKAGE=prefix,
            REACH_OUT=out,
        )
        for command in commands:
            t0 = time.perf_counter()
            done = subprocess.run(
                list(command), cwd=copy, env=env, capture_output=True, text=True
            )
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(
                f"# {' '.join(command[1:])}: {status}, "
                f"{time.perf_counter() - t0:.1f} s",
                file=sys.stderr,
            )
            if done.returncode:
                for tail in (done.stdout[-2000:], done.stderr[-2000:]):
                    if tail.strip():
                        print(tail, file=sys.stderr)
        reached = set()
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as f:
                for path, line, fn in json.load(f):
                    reached.add((os.path.relpath(path, prefix), line, fn))
        return reached
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(root: str, reached: set, package: str = PACKAGE) -> tuple[list[str], dict]:
    """The unreached functions of ``package`` and the per-file line counts."""
    base = os.path.join(root, package)
    lines: list[str] = []
    files: dict[str, list[int]] = {}
    for folder, dirs, names in os.walk(base):
        dirs.sort()
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(folder, name), base)
            with open(os.path.join(folder, name)) as f:
                functions = function_lines(f.read())
            unreached = 0
            for (line, fn), (qualname, count) in sorted(functions.items()):
                if (rel, line, fn) not in reached:
                    unreached += count
                    path = os.path.join(package, rel)
                    lines.append(f"{path}:{line} {qualname} ({count} lines)")
            files[rel] = [unreached, sum(c for _, c in functions.values())]
    summary = {
        "body_lines": sum(body for _, body in files.values()),
        "unreached_lines": sum(miss for miss, _ in files.values()),
        "files": files,
    }
    return lines, summary


def main() -> int:
    lines, summary = report(ROOT, trace(ROOT, entry_points(ROOT)))
    print("\n".join(lines))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
