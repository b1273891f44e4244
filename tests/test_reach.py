"""The reach tracer reports exactly the functions its entry points miss.

Loads ``benchmarks/reach.py`` by path (benchmarks/ is not a package) and
traces a small git-tracked package written to ``tmp_path``: a driver
script that calls some of its functions, and writes files in its working
directory, must leave the checkout byte for byte as it was.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_REACH = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _REACH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = '''\
import functools


def called():
    return 1


def uncalled():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


@functools.lru_cache(maxsize=None)
def decorated_unused():
    return 4


class Box:
    def method(self):
        return 5

    def unused_method(self):
        return 6


def outer():
    def inner():
        return 7

    def inner_unused():
        return 8

    return inner()
'''

DRIVER = '''\
from pkg.mod import Box, called, decorated, outer

called()
decorated()
Box().method()
outer()
with open("written.txt", "w") as f:
    f.write("made by the driver")
with open("src/pkg/mod.py", "a") as f:
    f.write("# appended by the driver")
'''


def _snapshot(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and ".git" not in path.relative_to(root).parts
    }


def test_trace_reports_unreached_functions_and_leaves_checkout(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "__init__.py").write_text("")
    (repo / "src" / "pkg" / "mod.py").write_text(MODULE)
    (repo / "run.py").write_text(DRIVER)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    before = _snapshot(repo)

    package = os.path.join("src", "pkg")
    reached = reach.trace(str(repo), [[sys.executable, "run.py"]], package=package)
    lines, summary = reach.report(str(repo), reached, package=package)

    assert _snapshot(repo) == before
    assert {line.split(" ")[1] for line in lines} == {
        "uncalled",
        "decorated_unused",
        "Box.unused_method",
        "outer.inner_unused",
    }
    # One body line each, but outer's seven lines also hold its two
    # nested functions, whose lines count again for them.
    assert summary["unreached_lines"] == 4
    assert summary["files"] == {"__init__.py": [0, 0], "mod.py": [4, 8 * 1 + 7]}
    assert summary["body_lines"] == 15
