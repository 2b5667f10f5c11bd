"""Which functions of ``src/repro`` does the program's own traffic never enter?

Runs every target below in its own process under a ``sys.setprofile`` /
``threading.setprofile`` hook that keeps ``(co_filename, co_firstlineno)``
of every ``"call"`` event, then lists each ``def`` under ``src/repro/``
(``analysis/`` left out) that no target entered.  A decorated def is
keyed by its first decorator's line, as ``co_firstlineno`` is.

Targets: the nine ``examples/*.py``, ``python -m repro.report`` and
``bench/run.py --workload W --seed 11 --seconds 1 --trace 1`` for each
bench workload (the traced run also drives the ``shards=4``, parallel
and informed-routing variant cells).  Worker processes that the
parallel cell spawns are not recorded, so ``engine/parallel.py`` is
counted apart.

Usage (stdlib only; a few minutes on two cores; not a pytest module)::

    python tests/tools/reachability.py [TREE]

``TREE`` defaults to the checkout this file is in.  ``repro.report``
rewrites ``RESULTS.json`` / ``RESULTS.md`` byte-identically, so the tree
is left as it was found.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

BENCH_WORKLOADS = ("flood", "directory", "bootstrap", "dynamic")


def targets(tree: Path) -> list[list[str]]:
    """Each target as ``[kind, argument, ...]`` for :func:`record`."""
    found = [["script", str(path)] for path in sorted((tree / "examples").glob("*.py"))]
    found.append(["module", "repro.report"])
    for workload in BENCH_WORKLOADS:
        found.append(["script", str(tree / "bench" / "run.py"), "--workload", workload,
                      "--seed", "11", "--seconds", "1", "--trace", "1"])
    return found


def record(out: str, kind: str, target: str, *argv: str) -> None:
    """Run one target in this process and write the code it entered to ``out``."""
    entered: set = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.argv = [target, *argv]
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            print(f"reachability: {target} exited with {stop.code}", file=sys.stderr)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        keys = sorted({(os.path.realpath(code.co_filename), code.co_firstlineno)
                       for code in entered})
        Path(out).write_text(json.dumps(keys), encoding="utf-8")


def defs(source: Path) -> list[tuple[str, int, int, str]]:
    """Every def under ``source`` (``analysis/`` left out) as
    ``(path, key line, line count, qualified name)``."""
    found = []
    for path in sorted(source.rglob("*.py")):
        if "analysis" in path.relative_to(source).parts:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append((os.path.realpath(path), first,
                                  child.end_lineno - first + 1, prefix + child.name))
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def main(argv: list[str]) -> int:
    if argv[:1] == ["--record"]:
        record(*argv[1:])
        return 0
    tree = Path(argv[0] if argv else Path(__file__).resolve().parents[2]).resolve()
    source = tree / "src" / "repro"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    entered: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        for number, target in enumerate(targets(tree)):
            out = os.path.join(scratch, f"{number}.json")
            print("reachability: running", " ".join(target[1:]), file=sys.stderr)
            subprocess.run([sys.executable, os.path.abspath(__file__), "--record", out, *target],
                           cwd=tree, env=env, stdout=subprocess.DEVNULL, check=False)
            if not os.path.exists(out):
                print(f"reachability: {target[1]} recorded nothing", file=sys.stderr)
                continue
            entered.update(tuple(key) for key in json.loads(Path(out).read_text("utf-8")))
    missed = [d for d in defs(source) if (d[0], d[1]) not in entered]
    parallel = str((source / "engine" / "parallel.py").resolve())
    for path, line, count, name in missed:
        print(f"{os.path.relpath(path, tree)}:{line} {name} ({count} lines)")
    inside = [d for d in missed if d[0] == parallel]
    outside = [d for d in missed if d[0] != parallel]
    print(f"never entered: {len(missed)} defs ({sum(d[2] for d in missed)} lines); "
          f"engine/parallel.py {len(inside)} ({sum(d[2] for d in inside)} lines); "
          f"elsewhere {len(outside)} ({sum(d[2] for d in outside)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
