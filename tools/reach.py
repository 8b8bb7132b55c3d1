#!/usr/bin/env python3
"""Reachability catalogue: the functions in ``src/repro`` no user path runs.

Runs every user entry point in ``ENTRIES`` (each ``repro`` subcommand with
the flags that reach extra code, the examples, the two ``tools/`` figure
scripts and one pass of each perfbench workload) in a fresh interpreter
under a call tracer, then prints each function of ``src/repro`` that no
entry called, one ``path:qualname`` a line, sorted.  Keys carry no line
numbers, so an unrelated edit does not churn the list.  Every output the
entries write goes to a temporary directory.

Usage::

    python tools/reach.py                    # print the unreached set
    python tools/reach.py > tools/unreached.txt
    python tools/reach.py --check            # also diff it against tools/unreached.txt

``--check`` exits 1 if a function is unreached but not listed (the dead
set grew) or a listed function now runs or no longer exists (a stale
entry); it prints both sets on stderr.  An entry that exits nonzero is an
error (exit status 1 with its stderr shown): its coverage would be partial.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
LISTING = REPO_ROOT / "tools" / "unreached.txt"

# argv lists.  "repro" runs ``repro.cli.main``; any other first word is a
# script path under the repository root, run as ``__main__``.  "{tmp}" is
# the scratch directory (also the working directory) and "{root}" the
# repository root.  Entries run in order, so a later one may read what an
# earlier one wrote.  A script runs with its own directory first on
# ``sys.path``, as ``python script.py`` does.
ENTRIES = [
    ["repro", "list"],
    ["repro", "info"],
    ["repro", "run", "tpch-q1", "-v"],
    ["repro", "compare", "tpch-q1", "--jobs", "1"],
    ["repro", "sweep", "channels", "tpch-q3", "--jobs", "1"],
    ["repro", "sweep", "latency", "wordcount", "--jobs", "1"],
    ["repro", "sweep", "dram", "tpcc", "--jobs", "1"],
    ["repro", "profile", "tpcc", "--top", "5", "--top-allocs", "5"],
    ["repro", "lint", "{root}/src", "--root", "{root}",
     "--baseline", "{root}/analysis-baseline.json",
     "--format", "json", "--graph", "{tmp}/graph.json", "-v"],
    ["repro", "lint", "{root}/src", "--root", "{root}",
     "--baseline", "{root}/analysis-baseline.json", "--format", "sarif"],
    ["repro", "lint", "--list-rules"],
    ["repro", "chaos", "tpch-q1", "--seed", "42", "--ops", "1500",
     "--events", "--monitors"],
    ["repro", "soak", "tpch-q1", "--seed", "42", "--ops", "1200",
     "--state-dir", "{tmp}/soak", "--verify", "--csv", "{tmp}/soak.csv"],
    ["repro", "oracle", "tpch-q1", "--seed", "42", "--seeds", "1",
     "--points", "3", "--ops", "600", "-v"],
    ["repro", "resilience", "--seed", "7", "--quick", "--events",
     "--csv", "{tmp}/resilience.csv"],
    ["repro", "serve-lab", "--seed", "7", "--quick", "--events",
     "--csv", "{tmp}/serve.csv", "--json", "{tmp}/serve.json"],
    ["repro", "serve-lab", "--seed", "7", "--quick", "--process", "bursty",
     "--no-chaos"],
    ["repro", "fleet-lab", "--seed", "42", "--quick", "--events", "--jobs", "1",
     "--csv", "{tmp}/fleet.csv", "--json", "{tmp}/fleet.json"],
    ["repro", "fleet-oracle", "--seeds", "1", "--points", "5",
     "--requests", "400", "-v"],
    ["repro", "search", "--seed", "7",
     "--targets", "chaos,fleet,oracle,resilience,serve", "--budget", "30000",
     "--out", "{tmp}/corpus.json"],
    ["repro", "search", "--replay", "{tmp}/corpus.json"],
    ["examples/quickstart.py"],
    ["examples/tpch_offload.py"],
    ["examples/multi_tenant.py"],
    ["examples/custom_workload.py"],
    ["examples/attack_demo.py"],
    ["examples/ssd_substrate.py"],
    ["tools/export_figure_data.py", "{tmp}/figure_data"],
    ["tools/generate_experiments_md.py"],
    *(["perfbench/worker.py", "--workload", workload, "--seed", "7",
       "--budget", "0", "--max-passes", "1"]
      for workload in ("paper-figures", "ssd-chaos", "serve-lab", "fleet-lab")),
]

# Runs in the child: record the code object of every call, return None so
# no line events follow, and dump the ``src/repro`` ones as (file, line).
_TRACER = r"""
import json, os, runpy, sys, threading
out, root, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
codes = {}

def trace(frame, event, arg):
    code = frame.f_code
    codes[id(code)] = code

status = 0
threading.settrace(trace)
sys.settrace(trace)
try:
    if argv[0] == "repro":
        from repro.cli import main
        status = main(argv[1:])
    else:
        sys.argv = argv
        sys.path[0] = os.path.dirname(argv[0])
        runpy.run_path(argv[0], run_name="__main__")
except SystemExit as exc:
    status = exc.code
finally:
    sys.settrace(None)
    threading.settrace(None)
    calls = sorted({(c.co_filename, c.co_firstlineno) for c in codes.values()
                    if c.co_filename.startswith(root)})
    with open(out, "w") as fh:
        json.dump(calls, fh)
sys.exit(status or 0)
"""


def functions() -> dict[tuple[str, int], str]:
    """(absolute file, first line) -> ``path:qualname`` for every def.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    table = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    table[(str(path), first)] = f"{rel}:{qualname}"
                    stack.append((child, qualname + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))
    return table


def run_entry(argv: list[str], tmp: pathlib.Path) -> set[tuple[str, int]]:
    argv = [a.format(tmp=tmp, root=REPO_ROOT) for a in argv]
    if argv[0] != "repro":
        argv[0] = str(REPO_ROOT / argv[0])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp / "calls.json"
    result = subprocess.run(
        [sys.executable, "-c", _TRACER, str(out), str(PACKAGE), *argv],
        cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"error: {' '.join(argv)} exited {result.returncode}")
    return {(path, line) for path, line in json.loads(out.read_text())}


def unreached() -> list[str]:
    table = functions()
    reached: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tmp = pathlib.Path(scratch)
        for argv in ENTRIES:
            start = time.perf_counter()
            calls = run_entry(argv, tmp)
            reached.update(table[c] for c in calls if c in table)
            print(f"{time.perf_counter() - start:6.1f}s  {' '.join(argv)}", file=sys.stderr)
    return sorted(set(table.values()) - reached)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 unless the unreached set equals {LISTING.relative_to(REPO_ROOT)}",
    )
    args = parser.parse_args()
    found = unreached()
    sys.stdout.write("".join(f"{key}\n" for key in found))
    print(f"{len(found)} functions unreached", file=sys.stderr)
    if not args.check:
        return 0
    listed = LISTING.read_text().split()
    grown = sorted(set(found) - set(listed))
    stale = sorted(set(listed) - set(found))
    for title, keys in (("unreached but not listed", grown),
                        ("listed but reached or gone", stale)):
        print(f"{title}: {len(keys)}", file=sys.stderr)
        for key in keys:
            print(f"  {key}", file=sys.stderr)
    return 1 if grown or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
