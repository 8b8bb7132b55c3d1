"""The reachability catalogue (``tools/reach.py``) stays in step with the tree.

These checks run no entry point: they read the catalogue's entry list and
the committed ``tools/unreached.txt``, so deleting a function without
pruning the list, or adding a subcommand or benchmark workload the
catalogue never runs, fails here rather than only in the slow CI job.
"""

import argparse
import importlib.util
import json
import pathlib

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()


def test_every_subcommand_has_an_entry():
    (subcommands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    covered = {argv[1] for argv in reach.ENTRIES if argv[0] == "repro"}
    assert sorted(set(subcommands.choices) - covered) == []


def test_listing_is_sorted_unique_and_names_existing_functions():
    listed = reach.LISTING.read_text().splitlines()
    assert listed, "tools/unreached.txt is empty"
    assert listed == sorted(set(listed))
    defined = set(reach.functions().values())
    assert [key for key in listed if key not in defined] == []


def test_every_benchmark_workload_has_a_worker_entry():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    covered = {
        argv[argv.index("--workload") + 1]
        for argv in reach.ENTRIES if argv[0] == "perfbench/worker.py"
    }
    assert sorted({w["name"] for w in declared} - covered) == []
