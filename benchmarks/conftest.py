"""Shared fixtures for the per-table/per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(§6), through its ``repro.platform.figures`` builder where it has one, and
prints paper-vs-measured rows. Absolute times differ from the authors'
testbed (this is a behavioral simulator); the asserted properties are the
*shapes*: who wins, rough factors, and where crossovers fall.
"""

from __future__ import annotations

import pytest

from repro.platform import PlatformConfig
from repro.platform.figures import WORKLOAD_ORDER
from repro.workloads import workload_by_name


@pytest.fixture(scope="session")
def profiles():
    """All eleven Table 4 workloads, executed once per session."""
    return {name: workload_by_name(name).run() for name in WORKLOAD_ORDER}


@pytest.fixture(scope="session")
def config():
    """The Table 3 configuration."""
    return PlatformConfig()


def print_header(title: str, paper_claim: str) -> None:
    print(f"\n{'='*72}\n{title}\n  paper: {paper_claim}\n{'='*72}")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
