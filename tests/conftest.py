"""Session fixtures shared by several test modules.

A whole-``src`` analyzer scan is the slowest step of the suite, so the
self-scan tests of ``test_analysis.py`` and ``test_analysis_flow.py`` share
one: ``src_scan`` runs with the committed baseline and keeps the project
index for the graph export. ``src_rescan`` is one more, independent scan
that the determinism tests diff against.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.baseline import Baseline
from repro.analysis.runner import AnalysisResult

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass
class SrcScan:
    result: AnalysisResult
    baseline: Baseline  # the committed baseline the scan consumed
    seconds: float  # wall time of the scan


def _scan_src() -> SrcScan:
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    start = time.monotonic()  # repro: allow[det-wallclock] -- test harness measures the CI budget, not sim time
    result = analyze_paths(
        [REPO_ROOT / "src"], root=REPO_ROOT, baseline=baseline, need_project=True
    )
    elapsed = time.monotonic() - start  # repro: allow[det-wallclock] -- test harness measures the CI budget, not sim time
    return SrcScan(result=result, baseline=baseline, seconds=elapsed)


@pytest.fixture(scope="session")
def src_scan() -> SrcScan:
    return _scan_src()


@pytest.fixture(scope="session")
def src_rescan() -> SrcScan:
    return _scan_src()
