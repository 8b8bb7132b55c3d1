"""Start-up cost: what every `python -m repro` pays before doing any work.

``setup_seconds`` times fresh interpreters from spawn to exit while they
import ``repro.cli`` and build the default platform config. The traced run
adds an attribution of that time: a bare interpreter, and the import time
of each ``repro.<package>`` from ``python -X importtime``.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from typing import Dict, List, Sequence

clock = time.perf_counter

SETUP_CODE = (
    "import repro.cli\n"
    "from repro.platform import PlatformConfig\n"
    "PlatformConfig()\n"
)
IMPORT_CODE = "import repro.cli"

# The packages under src/repro. A package added later is counted under
# startup.repro_s, with the top-level modules (repro, repro.cli, ...).
PACKAGES = (
    "analysis", "area", "core", "cpu", "crypto", "dram", "faults", "flash",
    "fleet", "ftl", "host", "perf", "platform", "query", "recovery",
    "resilience", "search", "serve", "sim", "workloads",
)
STARTUP_METRICS = (
    ["startup.interpreter_s", "startup.repro_s", "startup.external_s"]
    + [f"startup.{package}_s" for package in PACKAGES]
)
TIMEOUT_S = 60


def _run(argv: Sequence[str], env: Dict[str, str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        list(argv), env=env, cwd=cwd, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S, check=True,
    )


def wall_seconds(argv: Sequence[str], env: Dict[str, str], cwd: str, samples: int) -> List[float]:
    """Spawn-to-exit wall time of ``argv``, once per sample."""
    times = []
    for _ in range(samples):
        start = clock()
        _run(argv, env, cwd)
        times.append(clock() - start)
    return times


def _importtime(python: str, code: str, env: Dict[str, str], cwd: str) -> Dict[str, float]:
    """Self seconds per imported module, from one ``-X importtime`` run."""
    stderr = _run([python, "-X", "importtime", "-c", code], env, cwd).stderr
    out: Dict[str, float] = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            out[fields[2].strip()] = int(fields[0]) * 1e-6
    return out


def _group(module: str, preloaded: Dict[str, float]) -> str:
    parts = module.split(".")
    if parts[0] != "repro":
        return "external" if module not in preloaded else ""
    if len(parts) > 1 and parts[1] in PACKAGES:
        return parts[1]
    return "repro"


def import_breakdown(
    python: str, env: Dict[str, str], cwd: str, samples: int
) -> Dict[str, float]:
    """The ``startup.*`` metrics: medians over ``samples`` attributions.

    ``startup.external_s`` is the modules `repro` pulls in (numpy, asyncio,
    ...) that a bare interpreter does not already load.
    """
    per_sample: List[Dict[str, float]] = []
    for _ in range(samples):
        preloaded = _importtime(python, "pass", env, cwd)
        totals = {name: 0.0 for name in STARTUP_METRICS}
        for module, seconds in _importtime(python, IMPORT_CODE, env, cwd).items():
            group = _group(module, preloaded)
            if group:
                totals[f"startup.{group}_s"] += seconds
        per_sample.append(totals)
    out = {
        name: statistics.median(sample[name] for sample in per_sample)
        for name in STARTUP_METRICS
    }
    out["startup.interpreter_s"] = statistics.median(
        wall_seconds([python, "-c", "pass"], env, cwd, samples)
    )
    return out
