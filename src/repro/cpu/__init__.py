"""Processor models (the gem5 substitute).

Analytic core models for the SSD controller's ARM cores (Cortex-A72
out-of-order, Cortex-A53 in-order) and the host's Intel i7-7700K. Each
charges memory stalls at a constant DRAM latency; no cache or DRAM
simulator runs behind them.
"""

from repro.cpu.core import CoreModel
from repro.cpu.models import CORTEX_A53, CORTEX_A72, INTEL_I7_7700K, core_by_name

__all__ = [
    "CoreModel",
    "CORTEX_A53",
    "CORTEX_A72",
    "INTEL_I7_7700K",
    "core_by_name",
]
