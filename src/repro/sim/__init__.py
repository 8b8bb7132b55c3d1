"""Discrete-event simulation kernel used by every timing model in repro.

The kernel is deliberately small: an event queue ordered by (time, sequence),
FIFO resources with queueing statistics, and histogram helpers. All
flash, DRAM, and platform timing models are built on top of it.
"""

from repro.sim.engine import Engine, Event
from repro.sim.resource import Resource
from repro.sim.stats import (
    Histogram,
    SearchStats,
    SimBudget,
    memo_cache_stats,
    register_memo,
)

__all__ = [
    "Engine",
    "Event",
    "Resource",
    "Histogram",
    "SearchStats",
    "SimBudget",
    "memo_cache_stats",
    "register_memo",
]
