"""Counter cache: the on-chip cache for MEE metadata (§5: 128 KB).

Caches encryption-counter blocks, MAC lines, and integrity-tree nodes.
Write-back with dirty tracking: evicting a dirty line costs a memory write,
which is part of the extra traffic Table 6 accounts. The timing MEE's replay
loop fills and evicts lines itself and books each dirty victim's write-back
as encryption or verification traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable


class CounterCache:
    """Fully associative LRU cache over 64-byte metadata lines.

    ``lru`` maps each resident line's key to its dirty bit, least recently
    used first. The timing MEE's replay loop drives it directly: a touch
    moves the line to the most recently used end, a write sets its dirty
    bit, and a fill into a full cache evicts the least recently used line.
    The loop adds its hit, miss and eviction counts here when it returns.
    """

    __slots__ = (
        "capacity_lines",
        "line_bytes",
        "lru",
        "hits",
        "misses",
        "dirty_evictions",
        "clean_evictions",
    )

    def __init__(self, capacity_bytes: int, line_bytes: int = 64) -> None:
        if capacity_bytes < line_bytes:
            raise ValueError("cache smaller than one line")
        self.capacity_lines = capacity_bytes // line_bytes
        self.line_bytes = line_bytes
        self.lru: OrderedDict[Hashable, bool] = OrderedDict()  # key -> dirty
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def contains(self, key: Hashable) -> bool:
        return key in self.lru

    def flush(self) -> int:
        """Drop everything; returns how many dirty lines needed write-back."""
        dirty = sum(1 for d in self.lru.values() if d)
        self.dirty_evictions += dirty
        self.lru.clear()
        return dirty

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0
