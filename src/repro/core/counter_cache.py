"""Counter cache: the on-chip cache for MEE metadata (§5: 128 KB).

Caches encryption-counter blocks, MAC lines, and integrity-tree nodes.
Write-back with dirty tracking: evicting a dirty line costs a memory write,
which is part of the extra traffic Table 6 accounts. The victim's key is
returned so the MEE can attribute the write-back to encryption vs
verification traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple


class CounterCache:
    """Fully associative LRU cache over 64-byte metadata lines."""

    __slots__ = (
        "capacity_lines",
        "line_bytes",
        "_lru",
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
        self._lru: OrderedDict[Hashable, bool] = OrderedDict()  # key -> dirty
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def access(self, key: Hashable, dirty: bool = False) -> Tuple[bool, Optional[Hashable]]:
        """Touch a metadata line.

        Returns ``(hit, dirty_victim_key)``: whether the line was resident,
        and — when the fill evicted a dirty line — that victim's key (the
        caller charges its write-back). ``dirty_victim_key`` is None when
        nothing dirty was evicted.
        """
        dirty_victim = None
        lru = self._lru
        if key in lru:
            self.hits += 1
            lru.move_to_end(key)
            if dirty:
                lru[key] = True
            return True, dirty_victim
        self.misses += 1
        if len(lru) >= self.capacity_lines:
            victim_key, victim_dirty = lru.popitem(last=False)
            if victim_dirty:
                self.dirty_evictions += 1
                dirty_victim = victim_key
            else:
                self.clean_evictions += 1
        lru[key] = dirty
        return False, dirty_victim

    def contains(self, key: Hashable) -> bool:
        return key in self._lru

    def flush(self) -> int:
        """Drop everything; returns how many dirty lines needed write-back."""
        dirty = sum(1 for d in self._lru.values() if d)
        self.dirty_evictions += dirty
        self._lru.clear()
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
