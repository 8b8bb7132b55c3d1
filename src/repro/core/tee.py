"""In-storage TEE state (§4.5).

A TEE hosts one offloaded program: its machine code, the logical pages it
declared at offload time, a preallocated contiguous memory region in the
normal world, and metadata (identity, measurement, results) kept in the
secure region.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List, Optional


class TeeState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"
    ABORTED = "aborted"
    TERMINATED = "terminated"


@dataclass
class TeeMessage:
    """The exception record ThrowOutTEE returns to the host (Table 2)."""

    tee_id: int
    reason: str


@dataclass
class Tee:
    """One in-storage trusted execution environment."""

    eid: int  # the 4-bit ID stamped into mapping entries
    tid: int  # host-side task id from OffloadCode
    code: bytes
    lpas: List[int]
    args: Any = None
    decryption_key: Optional[bytes] = None
    state: TeeState = TeeState.CREATED
    memory_range: Any = None  # AddressSpace carve-out
    measurement: bytes = b""
    result: Optional[bytes] = None
    exception: Optional[TeeMessage] = None
    context_switches: int = 0
    translations: int = 0
    translation_misses: int = 0
    _heap_used: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self.code:
            raise ValueError("a TEE needs program code")
        self.measurement = hashlib.blake2b(self.code, digest_size=16).digest()

    def is_live(self) -> bool:
        return self.state in (TeeState.CREATED, TeeState.READY, TeeState.RUNNING)

    # -- dynamic allocation within the preallocated region (§4.5) ----------

    def malloc(self, nbytes: int) -> int:
        """Bump-allocate from the TEE's preallocated region.

        Returns the offset within the region; raises MemoryError when the
        16 MB preallocation is exhausted.
        """
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        if self.memory_range is None:
            raise RuntimeError("TEE has no memory region (not created yet?)")
        region_size = self.memory_range.end - self.memory_range.start
        if self._heap_used + nbytes > region_size:
            raise MemoryError(
                f"TEE {self.eid} heap exhausted "
                f"({self._heap_used + nbytes} > {region_size})"
            )
        offset = self._heap_used
        self._heap_used += nbytes
        return offset
