"""IceClave configuration: measured constants and sizing (Tables 3 and 5).

Lifecycle and world-switch costs were measured by the authors on the
OpenSSD Cosmos+ FPGA prototype (Table 5); memory-side latencies come from
Table 3 and §6.3. They are inputs to the timing model, and the Table 5
benchmark prints them next to the values the micro-simulation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MICROSECOND = 1e-6
NANOSECOND = 1e-9


@dataclass(frozen=True)
class IceClaveConfig:
    """All tunables of the IceClave runtime and protection machinery."""

    # -- TEE lifecycle (Table 5, FPGA-measured) --
    tee_create_time: float = 95 * MICROSECOND
    tee_delete_time: float = 58 * MICROSECOND
    context_switch_time: float = 3.8 * MICROSECOND

    # -- memory protection machinery (Table 3 / §4.4 / §5) --
    memory_encryption_time: float = 102.6 * NANOSECOND
    memory_verification_time: float = 151.2 * NANOSECOND
    aes_delay: float = 60 * NANOSECOND  # AES-128 hardware latency
    counter_cache_bytes: int = 128 * KIB
    cache_line_bytes: int = 64
    page_bytes: int = 4 * KIB

    # -- SSD DRAM --
    dram_bytes: int = 4 * GIB

    # -- runtime sizing (§4.5) --
    tee_preallocation_bytes: int = 16 * MIB
    max_tee_code_bytes: int = 528 * KIB  # paper: in-storage programs are 28-528KB
    protected_region_bytes: int = 64 * MIB  # hosts the cached mapping table
    secure_region_bytes: int = 128 * MIB  # FTL + IceClave runtime

    # -- stream cipher engine (§5) --
    cipher_keystream_bits_per_cycle: int = 64
    cipher_clock_hz: float = 400e6

    # -- minor-counter geometry of the split-counter scheme --
    minor_counter_bits: int = 7  # SC-64: 64 x 7-bit minors + one major / line

    def __post_init__(self) -> None:
        if self.tee_preallocation_bytes <= 0:
            raise ValueError("TEE preallocation must be positive")
        if self.dram_bytes <= self.protected_region_bytes + self.secure_region_bytes:
            raise ValueError("DRAM must be larger than the reserved regions")

    @property
    def minor_counter_limit(self) -> int:
        """Writes to one line before a minor counter overflows (2^bits)."""
        return 1 << self.minor_counter_bits

    def cipher_page_latency(self) -> float:
        """Time for the stream-cipher engine to cover one flash page.

        The engine produces ``cipher_keystream_bits_per_cycle`` per cycle
        (Figure 10: 64 keystream bits/cycle), pipelined with the transfer.
        """
        bits = self.page_bytes * 8
        cycles = bits / self.cipher_keystream_bits_per_cycle
        return cycles / self.cipher_clock_hz

    def with_dram(self, dram_bytes: int) -> "IceClaveConfig":
        """Copy with a different SSD DRAM capacity (Figure 16 sweep)."""
        return replace(self, dram_bytes=dram_bytes)
