"""Analytic core timing model.

Compute time is modelled as issue-limited execution plus memory stalls:

    cycles = instructions / effective_ipc
           + memory_accesses * miss_to_memory_rate * dram_cycles / mlp

Out-of-order cores (A72, i7) hide more memory latency (higher ``mlp``) and
sustain higher IPC than the in-order A53; Figure 15's sweep over core model
and frequency falls directly out of these parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CoreModel:
    """Parameters of one processor core."""

    name: str
    frequency_hz: float
    base_ipc: float  # sustained IPC on cache-resident work
    out_of_order: bool
    mlp: float  # overlapped outstanding memory misses
    dram_latency_s: float = 80e-9  # effective memory latency seen by the core

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0 or self.base_ipc <= 0 or self.mlp < 1:
            raise ValueError("invalid core parameters")

    def with_frequency(self, frequency_hz: float) -> "CoreModel":
        """Copy at a different clock (Figure 15 frequency sweep)."""
        return replace(self, frequency_hz=frequency_hz, name=f"{self.name}@{frequency_hz/1e9:.1f}GHz")

    def compute_time(
        self,
        instructions: float,
        memory_accesses: float = 0.0,
        memory_miss_rate: float = 0.02,
        extra_memory_latency_s: float = 0.0,
    ) -> float:
        """Seconds to execute ``instructions`` with the given memory profile.

        ``extra_memory_latency_s`` is added per memory-bound access — this is
        where the MEE's encryption/verification latency enters the pipeline
        (IceClave's per-access overhead).
        """
        if instructions < 0 or memory_accesses < 0:
            raise ValueError("work amounts must be non-negative")
        if not 0.0 <= memory_miss_rate <= 1.0:
            raise ValueError("miss rate must be a probability")
        issue_cycles = instructions / self.base_ipc
        misses = memory_accesses * memory_miss_rate
        per_miss = self.dram_latency_s + extra_memory_latency_s
        stall_seconds = misses * per_miss / self.mlp
        return issue_cycles / self.frequency_hz + stall_seconds
