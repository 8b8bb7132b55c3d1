"""SsdSystem: logical I/O through the FTL with event-driven timing.

Glues :class:`~repro.ftl.ftl.Ftl` (functional state) to
:class:`~repro.flash.ssd.FlashDevice` (discrete-event timing): a logical
read/write performs its FTL work synchronously and then schedules *every*
resulting physical operation — including GC relocations and erases — on
the device, so request latencies reflect channel/die contention and GC
pauses the way SimpleSSD models them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.ssd import FlashDevice
from repro.flash.timing import FlashTiming
from repro.ftl.ftl import Ftl, FtlOpCost, WritesSuspendedError
from repro.ftl.mapping import PUBLIC_ID
from repro.sim.engine import Engine
from repro.sim.stats import Histogram

Callback = Optional[Callable[[float], None]]  # receives completion latency


@dataclass
class IoStats:
    reads_issued: int = 0
    writes_issued: int = 0
    writes_refused_degraded: int = 0
    read_latency: Histogram = field(default_factory=lambda: Histogram("read"))
    write_latency: Histogram = field(default_factory=lambda: Histogram("write"))
    gc_stalled_writes: int = 0


class SsdSystem:
    """A full SSD: FTL + event-driven flash, driven by logical requests."""

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[FlashTiming] = None,
        engine: Optional[Engine] = None,
        store_data: bool = False,
        degradation=None,  # duck-typed DegradationLadder: allows_writes()
        slo=None,  # duck-typed SloTracker: record(now, kind, latency, ok)
        **ftl_kwargs,
    ) -> None:
        self.engine = engine or Engine()
        self.geometry = geometry or FlashGeometry()
        chip = FlashChip(self.geometry, store_data=store_data)
        self.ftl = Ftl(self.geometry, chip=chip, **ftl_kwargs)
        self.device = FlashDevice(self.engine, self.geometry, timing)
        self.stats = IoStats()
        self.degradation = degradation
        self.slo = slo

    # -- logical requests -----------------------------------------------------

    def read(self, lpa: int, tee_id: int = PUBLIC_ID, on_done: Callback = None) -> int:
        """Issue a logical read; returns the PPA being read.

        The permission check (ID bits) happens immediately; timing completes
        via ``on_done(latency_seconds)``.
        """
        ppa = self.ftl.translate(lpa, tee_id)
        start = self.engine.now
        self.stats.reads_issued += 1

        def finish() -> None:
            latency = self.engine.now - start
            self.stats.read_latency.record(latency)
            if self.slo is not None:
                self.slo.record(self.engine.now, "read", latency, ok=True)
            if on_done is not None:
                on_done(latency)

        self.device.read(ppa, on_done=finish)
        return ppa

    def write(self, lpa: int, data: Optional[bytes] = None, owner: Optional[int] = None,
              on_done: Callback = None) -> FtlOpCost:
        """Issue a logical write; GC/wear-leveling work rides on its latency.

        The FTL decides placement (and possibly reclaims blocks)
        synchronously; all resulting physical operations are scheduled on
        the device, and the request completes when its own program — queued
        behind any relocation traffic — finishes.

        When a degradation ladder is attached and the device has dropped to
        a read-only (or failsafe) mode, the write is refused *before* any
        FTL state changes with :class:`WritesSuspendedError` — the NVMe
        layer maps it to the retryable COMMAND_INTERRUPTED status.
        """
        if self.degradation is not None and not self.degradation.allows_writes():
            self.stats.writes_refused_degraded += 1
            mode = getattr(self.degradation, "mode", "degraded")
            raise WritesSuspendedError(getattr(mode, "value", str(mode)))
        cost = self.ftl.write(lpa, data, owner=owner)
        start = self.engine.now
        self.stats.writes_issued += 1
        if cost.gc is not None:
            self.stats.gc_stalled_writes += 1

        # GC relocations: reads then programs of the actual moved pages,
        # plus victim erases. They occupy the same channels/dies and
        # therefore delay the host program below.
        if cost.gc is not None:
            for victim in cost.gc.victims:
                self.device.erase(victim)
            for old_ppa, new_ppa in cost.gc.relocated:
                self.device.read(old_ppa, on_done=None)
                self.device.write(new_ppa, on_done=None)

        def finish() -> None:
            latency = self.engine.now - start
            self.stats.write_latency.record(latency)
            if self.slo is not None:
                self.slo.record(self.engine.now, "write", latency, ok=True)
            if on_done is not None:
                on_done(latency)

        assert cost.ppa is not None
        self.device.write(cost.ppa, on_done=finish)
        return cost

    # -- bulk helpers -------------------------------------------------------------

    def run_to_completion(self) -> float:
        """Drain all outstanding flash operations; returns the finish time."""
        return self.engine.run()

    def read_many(self, lpas: List[int]) -> float:
        """Issue a batch of reads and run until all complete."""
        for lpa in lpas:
            self.read(lpa)
        return self.run_to_completion()

    def write_many(self, lpas: List[int]) -> float:
        for lpa in lpas:
            self.write(lpa)
        return self.run_to_completion()

    # -- derived metrics -------------------------------------------------------------

    def mean_read_latency(self) -> float:
        return self.stats.read_latency.mean

    def mean_write_latency(self) -> float:
        return self.stats.write_latency.mean

    def p99_style_max_write(self) -> float:
        """Worst observed write latency (GC pauses surface here)."""
        return self.stats.write_latency.max or 0.0

    def write_amplification(self) -> float:
        """Physical writes per host write since the system was created."""
        return self.ftl.stats.write_amplification(self.stats.writes_issued)
