"""Memory access trace recording for workload characterization.

Operators report their memory behaviour through a :class:`TraceRecorder`:
sequential reads of the streamed input (read-only region), random
reads/writes over hash-table working sets, and sequential writes of
intermediate results (writable region).

Two levels are tracked:

- **CPU-level** counters (``cpu_reads``/``cpu_writes``): every load/store
  the program issues. Their ratio is what Table 1 of the paper reports.
- **DRAM-level** counters and sampled events: accesses that miss the
  on-chip caches and reach SSD DRAM — the traffic the MEE protects and the
  level at which Table 6's extra-traffic percentages are defined. Working
  sets smaller than ``cache_filter_bytes`` are absorbed by the caches
  (their cold fill is a one-time "fixed" cost that does not scale with the
  dataset); larger working sets miss in proportion to the part that does
  not fit, optionally reduced by a hot-subset fraction for skewed (Zipf)
  key distributions.

Counting is done in bulk — a gigabyte-scale scan is one arithmetic update
plus a handful of sampled events, not a per-line Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.crypto.prng import XorShift64

LINE_BYTES = 64
PAGE_BYTES = 4096
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES

# region base page numbers: keeps input/working-set/output pages disjoint
INPUT_REGION_PAGE = 0
WORKSET_REGION_PAGE = 1 << 22
OUTPUT_REGION_PAGE = 1 << 23

AccessEvent = Tuple[int, int, bool, bool]  # (page, line, is_write, readonly)


@dataclass
class AccessTrace:
    """The finished product handed to the simulators."""

    events: List[AccessEvent] = field(default_factory=list)
    cpu_reads: int = 0
    cpu_writes: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    fixed_dram_reads: int = 0  # one-time cold fills; do not scale with input
    fixed_dram_writes: int = 0

    # -- CPU level (Table 1) --

    @property
    def total_accesses(self) -> int:
        return self.cpu_reads + self.cpu_writes

    @property
    def write_ratio(self) -> float:
        """Fraction of CPU memory accesses that are writes (Table 1)."""
        return self.cpu_writes / self.total_accesses if self.total_accesses else 0.0

    # -- DRAM level (MEE, memory timing, Table 6 denominators) --

    @property
    def all_dram_reads(self) -> int:
        return self.dram_reads + self.fixed_dram_reads

    @property
    def all_dram_writes(self) -> int:
        return self.dram_writes + self.fixed_dram_writes

    @property
    def dram_accesses(self) -> int:
        return self.all_dram_reads + self.all_dram_writes


def subsample_events(events: List[AccessEvent], limit: int, chunk: int = 512) -> List[AccessEvent]:
    """Pick ~``limit`` events spread across the whole trace.

    Keeps contiguous chunks intact (the MEE's counter-coverage behaviour
    depends on intra-burst locality) while drawing them from every phase
    of the trace — naive ``events[:limit]`` would see only the first
    phase of a read-then-write workload.
    """
    if limit <= 0:
        return []
    if len(events) <= limit:
        return list(events)
    n_chunks = (len(events) + chunk - 1) // chunk
    keep = max(1, limit // chunk)
    out: List[AccessEvent] = []
    for i in range(keep):
        # chunk indices spread uniformly over the whole trace
        idx = (i * n_chunks) // keep
        out.extend(events[idx * chunk:(idx + 1) * chunk])
    return out[:limit]


class TraceRecorder:
    """Counts every access exactly; samples DRAM events sparsely."""

    def __init__(
        self,
        sample_every: int = 64,
        seed: int = 11,
        max_samples: int = 200_000,
        cache_filter_bytes: int = 1 << 20,
        burst_length: int = 512,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        self.sample_every = sample_every
        self.max_samples = max_samples
        self.cache_filter_bytes = cache_filter_bytes
        self.burst_length = burst_length
        self._rng = XorShift64(seed)
        self.trace = AccessTrace()
        self._tick = 0  # DRAM access counter, for even sampling
        self._input_cursor = 0  # lines
        self._output_cursor = 0  # lines

    # -- internal ---------------------------------------------------------------

    def _bursts(self, count: int) -> List[Tuple[int, int]]:
        """``(start, stop)`` offsets, within a run of ``count`` DRAM accesses,
        of the sampled bursts.

        Sampling happens in *bursts* of ``burst_length`` consecutive
        accesses out of every ``burst_length * sample_every``: one access
        in ``sample_every`` overall, but with intra-burst spatial locality
        preserved, which the MEE's counter-coverage behaviour depends on.
        The bursts together hold at most the room left under
        ``max_samples``; the last one may be cut short by it.
        """
        burst = self.burst_length
        period = burst * self.sample_every
        room = self.max_samples - len(self.trace.events)
        bursts = []
        pos = 0
        in_period = self._tick % period
        while pos < count and room > 0:
            if in_period < burst:
                stop = min(count, pos + burst - in_period, pos + room)
                bursts.append((pos, stop))
                room -= stop - pos
                in_period += stop - pos
                pos = stop
            else:
                pos += period - in_period  # jump to the next burst start
                in_period = 0
        self._tick += count
        return bursts

    def _record(self, region: int, lines: Iterable[int], is_write: bool, readonly: bool) -> None:
        """Append one burst's events, given its line indices within ``region``."""
        self.trace.events.extend([
            (region + i // LINES_PER_PAGE, i % LINES_PER_PAGE, is_write, readonly) for i in lines
        ])

    # -- operator-facing API --------------------------------------------------------

    def read_input(self, nbytes: int) -> None:
        """Sequential reads of the streamed (read-only) input region.

        Streamed data has no reuse, so every line read reaches DRAM.
        """
        lines = max(1, int(nbytes) // LINE_BYTES)
        self.trace.cpu_reads += lines
        self.trace.dram_reads += lines
        cursor = self._input_cursor
        for start, stop in self._bursts(lines):
            self._record(INPUT_REGION_PAGE, range(cursor + start, cursor + stop), False, True)
        self._input_cursor += lines

    def read_workset(
        self,
        working_set_bytes: int,
        count: int = 1,
        hot_fraction: float = 0.0,
        readonly: bool = False,
    ) -> None:
        """Random reads within a working set (hash probes, dimension gathers).

        Pass ``readonly=True`` for gathers over read-only data (dimension
        tables): their events land in the read-only region, so the MEE's
        hybrid-counter fast path applies.
        """
        self._workset(working_set_bytes, count, hot_fraction, is_write=False, readonly=readonly)

    def write_workset(self, working_set_bytes: int, count: int = 1, hot_fraction: float = 0.0) -> None:
        """Random writes within a writable working set (hash inserts/updates)."""
        self._workset(working_set_bytes, count, hot_fraction, is_write=True)

    def _workset(
        self,
        working_set_bytes: int,
        count: int,
        hot_fraction: float,
        is_write: bool,
        readonly: bool = False,
    ) -> None:
        if count <= 0:
            return
        if not 0.0 <= hot_fraction < 1.0:
            raise ValueError("hot_fraction must lie in [0, 1)")
        lines = max(1, int(working_set_bytes) // LINE_BYTES)
        if is_write:
            self.trace.cpu_writes += count
        else:
            self.trace.cpu_reads += count
        ws_bytes = lines * LINE_BYTES
        if ws_bytes <= self.cache_filter_bytes:
            # one-time cold fill / final writeback: does not scale with input
            dram_count = min(count, lines)
            if is_write:
                self.trace.fixed_dram_writes += dram_count
            else:
                self.trace.fixed_dram_reads += dram_count
        else:
            # accesses to the cache-resident hot subset never reach DRAM;
            # the rest miss in proportion to the uncached part
            miss_fraction = (1.0 - hot_fraction) * (
                1.0 - self.cache_filter_bytes / ws_bytes
            )
            dram_count = max(1, int(count * miss_fraction))
            if is_write:
                self.trace.dram_writes += dram_count
            else:
                self.trace.dram_reads += dram_count
        region = INPUT_REGION_PAGE if readonly else WORKSET_REGION_PAGE
        next_below = self._rng.next_below
        for start, stop in self._bursts(dram_count):
            drawn = [next_below(lines) for _ in range(start, stop)]
            self._record(region, drawn, is_write, readonly)

    def write_output(self, nbytes: int) -> None:
        """Sequential writes of results/intermediate data."""
        lines = max(1, int(nbytes) // LINE_BYTES)
        self.trace.cpu_writes += lines
        self.trace.dram_writes += lines
        cursor = self._output_cursor
        for start, stop in self._bursts(lines):
            self._record(OUTPUT_REGION_PAGE, range(cursor + start, cursor + stop), True, False)
        self._output_cursor += lines

    def finish(self) -> AccessTrace:
        return self.trace
