"""Flash timing: channel + die contention.

A page read occupies its die for ``t_RD`` then its channel for the transfer
time; with C channels the aggregate internal bandwidth scales with C
(Figure 12) while per-page latency and die counts bound the achievable
parallelism (Figure 14). :func:`read_storm_time` computes the clock of a
windowed read storm without the engine, exactly; the Figs. 12-14 probe uses
it. :class:`FlashDevice` runs the same contention on the discrete-event
engine: it is :class:`~repro.ftl.ssd_system.SsdSystem`'s timing, and its
:meth:`FlashDevice.read_storm` is the closed form's oracle.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Callable, Iterable, List, Optional, Tuple

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.sim.engine import Engine
from repro.sim.resource import Resource

Callback = Optional[Callable[[], None]]


class FlashDevice:
    """Timing front-end of the SSD's flash array.

    Schedules page reads, page programs and block erases on the channel and
    die resources and counts them; the functional state is the FTL's
    :class:`~repro.flash.chip.FlashChip`.
    """

    def __init__(
        self,
        engine: Engine,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[FlashTiming] = None,
    ) -> None:
        self.engine = engine
        self.geometry = geometry or FlashGeometry()
        self.timing = timing or FlashTiming()
        self.channels = [
            Resource(engine, f"channel{i}") for i in range(self.geometry.channels)
        ]
        self.dies = [Resource(engine, f"die{i}") for i in range(self.geometry.total_dies)]
        self.page_reads = 0
        self.page_writes = 0
        self.block_erases = 0
        self._page_transfer_time = self.timing.transfer_time(self.geometry.page_bytes)

    def read(self, ppa: int, on_done: Callback = None) -> None:
        """Schedule a page read: die sense (t_RD), then channel transfer."""
        channel, die = self.geometry.channel_and_die(ppa)
        self.page_reads += 1

        def after_sense() -> None:
            self.channels[channel].acquire(self._page_transfer_time, on_done=on_done)

        self.dies[die].acquire(self.timing.read_latency, on_done=after_sense)

    def write(self, ppa: int, on_done: Callback = None) -> None:
        """Schedule a page program: channel transfer, then die program."""
        channel, die = self.geometry.channel_and_die(ppa)
        self.page_writes += 1

        def after_transfer() -> None:
            self.dies[die].acquire(self.timing.program_latency, on_done=on_done)

        self.channels[channel].acquire(self._page_transfer_time, on_done=after_transfer)

    def erase(self, block: int, on_done: Callback = None) -> None:
        """Schedule a block erase on its die."""
        plane = block // self.geometry.blocks_per_plane
        die = plane // self.geometry.planes_per_die
        self.block_erases += 1
        self.dies[die].acquire(self.timing.erase_latency, on_done=on_done)

    def read_storm(self, ppas: Iterable[int], window: int = 64) -> int:
        """Run a windowed closed-loop read storm to completion.

        ``window`` reads stay outstanding; every channel completion issues
        the next page. Drives the engine to completion, so it requires a
        non-running engine. Returns the number of engine events the storm
        fired (two per page: die sense, then channel transfer).
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        ppa_list = list(ppas)
        pending = iter(ppa_list)
        engine = self.engine
        before = engine.events_fired

        def issue_one() -> None:
            ppa = next(pending, None)
            if ppa is not None:
                self.read(ppa, on_done=issue_one)

        for _ in range(min(window, len(ppa_list))):
            issue_one()
        engine.run()
        return engine.events_fired - before


def read_storm_time(
    geometry: FlashGeometry, timing: FlashTiming, ppas: Iterable[int], window: int
) -> float:
    """Clock at the end of :meth:`FlashDevice.read_storm`, without the engine.

    Runs the same closed loop as a recurrence: every die and every channel
    is a FIFO server with one constant service time (``t_RD``, the page
    transfer), so a job starts at ``max(arrival, free)`` and finishes at
    ``start + service``, the same float addition ``Engine.schedule_after``
    makes. One heap orders the pending finishes: a die finish queues its
    page on the page's channel, and a channel finish issues the next page.
    The returned clock equals ``engine.now`` after ``read_storm`` bit for
    bit (``tests/test_flash.py`` pins this on random geometries).

    Ties in time cannot change a value. A FIFO server with one constant
    service time departs at times fixed by its sorted arrival times alone,
    whichever of two simultaneous arrivals it serves first; a die's pages
    all go on to the same channel; and each channel finish issues the next
    page in page order, so page ``window + k`` is issued at the ``k``-th
    earliest finish, whichever of two simultaneous finishes fires first.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    sense = timing.read_latency
    transfer = timing.transfer_time(geometry.page_bytes)
    route = list(map(geometry.channel_and_die, ppas))
    pages = len(route)
    die_free = [0.0] * geometry.total_dies
    channel_free = [0.0] * geometry.channels
    # (time, channel) of a die finish; channel -1 marks a channel finish
    pending: List[Tuple[float, int]] = []
    issued = min(window, pages)
    for channel, die in route[:issued]:
        die_free[die] += sense  # all issued at time 0: each waits for the last
        heappush(pending, (die_free[die], channel))
    now = 0.0
    while pending:
        # the earliest finish makes way for the finish it causes, if any
        now, channel = pending[0]
        if channel >= 0:
            free = channel_free[channel]
            done = (now if now > free else free) + transfer
            channel_free[channel] = done
            heapreplace(pending, (done, -1))
        elif issued < pages:
            channel, die = route[issued]
            issued += 1
            free = die_free[die]
            done = (now if now > free else free) + sense
            die_free[die] = done
            heapreplace(pending, (done, channel))
        else:
            heappop(pending)
    return now
