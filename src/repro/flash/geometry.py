"""SSD geometry (Table 3 of the paper) and physical address arithmetic.

The paper's device: 8 channels, 4 chips/channel, 4 dies/chip, 2 planes/die,
2048 blocks/plane, 512 pages/block, 4 KB pages — a 1 TB SSD. Physical page
addresses (PPAs) are dense integers; the layout stripes consecutive PPAs
across channels first, then chips, dies, and planes, which is what gives
sequential reads their channel-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class PhysicalAddress(NamedTuple):
    """A fully decomposed flash page location."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int


@dataclass(frozen=True)
class FlashGeometry:
    """Static shape of the flash array."""

    channels: int = 8
    chips_per_channel: int = 4
    dies_per_chip: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    pages_per_block: int = 512
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # aggregate products are asked for on every address decomposition;
        # precompute them once (object.__setattr__ because frozen)
        chips = self.channels * self.chips_per_channel
        dies = chips * self.dies_per_chip
        planes = dies * self.planes_per_die
        blocks = planes * self.blocks_per_plane
        pages = blocks * self.pages_per_block
        object.__setattr__(self, "_total_dies", dies)
        object.__setattr__(self, "_total_planes", planes)
        object.__setattr__(self, "_total_blocks", blocks)
        object.__setattr__(self, "_total_pages", pages)

    # -- aggregate sizes (instance attrs precomputed in __post_init__;
    # deliberately not annotated so the dataclass does not treat them as
    # fields) --------------------------------------------------------------

    @property
    def total_dies(self) -> int:
        return self._total_dies

    @property
    def total_planes(self) -> int:
        return self._total_planes

    @property
    def total_blocks(self) -> int:
        return self._total_blocks

    @property
    def total_pages(self) -> int:
        return self._total_pages

    @property
    def capacity_bytes(self) -> int:
        return self._total_pages * self.page_bytes

    # -- address arithmetic -------------------------------------------------
    #
    # PPA layout (least significant first): channel, chip, die, plane, then
    # (block, page) within the plane. Consecutive PPAs land on consecutive
    # channels, maximizing stripe parallelism for sequential access.

    def decompose(self, ppa: int) -> PhysicalAddress:
        """Split a dense PPA into its physical coordinates."""
        if not 0 <= ppa < self.total_pages:
            raise ValueError(f"PPA {ppa} out of range [0, {self.total_pages})")
        rest, channel = divmod(ppa, self.channels)
        rest, chip = divmod(rest, self.chips_per_channel)
        rest, die = divmod(rest, self.dies_per_chip)
        rest, plane = divmod(rest, self.planes_per_die)
        block, page = divmod(rest, self.pages_per_block)
        return PhysicalAddress(channel, chip, die, plane, block, page)

    def compose(self, addr: PhysicalAddress) -> int:
        """Inverse of :meth:`decompose`."""
        self._check(addr)
        rest = addr.block * self.pages_per_block + addr.page
        rest = rest * self.planes_per_die + addr.plane
        rest = rest * self.dies_per_chip + addr.die
        rest = rest * self.chips_per_channel + addr.chip
        return rest * self.channels + addr.channel

    def _check(self, addr: PhysicalAddress) -> None:
        bounds = (
            ("channel", addr.channel, self.channels),
            ("chip", addr.chip, self.chips_per_channel),
            ("die", addr.die, self.dies_per_chip),
            ("plane", addr.plane, self.planes_per_die),
            ("block", addr.block, self.blocks_per_plane),
            ("page", addr.page, self.pages_per_block),
        )
        for name, value, bound in bounds:
            if not 0 <= value < bound:
                raise ValueError(f"{name} {value} out of range [0, {bound})")

    def channel_and_die(self, ppa: int) -> "tuple[int, int]":
        """(channel, global die index) for ``ppa`` with minimal arithmetic.

        The device issue path needs exactly these two coordinates per page
        operation; this skips the full :class:`PhysicalAddress` build.
        """
        if not 0 <= ppa < self._total_pages:
            raise ValueError(f"PPA {ppa} out of range [0, {self._total_pages})")
        rest, channel = divmod(ppa, self.channels)
        rest, chip = divmod(rest, self.chips_per_channel)
        die = rest % self.dies_per_chip
        return channel, (channel * self.chips_per_channel + chip) * self.dies_per_chip + die

    def die_index(self, ppa: int) -> int:
        """Global die index for ``ppa`` (used to pick the die resource)."""
        return self.channel_and_die(ppa)[1]

    def plane_index(self, ppa: int) -> int:
        """Global plane index for ``ppa``."""
        addr = self.decompose(ppa)
        return self.die_index(ppa) * self.planes_per_die + addr.plane

    def block_of(self, ppa: int) -> int:
        """Global block index containing ``ppa``."""
        addr = self.decompose(ppa)
        return self.plane_index(ppa) * self.blocks_per_plane + addr.block


def small_geometry(
    channels: int = 8,
    chips_per_channel: int = 2,
    dies_per_chip: int = 2,
    planes_per_die: int = 2,
    blocks_per_plane: int = 64,
    pages_per_block: int = 64,
    page_bytes: int = 4096,
) -> FlashGeometry:
    """A scaled-down geometry for tests and fast benchmark runs.

    Keeps the channel count (the quantity the paper sweeps) while shrinking
    capacity so functional simulations stay fast.
    """
    return FlashGeometry(
        channels=channels,
        chips_per_channel=chips_per_channel,
        dies_per_chip=dies_per_chip,
        planes_per_die=planes_per_die,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_bytes=page_bytes,
    )
