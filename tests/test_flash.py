"""Tests for flash geometry, chip state machine, ECC, and device timing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash import (
    EccModel,
    FlashChip,
    FlashDevice,
    FlashGeometry,
    FlashTiming,
    PageState,
    PhysicalAddress,
)
from repro.faults.chaos import CHAOS_GEOMETRY
from repro.flash.chip import FlashProgramError
from repro.flash.ecc import EccConfig, EccUncorrectableError
from repro.flash.geometry import small_geometry
from repro.flash.ssd import read_storm_time
from repro.platform.config import PlatformConfig
from repro.platform.schemes import FLASH_PROBE_PAGES, flash_read_throughput
from repro.sim import Engine


class TestGeometry:
    def test_paper_configuration_is_one_terabyte(self):
        """Table 3: 8ch x 4chips x 4dies x 2planes x 2048blk x 512pg x 4KB = 1 TB."""
        geo = FlashGeometry()
        assert geo.capacity_bytes == 1 << 40

    def test_total_counts(self):
        geo = FlashGeometry()
        assert geo.total_dies == 8 * 4 * 4
        assert geo.total_planes == geo.total_dies * 2
        assert geo.total_blocks == geo.total_planes * 2048

    def test_decompose_compose_roundtrip_examples(self):
        geo = small_geometry()
        for ppa in (0, 1, 17, geo.total_pages - 1):
            assert geo.compose(geo.decompose(ppa)) == ppa

    @given(st.integers(min_value=0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, raw):
        geo = small_geometry()
        ppa = raw % geo.total_pages
        assert geo.compose(geo.decompose(ppa)) == ppa

    def test_consecutive_ppas_stripe_channels(self):
        geo = small_geometry(channels=8)
        channels = [geo.decompose(ppa).channel for ppa in range(8)]
        assert channels == list(range(8))

    def test_out_of_range_ppa_rejected(self):
        geo = small_geometry()
        with pytest.raises(ValueError):
            geo.decompose(geo.total_pages)
        with pytest.raises(ValueError):
            geo.decompose(-1)

    def test_compose_validates_coordinates(self):
        geo = small_geometry()
        with pytest.raises(ValueError):
            geo.compose(PhysicalAddress(geo.channels, 0, 0, 0, 0, 0))

    def test_block_of_consistent_with_pages_of_block(self):
        geo = small_geometry()
        chip = FlashChip(geo)
        for block in (0, 3, geo.total_blocks - 1):
            for ppa in chip.pages_of_block(block):
                assert geo.block_of(ppa) == block

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            FlashGeometry(channels=0)


# Shapes for the table-driven address queries: the chaos device (12 blocks
# per plane, not a power of two), the test default, and Table 3's
# chips/dies/planes interleave at two channels with a small plane.
ADDRESS_SHAPES = {
    "chaos": CHAOS_GEOMETRY,
    "small": small_geometry(),
    "table3-2ch": FlashGeometry(channels=2, blocks_per_plane=4, pages_per_block=8),
}


@pytest.mark.parametrize("geo", ADDRESS_SHAPES.values(), ids=ADDRESS_SHAPES.keys())
class TestAddressQueries:
    """The per-page queries read interleave tables; decompose/compose spell
    the layout out field by field and are the oracle."""

    def test_every_ppa_matches_decompose(self, geo):
        got, want = [], []
        for ppa in range(geo.total_pages):
            a = geo.decompose(ppa)
            die = (a.channel * geo.chips_per_channel + a.chip) * geo.dies_per_chip + a.die
            plane = die * geo.planes_per_die + a.plane
            block = plane * geo.blocks_per_plane + a.block
            want.append((die, plane, block, (block, a.page)))
            got.append(
                (geo.die_index(ppa), geo.plane_index(ppa), geo.block_of(ppa),
                 geo.block_and_page(ppa))
            )
        assert got == want

    def test_every_block_base_matches_compose(self, geo):
        for block in range(geo.total_blocks):
            plane, block_in_plane = divmod(block, geo.blocks_per_plane)
            die, plane_in_die = divmod(plane, geo.planes_per_die)
            chip, die_in_chip = divmod(die, geo.dies_per_chip)
            channel, chip_in_channel = divmod(chip, geo.chips_per_channel)
            addr = PhysicalAddress(
                channel, chip_in_channel, die_in_chip, plane_in_die, block_in_plane, 0
            )
            assert geo.block_base(block) == geo.compose(addr)

    def test_out_of_range_is_refused(self, geo):
        queries = (geo.die_index, geo.plane_index, geo.block_of, geo.block_and_page)
        for ppa in (-1, geo.total_pages):
            for query in queries:
                with pytest.raises(ValueError):
                    query(ppa)
        for block in (-1, geo.total_blocks):
            with pytest.raises(ValueError):
                geo.block_base(block)


class TestChip:
    def make(self, store=False):
        geo = small_geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                             blocks_per_plane=4, pages_per_block=4)
        return geo, FlashChip(geo, store_data=store)

    def test_pages_start_free(self):
        _, chip = self.make()
        assert chip.page_state(0) is PageState.FREE

    def test_program_marks_valid(self):
        _, chip = self.make()
        block0_pages = chip.pages_of_block(0)
        chip.program(block0_pages[0])
        assert chip.page_state(block0_pages[0]) is PageState.VALID

    def test_cannot_reprogram_valid_page(self):
        _, chip = self.make()
        ppa = chip.pages_of_block(0)[0]
        chip.program(ppa)
        with pytest.raises(FlashProgramError):
            chip.program(ppa)

    def test_sequential_program_enforced(self):
        _, chip = self.make()
        pages = chip.pages_of_block(0)
        with pytest.raises(FlashProgramError):
            chip.program(pages[2])  # skipping pages 0 and 1

    def test_erase_frees_pages_and_ages_block(self):
        _, chip = self.make()
        pages = chip.pages_of_block(0)
        chip.program(pages[0])
        chip.erase(0)
        assert chip.page_state(pages[0]) is PageState.FREE
        assert chip.wear_of(0) == 1
        chip.program(pages[0])  # reprogram after erase is legal

    def test_invalidate_then_read_fails(self):
        _, chip = self.make()
        ppa = chip.pages_of_block(0)[0]
        chip.program(ppa)
        chip.invalidate(ppa)
        with pytest.raises(FlashProgramError):
            chip.read(ppa)

    def test_functional_store_roundtrip(self):
        _, chip = self.make(store=True)
        ppa = chip.pages_of_block(1)[0]
        chip.program(ppa, b"hello flash")
        assert chip.read(ppa) == b"hello flash"

    def test_functional_store_requires_data(self):
        _, chip = self.make(store=True)
        with pytest.raises(ValueError):
            chip.program(chip.pages_of_block(0)[0], None)

    def test_oversized_page_rejected(self):
        geo, chip = self.make(store=True)
        with pytest.raises(ValueError):
            chip.program(chip.pages_of_block(0)[0], b"x" * (geo.page_bytes + 1))

    def test_valid_page_count(self):
        _, chip = self.make()
        pages = chip.pages_of_block(0)
        chip.program(pages[0])
        chip.program(pages[1])
        chip.invalidate(pages[0])
        assert chip.valid_pages_in_block(0) == 1


class TestEcc:
    def test_rber_grows_with_wear(self):
        ecc = EccModel()
        assert ecc.rber(1000) > ecc.rber(0)

    def test_fresh_block_reads_clean(self):
        ecc = EccModel()
        for _ in range(50):
            assert ecc.check_read(wear=0) <= ecc.config.correctable_bits

    def test_extreme_wear_uncorrectable(self):
        ecc = EccModel(EccConfig(correctable_bits=4, base_rber=1e-5, wear_scale=100.0))
        with pytest.raises(EccUncorrectableError):
            for _ in range(100):
                ecc.check_read(wear=2000)

    def test_wear_limit_is_consistent(self):
        ecc = EccModel()
        limit = ecc.wear_limit()
        assert ecc.expected_errors(limit) == pytest.approx(
            ecc.config.correctable_bits, rel=0.05
        )

    def test_deterministic_given_seed(self):
        a = EccModel(seed=5)
        b = EccModel(seed=5)
        assert [a.sample_errors(5000) for _ in range(10)] == [
            b.sample_errors(5000) for _ in range(10)
        ]


class TestDeviceTiming:
    def make(self, channels=2, **kw):
        engine = Engine()
        geo = small_geometry(channels=channels, chips_per_channel=1, dies_per_chip=1,
                             planes_per_die=1, blocks_per_plane=8, pages_per_block=8)
        dev = FlashDevice(engine, geo, FlashTiming(**kw))
        return engine, geo, dev

    def test_single_read_latency(self):
        engine, geo, dev = self.make()
        done = []
        dev.read(0, on_done=lambda: done.append(engine.now))
        engine.run()
        expected = dev.timing.read_latency + dev.timing.transfer_time(geo.page_bytes)
        assert done == [pytest.approx(expected)]

    def test_reads_on_different_channels_overlap(self):
        engine, geo, dev = self.make(channels=2)
        done = []
        dev.read(0, on_done=lambda: done.append(engine.now))  # channel 0
        dev.read(1, on_done=lambda: done.append(engine.now))  # channel 1
        engine.run()
        expected = dev.timing.read_latency + dev.timing.transfer_time(geo.page_bytes)
        assert done[0] == pytest.approx(expected)
        assert done[1] == pytest.approx(expected)

    def test_reads_on_same_die_serialize(self):
        engine, geo, dev = self.make(channels=1)
        done = []
        # two pages on the same (only) die
        dev.read(0, on_done=lambda: done.append(engine.now))
        dev.read(1, on_done=lambda: done.append(engine.now))
        engine.run()
        t_rd = dev.timing.read_latency
        xfer = dev.timing.transfer_time(geo.page_bytes)
        assert done[0] == pytest.approx(t_rd + xfer)
        # second read senses only after the first releases the die
        assert done[1] == pytest.approx(2 * t_rd + xfer)

    def test_write_timing(self):
        engine, geo, dev = self.make()
        done = []
        dev.write(0, on_done=lambda: done.append(engine.now))
        engine.run()
        expected = dev.timing.transfer_time(geo.page_bytes) + dev.timing.program_latency
        assert done == [pytest.approx(expected)]

    def test_erase_timing(self):
        engine, _, dev = self.make()
        done = []
        dev.erase(0, on_done=lambda: done.append(engine.now))
        engine.run()
        assert done == [pytest.approx(dev.timing.erase_latency)]

    def test_channel_scaling_improves_throughput(self):
        """More channels => shorter makespan for a fixed page batch (Fig. 12)."""
        times = {}
        for channels in (1, 2, 4):
            engine, geo, dev = self.make(channels=channels)
            npages = 32
            dev.read_storm(range(npages), window=npages)
            times[channels] = engine.now
        assert times[4] < times[2] < times[1]

    def test_higher_read_latency_slows_batch(self):
        """Figure 14: flash latency sweeps shift the read-throughput bound."""
        def makespan(read_latency_us):
            engine, geo, dev = self.make(channels=2, read_latency=read_latency_us * 1e-6)
            dev.read_storm(range(32), window=32)
            return engine.now

        assert makespan(110) > makespan(10)


class TestReadStorm:
    def make(self, channels=4):
        engine = Engine()
        return engine, FlashDevice(engine, small_geometry(channels=channels), FlashTiming())

    def test_two_events_per_page(self):
        engine, dev = self.make()
        events = dev.read_storm(range(10))
        assert events == engine.events_fired == 20
        assert dev.page_reads == 10

    def test_empty_storm_is_a_noop(self):
        engine, dev = self.make()
        assert dev.read_storm([]) == 0
        assert engine.now == 0.0

    def test_window_below_one_rejected(self):
        _, dev = self.make()
        with pytest.raises(ValueError):
            dev.read_storm(range(4), window=0)
        with pytest.raises(ValueError):
            read_storm_time(dev.geometry, dev.timing, range(4), window=0)

    # after the first two, every (channels, t_RD) a paper-figures pass probes,
    # as the builders compute them: Figs. 12/13 sweep the channel count at
    # the default 50 us, Fig. 14 sweeps ``us * 1e-6`` at 8 channels
    @pytest.mark.parametrize(
        "channels,read_latency",
        [(4, 10e-6), (8, 110e-6)]
        + [(c, 50 * 1e-6) for c in (4, 8, 16, 32)]
        + [(8, us * 1e-6) for us in (10, 30, 70, 90, 110)],
    )
    def test_flash_read_throughput_is_a_read_storm(self, channels, read_latency):
        """The Fig. 12-14 probe equals pages*page_bytes/now of an explicit storm."""
        config = PlatformConfig(
            channels=channels, flash_timing=FlashTiming(read_latency=read_latency)
        )
        engine = Engine()
        geometry = small_geometry(
            channels=channels,
            chips_per_channel=4,
            dies_per_chip=4,
            planes_per_die=2,
            blocks_per_plane=4,
            pages_per_block=64,
        )
        dev = FlashDevice(engine, geometry, config.flash_timing)
        pages = min(FLASH_PROBE_PAGES, geometry.total_pages)
        dev.read_storm(range(pages), config.queue_depth_per_channel * channels)
        assert flash_read_throughput(config) == pages * geometry.page_bytes / engine.now

    @settings(max_examples=100, deadline=None)
    @given(
        channels=st.integers(1, 16),
        chips=st.integers(1, 4),
        dies=st.integers(1, 4),
        page_bytes=st.sampled_from([512, 2048, 4096, 16384]),
        read_us=st.floats(1.0, 200.0),
        bandwidth=st.floats(50e6, 2e9),
        window=st.integers(1, 200),
        data=st.data(),
    )
    def test_read_storm_time_equals_the_event_storm(
        self, channels, chips, dies, page_bytes, read_us, bandwidth, window, data
    ):
        """The event-free recurrence ends at the storm's ``engine.now``, bit for
        bit: in page order or scattered, and with windows past the die count,
        so dies and channels queue."""
        geometry = small_geometry(
            channels=channels,
            chips_per_channel=chips,
            dies_per_chip=dies,
            planes_per_die=1,
            blocks_per_plane=2,
            pages_per_block=64,
            page_bytes=page_bytes,
        )
        timing = FlashTiming(read_latency=read_us * 1e-6, channel_bandwidth=bandwidth)
        pages = data.draw(st.integers(0, min(400, geometry.total_pages)), label="pages")
        ppas = data.draw(
            st.one_of(
                st.just(list(range(pages))),
                st.lists(
                    st.integers(0, geometry.total_pages - 1), min_size=pages, max_size=pages
                ),
            ),
            label="ppas",
        )
        engine = Engine()
        FlashDevice(engine, geometry, timing).read_storm(ppas, window)
        assert read_storm_time(geometry, timing, ppas, window) == engine.now
