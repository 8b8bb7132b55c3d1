"""The four execution schemes of §6.1: Host, Host+SGX, ISC, IceClave.

Timing model
------------

*Host / Host+SGX* stream the dataset over PCIe and then process it with
host cores; Figure 11 presents these phases stacked, so ``total = load +
compute``. Host+SGX additionally pays the SGX cost model.

*ISC / IceClave* stream flash pages through the in-storage pipeline:
channel-parallel flash reads overlap with compute on the controller cores,
so ``total = max(load, compute) + pipeline_exposure * min(load, compute)``.
Flash load throughput is *measured* as the clock at the end of a windowed
read storm over a page batch, computed by the exact die/channel FIFO
recurrence ``repro.flash.ssd.read_storm_time`` (cached per configuration).
IceClave adds the security machinery on top:

- address translation against the cached mapping table (protected region)
  — misses pay a world switch plus the translation-page fetch; the
  Figure 5 counterfactual instead pays batched world switches for every
  translation round trip;
- the MEE — the workload's sampled DRAM trace is replayed through
  :class:`MemoryEncryptionEngine`, whose measured per-access latency and
  extra traffic inflate memory stall time;
- stream cipher — 64 keystream bits/cycle covers a page about 5× faster
  than its channel transfer, so deciphering pipelines away (its latency is
  reported in stats, not charged);
- TEE lifecycle (Table 5 constants).
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.config import MIB, IceClaveConfig
from repro.core.mee import EncryptionScheme, MemoryEncryptionEngine
from repro.flash.geometry import small_geometry
from repro.flash.ssd import read_storm_time
from repro.ftl.mapping_cache import MappingCache
from repro.platform.config import MAPPING_IN_SECURE, PlatformConfig
from repro.platform.metrics import RunResult
from repro.sim.stats import register_memo
from repro.query.trace import subsample_events

if TYPE_CHECKING:
    from repro.workloads.base import WorkloadProfile

# Fraction of the dataset each workload actively re-references (hash
# tables, hot tuples); drives the Figure 16 DRAM-capacity sensitivity.
WORKING_SET_FRACTION: Dict[str, float] = {
    "arithmetic": 0.068,
    "aggregate": 0.068,
    "filter": 0.068,
    "tpch-q1": 0.070,
    "tpch-q3": 0.085,
    "tpch-q12": 0.075,
    "tpch-q14": 0.075,
    "tpch-q19": 0.075,
    "tpcb": 0.095,
    "tpcc": 0.100,
    "wordcount": 0.085,
}
DEFAULT_WORKING_FRACTION = 0.08
SPILL_REUSE_PASSES = 10  # hot working data is re-touched many times once spilled
FIRMWARE_RESERVED_BYTES = 256 * MIB  # FTL metadata etc. in plain ISC
FLASH_PROBE_PAGES = 4096  # pages one flash_read_throughput probe reads

_throughput_cache: Dict[Tuple, float] = {}

_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")


class _BoundedMemo:
    """A small LRU memo with an ``lru_cache``-compatible ``cache_info``.

    Values may be keyed partly on ``id(obj)``; each entry therefore stores a
    strong reference to the keyed object so the id cannot be recycled while
    the entry lives.
    """

    def __init__(self, name: str, maxsize: int = 64) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, Tuple[Any, Any]]" = OrderedDict()
        register_memo(name, self)

    def get(self, key: Tuple) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry[1]

    def put(self, key: Tuple, pinned: Any, value: Any) -> None:
        self._entries[key] = (pinned, value)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._entries))


# MEE replay is the single most expensive piece of an IceClave run, and a
# figure sweep replays the same trace under the same config many times.
_mee_overhead_memo = _BoundedMemo("platform.mee_overhead")
# The IceClaveConfig fields the replay reads, besides the tree depths
# (``MemoryEncryptionEngine.tree_depths``): counter-cache geometry, AES
# latency and the minor-counter width. The memo key names each of them.
MEE_REPLAY_FIELDS = ("counter_cache_bytes", "cache_line_bytes", "aes_delay", "minor_counter_bits")


def flash_read_throughput(config: PlatformConfig) -> float:
    """Sustained internal read bandwidth of a windowed read storm.

    Reads are issued with a bounded in-flight window (``queue_depth``), the
    way a real controller pipeline does: at low flash latency the channel
    bandwidth bounds throughput, at high latency the window does — which is
    the crossover Figure 14 sweeps across. The storm's clock comes from
    :func:`read_storm_time`, which equals ``FlashDevice.read_storm`` on the
    event engine bit for bit.
    """
    timing = config.flash_timing
    key = (
        config.channels,
        timing.read_latency,
        timing.channel_bandwidth,
        config.queue_depth_per_channel,
    )
    if key not in _throughput_cache:
        geometry = small_geometry(
            channels=config.channels,
            chips_per_channel=4,
            dies_per_chip=4,
            planes_per_die=2,
            blocks_per_plane=4,
            pages_per_block=64,
        )
        pages = min(FLASH_PROBE_PAGES, geometry.total_pages)
        window = config.queue_depth_per_channel * config.channels
        clock = read_storm_time(geometry, timing, range(pages), window)
        _throughput_cache[key] = pages * geometry.page_bytes / clock
    return _throughput_cache[key]


class BasePlatform:
    """Shared scaffolding for the four schemes."""

    name = "base"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        self.config = config or PlatformConfig()

    def run(self, profile: WorkloadProfile) -> RunResult:
        raise NotImplementedError

    def _scale(self, profile: WorkloadProfile) -> WorkloadProfile:
        return profile.scaled(self.config.dataset_bytes)

    @staticmethod
    def _working_fraction(name: str) -> float:
        return WORKING_SET_FRACTION.get(name, DEFAULT_WORKING_FRACTION)


class HostPlatform(BasePlatform):
    """Load everything over PCIe, compute on the host CPU."""

    name = "host"

    def run(self, profile: WorkloadProfile) -> RunResult:
        p = self._scale(profile)
        load = self._load_time(p)
        compute = self._compute_time(p)
        return RunResult(
            workload=p.name,
            scheme=self.name,
            total_time=load + compute,
            components={"load": load, "compute": compute},
        )

    def _load_time(self, p: WorkloadProfile) -> float:
        # the SSD can only push what its flash array sustains, and the link
        # can only carry what PCIe sustains
        bandwidth = min(
            self.config.pcie.effective_bandwidth, flash_read_throughput(self.config)
        )
        return p.input_bytes / bandwidth

    def _compute_time(self, p: WorkloadProfile, extra_memory_latency: float = 0.0) -> float:
        cores = self.config.host_cores
        return self.config.host_core.compute_time(
            instructions=p.instructions / cores,
            memory_accesses=p.dram_accesses / cores,
            memory_miss_rate=1.0,  # the counts are already DRAM-level
            extra_memory_latency_s=extra_memory_latency,
        )


class HostSgxPlatform(HostPlatform):
    """Host baseline with the queries running inside an SGX enclave."""

    name = "host+sgx"

    def run(self, profile: WorkloadProfile) -> RunResult:
        p = self._scale(profile)
        load = self._load_time(p)
        base_compute = self._compute_time(p)
        working = int(self._working_fraction(p.name) * self.config.dataset_bytes)
        compute = self.config.sgx.compute_time(
            base_compute_time=base_compute,
            streamed_bytes=p.input_bytes,
            working_set_bytes=min(working, 2 * self.config.sgx.epc_bytes),
            cpu_frequency_hz=self.config.host_core.frequency_hz,
        )
        return RunResult(
            workload=p.name,
            scheme=self.name,
            total_time=load + compute,
            components={"load": load, "compute": compute},
            stats={"sgx_compute_inflation": compute / base_compute if base_compute else 1.0},
        )


class IscPlatform(BasePlatform):
    """In-storage computing without any security isolation."""

    name = "isc"

    def run(self, profile: WorkloadProfile) -> RunResult:
        p = self._scale(profile)
        load = self._load_time(p)
        compute = self._compute_time(p)
        spill = self._spill_time(p)
        total = self._pipeline(load, compute) + spill
        return RunResult(
            workload=p.name,
            scheme=self.name,
            total_time=total,
            components={"load": load + spill, "compute": compute},
            stats={"internal_bandwidth": flash_read_throughput(self.config)},
        )

    # -- pieces shared with IceClave ------------------------------------------

    def _pipeline(self, load: float, compute: float) -> float:
        exposure = self.config.pipeline_exposure
        return max(load, compute) + exposure * min(load, compute)

    def _load_time(self, p: WorkloadProfile) -> float:
        return p.input_bytes / flash_read_throughput(self.config)

    def _spill_time(self, p: WorkloadProfile) -> float:
        """Figure 16: demand re-fetches of spilled working data stall the
        pipeline (they are random accesses, not prefetchable streams)."""
        return self._spill_bytes(p) / flash_read_throughput(self.config)

    def _spill_bytes(self, p: WorkloadProfile) -> float:
        """Figure 16: working data beyond SSD DRAM is re-fetched from flash."""
        working = self._working_fraction(p.name) * self.config.dataset_bytes
        available = self._available_dram()
        spill = max(0.0, working - available)
        return spill * SPILL_REUSE_PASSES

    def _available_dram(self) -> float:
        return self.config.iceclave.dram_bytes - FIRMWARE_RESERVED_BYTES

    def _compute_time(self, p: WorkloadProfile, extra_memory_latency: float = 0.0) -> float:
        cores = self.config.isc_cores
        return self.config.isc_core.compute_time(
            instructions=p.instructions / cores,
            memory_accesses=p.dram_accesses / cores,
            memory_miss_rate=1.0,
            extra_memory_latency_s=extra_memory_latency,
        )


class IceClavePlatform(IscPlatform):
    """ISC plus the full IceClave protection machinery."""

    name = "iceclave"

    def run(self, profile: WorkloadProfile) -> RunResult:
        p = self._scale(profile)
        load = self._load_time(p)
        compute = self._compute_time(p)

        translation, translation_stats = self._translation_time(p)
        mee_extra_latency, mee_stats = self._mee_overhead(profile)
        compute_secured = self._compute_time(p, extra_memory_latency=mee_extra_latency)
        mee_time = compute_secured - compute
        lifecycle = self.config.iceclave.tee_create_time + self.config.iceclave.tee_delete_time

        # security costs are additive: world switches synchronously pause
        # the TEE, and the MEE's metadata traffic shares the DRAM bus with
        # the flash DMA stream, so neither hides behind the pipeline
        security = translation + mee_time + lifecycle
        spill = self._spill_time(p)
        total = self._pipeline(load, compute) + spill + security
        stats = {
            "cipher_page_latency": self.config.iceclave.cipher_page_latency(),
            "mee_extra_latency": mee_extra_latency,
            **translation_stats,
            **mee_stats,
        }
        return RunResult(
            workload=p.name,
            scheme=self.name,
            total_time=total,
            components={
                "load": load + spill,
                "compute": compute,
                "security": security,
            },
            stats=stats,
        )

    # -- address translation (§4.2, Figures 5 and 9) ---------------------------

    def _translation_time(self, p: WorkloadProfile) -> Tuple[float, Dict[str, float]]:
        cfg = self.config.iceclave
        pages = max(1, p.input_bytes // cfg.page_bytes)
        cache = MappingCache(cfg.protected_region_bytes, cfg.page_bytes)
        if self.config.mapping_table_location == MAPPING_IN_SECURE:
            # every translation batch is a secure-world round trip
            batch = self.config.secure_world_translation_batch
            round_trips = math.ceil(pages / batch)
            time = round_trips * 2 * cfg.context_switch_time
            return time, {
                "translation_round_trips": float(round_trips),
                "translation_miss_rate": 1.0,
            }
        # protected region: only translation-page misses leave the normal
        # world; a sequential scan misses once per covered span. The FTL's
        # fetch of the translation page from flash overlaps with the data
        # stream (it is one extra page among the 512 it maps), so only the
        # world-switch pair lands on the critical path.
        misses = math.ceil(pages / cache.entries_per_page)
        time = misses * 2 * cfg.context_switch_time
        return time, {
            "translation_misses": float(misses),
            "translation_miss_rate": misses / pages,
        }

    # -- MEE overhead (§4.4) ------------------------------------------------------

    def _mee_overhead(self, profile: WorkloadProfile) -> Tuple[float, Dict[str, float]]:
        """Replay the sampled trace; return per-access extra latency + stats.

        The replay is pure in its inputs, so what it measures is memoized on
        exactly what it reads: the trace (scaled profiles share the same
        events list), the sample limit, the scheme, the DRAM latency, the
        ``MEE_REPLAY_FIELDS`` of ``IceClaveConfig`` and the two Merkle tree
        depths. ``dram_bytes`` and ``page_bytes`` reach the replay only
        through those depths, so Figure 16's 2 GiB point (depths 7 and 6,
        as at 4 GiB) shares the 4 GiB replay. ``mee_latency_exposure``
        only weighs the measured hit-path latency afterwards, so runs that
        differ in it share a replay too.
        """
        raw_events = profile.trace.events
        iceclave = self.config.iceclave
        dram_latency = self.config.isc_core.dram_latency_s
        key = (
            id(raw_events),
            len(raw_events),
            self.config.mee_sample_limit,
            self.config.mee_scheme,
            tuple(getattr(iceclave, name) for name in MEE_REPLAY_FIELDS),
            MemoryEncryptionEngine.tree_depths(iceclave),
            dram_latency,
        )
        measured = _mee_overhead_memo.get(key)
        if measured is None:
            events = subsample_events(raw_events, self.config.mee_sample_limit)
            measured = _replay_mee(events, iceclave, self.config.mee_scheme, dram_latency)
            _mee_overhead_memo.put(key, raw_events, measured)
        access_overhead, hit_path, extra_traffic, stats = measured
        # serialized miss paths, the escaped fraction of hit-path latency,
        # and bandwidth pressure from the extra metadata traffic
        extra_latency = (
            access_overhead
            + self.config.mee_latency_exposure * hit_path
            + extra_traffic * dram_latency
        )
        return extra_latency, dict(stats)


def _replay_mee(
    events: "List[Tuple[int, int, bool, bool]]",
    iceclave: IceClaveConfig,
    scheme: EncryptionScheme,
    dram_latency: float,
) -> Tuple[float, float, float, Dict[str, float]]:
    """What one MEE replay of ``events`` measures: mean critical-path
    overhead, hit-path latency, extra traffic and the stats dict."""
    mee = MemoryEncryptionEngine(config=iceclave, scheme=scheme, dram_latency=dram_latency)
    mee.replay(events)
    stats = {
        "mee_encryption_traffic": mee.stats.encryption_extra_traffic(),
        "mee_verification_traffic": mee.stats.verification_extra_traffic(),
        "mee_mean_encryption_latency": mee.stats.mean_encryption_latency(),
        "mee_mean_verification_latency": mee.stats.mean_verification_latency(),
        "mee_counter_hit_rate": mee.cache.hit_rate,
    }
    hit_path = stats["mee_mean_encryption_latency"] + stats["mee_mean_verification_latency"]
    extra_traffic = stats["mee_encryption_traffic"] + stats["mee_verification_traffic"]
    return mee.mean_access_overhead(), hit_path, extra_traffic, stats


SCHEMES = {
    HostPlatform.name: HostPlatform,
    HostSgxPlatform.name: HostSgxPlatform,
    IscPlatform.name: IscPlatform,
    IceClavePlatform.name: IceClavePlatform,
}


def make_platform(scheme: str, config: Optional[PlatformConfig] = None) -> BasePlatform:
    """Factory over the §6.1 scheme names."""
    try:
        cls = SCHEMES[scheme]
    except KeyError:
        known = ", ".join(sorted(SCHEMES))
        raise KeyError(f"unknown scheme '{scheme}'; known: {known}") from None
    return cls(config)
