"""In-memory span tracer for the traced benchmark run.

The traced run wraps public methods at each layer boundary of `repro`: a
class attribute, or the module attribute its caller looks up at call time.
Nothing inside the program changes, and an untraced worker never imports
this module, so it installs no wrapper at all.

A span is ``(name, start, end, parent)`` in host seconds. Arguments and
return values are never stored; a few probes read counters off the wrapped
object (events fired, counter-cache hits) and add them to per-pass totals.
A span's *self* time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

# The Chrome trace holds one whole pass (a serve-lab pass has ~95k spans).
# Past this cap the per-pass totals stay exact but spans are not kept.
MAX_KEPT_SPANS = 200_000
ROOT = "bench.pass"

Probe = Tuple[Callable[[tuple], Any], Callable[[Callable, tuple, Any, Any], None]]


# -- probes: (before(args) -> state, after(add, args, state, result)) ---------------


def _mee_before(args):
    mee = args[0]
    return mee.stats.data_reads + mee.stats.data_writes, mee.cache.hits, mee.cache.misses


def _mee_after(add, args, state, _result):
    mee = args[0]
    lines, hits, misses = state
    add("core.mee.lines", mee.stats.data_reads + mee.stats.data_writes - lines)
    add("core.counter_hits", mee.cache.hits - hits)
    add("core.counter_misses", mee.cache.misses - misses)


def _engine_after(add, args, before, _result):
    add("sim.events", args[0].events_fired - before)


def _cancel_after(add, _args, _state, result):
    if result:
        add("sim.cancelled", 1)


def _sort_before(args):
    """Items about to be sorted, 0 on a cache hit, None when unknowable."""
    if len(args) != 2:
        return None
    tracker, kind = args
    cache = getattr(tracker, "_sorted_cache", None)
    by_kind = getattr(tracker, "_by_kind", None)
    if not isinstance(cache, dict) or not isinstance(by_kind, dict):
        return None
    return 0 if kind in cache else len(by_kind.get(kind, ())) or -1  # -1: empty sort


def _sort_after(add, _args, items, result):
    if items is None:  # tracker internals changed: count every call as a sort
        items = len(result)
    if items:
        add("platform.slo_sorts", 1)
        add("platform.slo_sorted_items", max(items, 0))


MEE_PROBE: Probe = (_mee_before, _mee_after)
ENGINE_PROBE: Probe = (lambda args: args[0].events_fired, _engine_after)
CANCEL_PROBE: Probe = (lambda args: None, _cancel_after)
SORT_PROBE: Probe = (_sort_before, _sort_after)

# "module:Owner.attribute" (or "module:attribute"), span name (None = count
# only), probe. Module attributes are patched where the caller looks them up.
BOUNDARIES: List[Tuple[str, Optional[str], Optional[Probe]]] = [
    ("repro.core.mee:MemoryEncryptionEngine.replay", "core.mee.replay", MEE_PROBE),
    ("repro.platform.schemes:HostPlatform.run", "platform.run", None),
    ("repro.platform.schemes:HostSgxPlatform.run", "platform.run", None),
    ("repro.platform.schemes:IscPlatform.run", "platform.run", None),
    ("repro.platform.schemes:IceClavePlatform.run", "platform.run", None),
    ("repro.platform.multitenant:MultiTenantIceClave.run", "platform.multitenant", None),
    ("repro.platform.schemes:flash_read_throughput", "flash.probe", None),
    ("repro.sim.engine:Engine.run", "sim.run", ENGINE_PROBE),
    ("repro.sim.engine:Engine.cancel", None, CANCEL_PROBE),
    ("repro.ftl.ftl:Ftl.write", "ftl.write", None),
    ("repro.ftl.ftl:Ftl.read", "ftl.read", None),
    ("repro.ftl.ftl:Ftl.recover_from_power_loss", "ftl.recover", None),
    ("repro.ftl.gc:GarbageCollector.collect_plane", "ftl.gc", None),
    ("repro.flash.chip:FlashChip.program", "flash.chip_program", None),
    ("repro.flash.chip:FlashChip.read", "flash.chip_read", None),
    ("repro.flash.chip:FlashChip.erase", "flash.chip_erase", None),
    ("repro.faults.injector:FaultInjector.fire", "faults.fire", None),
    ("repro.faults.recovery:EnclaveIntegrityGuard.read", "core.guard.read", None),
    ("repro.faults.recovery:EnclaveIntegrityGuard.write", "core.guard.write", None),
    ("repro.faults.recovery:EnclaveIntegrityGuard.sweep", "core.guard.sweep", None),
    ("repro.faults.recovery:EnclaveIntegrityGuard.restart", "core.guard.restart", None),
    ("repro.serve.lab:try_handshake", "serve.handshake", None),
    ("repro.serve.session:SecureChannel.seal", "serve.seal", None),
    ("repro.serve.session:SecureChannel.open", "serve.open", None),
    ("repro.crypto.mac:Mac.digest", "crypto.mac", None),
    ("repro.serve.service:OffloadService.handle", "serve.handle", None),
    ("repro.host.library:IceClaveLibrary.offload_code", "host.offload_code", None),
    ("repro.host.library:IceClaveLibrary.execute", "host.execute", None),
    ("repro.platform.metrics:SloBoard.record", "platform.slo_record", None),
    ("repro.fleet.router:ShardRouter.read", "fleet.read", None),
    ("repro.fleet.router:ShardRouter.write", "fleet.write", None),
    ("repro.platform.metrics:SloTracker.sorted_latencies", "platform.slo_sort", SORT_PROBE),
    ("repro.fleet.rebuild:RebuildManager.pump_rebuild", "fleet.rebuild.pump", None),
    ("repro.fleet.rebuild:RebuildManager.device_lost", "fleet.rebuild.device_lost", None),
    ("repro.fleet.rebuild:RebuildManager.replicas_dropped",
     "fleet.rebuild.replicas_dropped", None),
]


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _synth_owners() -> List[Any]:
    """Every class defining a workload's run() (TPC-H queries share one)."""
    from repro.workloads import ALL_WORKLOADS

    owners = {next(k for k in cls.__mro__ if "run" in vars(k)) for cls in ALL_WORKLOADS.values()}
    return sorted(owners, key=lambda k: k.__qualname__)


# -- per-layer metrics derived from one pass's span totals ---------------------------

SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "workloads.synth_s": ("workloads.synth",),
    "core.mee.replay_s": ("core.mee.replay",),
    "platform.run_s": ("platform.run",),
    "platform.multitenant_s": ("platform.multitenant",),
    "flash.probe_s": ("flash.probe",),
    "sim.run_s": ("sim.run",),
    "ftl.write_s": ("ftl.write",),
    "ftl.read_s": ("ftl.read",),
    "ftl.gc_s": ("ftl.gc",),
    "ftl.recover_s": ("ftl.recover",),
    "flash.chip_program_s": ("flash.chip_program",),
    "flash.chip_read_s": ("flash.chip_read",),
    "flash.chip_erase_s": ("flash.chip_erase",),
    "faults.fire_s": ("faults.fire",),
    "core.guard_s": (
        "core.guard.read", "core.guard.write", "core.guard.sweep", "core.guard.restart",
    ),
    "serve.handshake_s": ("serve.handshake",),
    "serve.seal_s": ("serve.seal",),
    "serve.open_s": ("serve.open",),
    "crypto.mac_s": ("crypto.mac",),
    "serve.handle_s": ("serve.handle",),
    "host.offload_s": ("host.offload_code", "host.execute"),
    "platform.slo_record_s": ("platform.slo_record",),
    "fleet.read_s": ("fleet.read",),
    "fleet.write_s": ("fleet.write",),
    "platform.slo_sort_s": ("platform.slo_sort",),
    "fleet.rebuild_s": (
        "fleet.rebuild.pump", "fleet.rebuild.device_lost", "fleet.rebuild.replicas_dropped",
    ),
}

CALLS: Dict[str, Tuple[str, ...]] = {
    "workloads.profiles": ("workloads.synth",),
    "core.mee.replays": ("core.mee.replay",),
    "platform.runs": ("platform.run",),
    "ftl.writes": ("ftl.write",),
    "ftl.reads": ("ftl.read",),
    "ftl.recoveries": ("ftl.recover",),
    "flash.chip_programs": ("flash.chip_program",),
    "flash.chip_reads": ("flash.chip_read",),
    "flash.chip_erases": ("flash.chip_erase",),
    "core.guard_restarts": ("core.guard.restart",),
    "serve.handshakes": ("serve.handshake",),
    "serve.envelopes": ("serve.seal",),
    "crypto.macs": ("crypto.mac",),
    "host.offloads": ("host.offload_code",),
    "fleet.reads": ("fleet.read",),
    "fleet.writes": ("fleet.write",),
}

PROBED = ("core.mee.lines", "sim.events", "sim.cancelled",
          "platform.slo_sorts", "platform.slo_sorted_items")


def layer_metrics(workload: str, totals: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from :meth:`Tracer.end_pass` output."""
    spans = totals["spans"]
    counters = totals["counters"]
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(spans[n][1] for n in names if n in spans)
    for metric, names in CALLS.items():
        out[metric] = sum(spans[n][0] for n in names if n in spans)
    for metric in PROBED:
        out[metric] = counters.get(metric, 0)
    hits = counters.get("core.counter_hits", 0)
    lookups = hits + counters.get("core.counter_misses", 0)
    out["core.counter_hit_rate"] = hits / lookups if lookups else 0.0
    wall = totals["wall_s"]
    out["trace.pass_wall_s"] = wall
    # time in the pass outside every wrapped boundary: on serve-lab, the
    # lab's own loop and asyncio
    out["serve.loop_self_s"] = totals["root_self_s"] if workload == "serve-lab" else 0.0
    out["platform.slo_sort_share_pct"] = out["platform.slo_sort_s"] / wall * 100.0
    return out


# -- the tracer ----------------------------------------------------------------------


class Tracer:
    """Records spans and per-pass totals for wrapped boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.dropped = 0
        self._keep = True  # spans are kept for the first pass only
        self._stack: List[List[Any]] = []  # [slot, name_id, start, child_s]
        self._self_s: List[float] = []
        self._calls: List[int] = []
        self._counters: Dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
            self._calls.append(0)
        return self._ids[name]

    def _add(self, counter: str, amount: float) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def _enter(self, name_id: int) -> None:
        slot = -1
        if self._keep:
            if len(self.spans) < MAX_KEPT_SPANS:
                slot = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
        self._stack.append([slot, name_id, clock(), 0.0])

    def _exit(self) -> float:
        end = clock()
        slot, name_id, start, child_s = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            frame[3] += duration
            parent = frame[0]
        self._self_s[name_id] += duration - child_s
        self._calls[name_id] += 1
        if slot >= 0:
            self.spans[slot] = (name_id, start, end, parent)
        return duration

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: Optional[str], probe: Optional[Probe]) -> None:
        original = vars(owner)[attr]
        name_id = None if name is None else self._name_id(name)
        before, after = probe if probe is not None else (None, None)
        enter, exit_, add = self._enter, self._exit, self._add

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            if name_id is None:
                result = original(*args, **kwargs)
            else:
                enter(name_id)
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_()
            if after is not None:
                after(add, args, state, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> List[str]:
        """Wrap every boundary; returns the ones this tree no longer has."""
        unavailable = []
        for target, name, probe in BOUNDARIES:
            try:
                owner, attr = _resolve(target)
                self.wrap(owner, attr, name, probe)
            except (ImportError, AttributeError, KeyError):
                unavailable.append(target)
        for owner in _synth_owners():
            self.wrap(owner, "run", "workloads.synth", None)
        return unavailable

    # -- passes -----------------------------------------------------------------

    def begin_pass(self) -> None:
        self._self_s = [0.0] * len(self.names)
        self._calls = [0] * len(self.names)
        self._counters = {}
        self._enter(self._name_id(ROOT))

    def end_pass(self) -> Dict[str, Any]:
        root = self._ids[ROOT]
        wall = self._exit()
        self._keep = False
        spans = {
            name: (self._calls[i], self._self_s[i])
            for i, name in enumerate(self.names)
            if self._calls[i] and i != root
        }
        return {
            "spans": spans,
            "counters": dict(self._counters),
            "wall_s": wall,
            "root_self_s": self._self_s[root],
        }

    def dump(self, path: str) -> None:
        """Write the kept spans (names, times and parents only)."""
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "dropped": self.dropped}, fh
            )


def chrome_trace(dump: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    """One :meth:`Tracer.dump` as a Chrome trace-event document (times in µs)."""
    # every kept span closed within the pass, so no slot is left empty
    spans = dump["spans"]
    origin = min((span[1] for span in spans), default=0.0)

    def us(seconds: float) -> float:
        return round(seconds * 1e6, 3)

    events = [
        {
            "name": dump["names"][name_id],
            "ph": "X",
            "ts": us(start - origin),
            "dur": us(end - start),
            "pid": 0,
            "tid": 0,
            "args": {
                "id": index,
                "parent": parent if parent >= 0 else None,
                "end": us(end - origin),
                "workload": workload,
            },
        }
        for index, (name_id, start, end, parent) in enumerate(spans)
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload, "seed": seed, "dropped_spans": dump["dropped"]},
    }
