"""Seeded consistent-hash shard topology for a multi-SSD fleet.

Every device contributes ``vnodes`` points to one hash ring; a key's
replica set is the first ``replication`` *distinct, alive* devices walking
clockwise from the key's own ring point. Removing a device (chaos kill,
terminal quarantine) therefore moves only the keys it held — every other
key keeps its exact replica set, which is what bounds rebuild traffic to
the lost replicas.

Determinism: ring points and key points come from a seeded xorshift64*
mix, never from builtin ``hash()`` (whose value depends on
``PYTHONHASHSEED``) — the `fleet-unseeded-topology` lint rule pins this.
The whole topology is a pure function of (seed, device set), so snapshots
only need to record membership, not the ring itself.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from repro.crypto.prng import XorShift64
from repro.sim.state import Stateful

_RING_SALT = 0xF1EE7_0B1
_KEY_SALT = 0x5EED_4EA5


def seeded_mix(seed: int, a: int, b: int = 0) -> int:
    """Deterministic 64-bit mix of (seed, a, b) via one xorshift64* draw.

    The explicit-seed constructor is what makes this replayable; builtin
    ``hash()`` would fold in the per-process hash seed.
    """
    basis = (
        ((seed + 1) * 0x9E3779B97F4A7C15)
        ^ ((a + 1) * 0xC2B2AE3D27D4EB4F)
        ^ ((b + 1) * 0x165667B19E3779F9)
    )
    return XorShift64(basis or 1).next_u64()


class FleetTopology(Stateful):
    """Consistent-hash ring over the fleet's devices.

    ``device_ids`` fixes the ring for the life of the run; devices are
    marked dead rather than excised so a restored snapshot rebuilds the
    identical ring and only membership state varies.
    """

    STATE = ("_alive",)

    def __init__(
        self,
        seed: int,
        device_ids: Sequence[int],
        vnodes: int = 16,
        replication: int = 2,
    ) -> None:
        if not device_ids:
            raise ValueError("a fleet needs at least one device")
        if len(set(device_ids)) != len(device_ids):
            raise ValueError("device ids must be unique")
        if vnodes < 1:
            raise ValueError("need at least one vnode per device")
        if not 1 <= replication <= len(device_ids):
            raise ValueError("replication must lie in [1, len(devices)]")
        self.seed = seed
        self.vnodes = vnodes
        self.replication = replication
        self.device_ids = tuple(sorted(device_ids))
        self._alive: Dict[int, bool] = {d: True for d in self.device_ids}
        ring: List[Tuple[int, int]] = []
        for device_id in self.device_ids:
            for vnode in range(vnodes):
                ring.append((seeded_mix(seed ^ _RING_SALT, device_id, vnode), device_id))
        ring.sort()
        points = [point for point, _ in ring]
        # both are pure functions of (seed, device_ids): the constructor
        # rebuilds them on restore, so only membership is snapshotted
        self._ring = ring
        self._points = points

    # -- membership ------------------------------------------------------------

    def alive_devices(self) -> List[int]:
        return [d for d in self.device_ids if self._alive[d]]

    def mark_dead(self, device_id: int) -> bool:
        """Remove a device from placement; True when it was alive."""
        was_alive = self._alive[device_id]
        self._alive[device_id] = False
        return was_alive

    # -- placement -------------------------------------------------------------

    def key_point(self, key: int) -> int:
        return seeded_mix(self.seed ^ _KEY_SALT, key)

    def replicas_for(self, key: int, count: int = 0) -> List[int]:
        """First ``count`` distinct alive devices clockwise from the key.

        Defaults to the configured replication factor; returns fewer when
        the fleet has fewer alive devices (the caller decides whether that
        is an under-replication event or a refusal).
        """
        want = count or self.replication
        start = bisect.bisect_right(self._points, self.key_point(key))
        picked: List[int] = []
        for offset in range(len(self._ring)):
            _, device_id = self._ring[(start + offset) % len(self._ring)]
            if not self._alive[device_id] or device_id in picked:
                continue
            picked.append(device_id)
            if len(picked) == want:
                break
        return picked

    def primary_for(self, key: int) -> int:
        replicas = self.replicas_for(key, count=1)
        if not replicas:
            raise ValueError("no alive device to place the key on")
        return replicas[0]


__all__ = ["FleetTopology", "seeded_mix"]
