"""Fleet-level checkpoints: one snapshot for the whole shard fabric.

A fleet checkpoint composes every stateful participant — sim engine,
topology membership, each device's store and RNG, breaker board, SLO
tracker, router counters/digest, rebuild ledger, workload RNG — into one
:class:`~repro.recovery.snapshot.Snapshot`. Restore rebuilds a fresh
:class:`~repro.fleet.lab.FleetRunner` from the snapshot's primitive meta
(re-running constructors, which regenerates the ring and fault plan as
pure functions of the seed) and overlays the saved state.

Checkpoints are only valid between requests: the runner asserts the engine
is quiescent after every step, so between-steps is always a safe cut.

:func:`run_fleet_oracle` runs the `repro.recovery` crash-point sweep over
these checkpoints and counts the crash points that land mid-rebuild.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.fleet.lab import FleetRunner
from repro.recovery.oracle import OracleReport, sweep
from repro.recovery.snapshot import Snapshot, SnapshotError
from repro.sim.stats import RecoveryStats

FLEET_SNAPSHOT_KIND = "fleet-run"


def snapshot_fleet_runner(runner: FleetRunner) -> Snapshot:
    """Capture a quiescent fleet runner as a versioned snapshot."""
    meta = {
        "seed": runner.seed,
        "requests": runner.requests,
        "devices": runner.device_count,
        "replication": runner.replication,
        "hedge": runner.hedge_enabled,
        "working_set": runner.working_set,
        "write_fraction": runner.write_fraction,
        "write_quorum": runner.write_quorum,
        "rebuild_batch": runner.rebuild_batch,
        "vnodes": runner.vnodes,
        "device_kills": runner.device_kills,
        "die_quarantines": runner.die_quarantines,
        "op_index": runner.op_index,
    }
    return Snapshot(
        kind=FLEET_SNAPSHOT_KIND, meta=meta, state=runner.snapshot_state()
    )


def restore_fleet_runner(snapshot: Snapshot) -> FleetRunner:
    """Rebuild a runner from a snapshot (constructors first, then state).

    The ring, fault plan, and device RNG streams are pure functions of the
    meta fields, so only membership and mutable state are overlaid.
    """
    if snapshot.kind != FLEET_SNAPSHOT_KIND:
        raise SnapshotError(
            f"expected a {FLEET_SNAPSHOT_KIND!r} snapshot, got {snapshot.kind!r}"
        )
    meta = snapshot.meta
    runner = FleetRunner(
        meta["seed"],
        meta["requests"],
        devices=meta["devices"],
        replication=meta["replication"],
        hedge=meta["hedge"],
        working_set=meta["working_set"],
        write_fraction=meta["write_fraction"],
        write_quorum=meta["write_quorum"],
        rebuild_batch=meta["rebuild_batch"],
        vnodes=meta["vnodes"],
        device_kills=meta["device_kills"],
        die_quarantines=meta["die_quarantines"],
    )
    runner.restore_state(snapshot.state)
    return runner


def run_fleet_oracle(
    base_seed: int = 42,
    seeds: int = 2,
    points: int = 7,
    requests: int = 400,
    devices: int = 6,
    replication: int = 2,
    stats: Optional[RecoveryStats] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> OracleReport:
    """The crash-point sweep over a replication-on fleet, tagging mid-rebuild cuts."""
    return sweep(
        # rebuild_batch=1 keeps the repair queue populated for many requests
        # after a device kill, so a healthy sweep reliably cuts mid-rebuild
        lambda seed: FleetRunner(
            seed,
            requests,
            devices=devices,
            replication=replication,
            hedge=True,
            working_set=min(48, requests),
            rebuild_batch=1,
        ),
        snapshot_fleet_runner,
        restore_fleet_runner,
        FLEET_SNAPSHOT_KIND,
        subject="fleet oracle",
        scope=f"{requests} requests, {devices} devices, replication={replication}",
        ops=requests,
        base_seed=base_seed,
        seeds=seeds,
        points=points,
        cut=lambda runner: runner.rebuild.pending > 0,
        label="mid-rebuild",
        stats=stats,
        progress=progress,
    )


__all__ = [
    "FLEET_SNAPSHOT_KIND",
    "restore_fleet_runner",
    "run_fleet_oracle",
    "snapshot_fleet_runner",
]
