"""repro.fleet — sharded multi-SSD scale-out with k-way replication.

N simulated SSD devices behind a seeded consistent-hash shard router:
reads hedge across replicas (`repro.resilience` policy), per-device
circuit breakers feed replica selection, and a die quarantine or
whole-device kill triggers rebalance plus background rebuild of lost
replicas from survivors. Fleet checkpoints extend the `repro.recovery`
crash oracle to the whole fabric; the lab proves replication-on strictly
beats replication-off on availability and read tail under device chaos.
"""

from repro.fleet.checkpoint import (
    FLEET_SNAPSHOT_KIND,
    restore_fleet_runner,
    run_fleet_oracle,
    snapshot_fleet_runner,
)
from repro.fleet.device import DeviceConfig, DeviceResult, FleetDevice
from repro.fleet.lab import (
    FleetArmReport,
    FleetChaosConfig,
    FleetReport,
    FleetRunner,
    run_fleet,
)
from repro.fleet.rebuild import RebuildManager
from repro.fleet.router import (
    FleetRefusal,
    ReadOutcome,
    ShardRouter,
    WriteOutcome,
)
from repro.fleet.topology import FleetTopology, seeded_mix

__all__ = [
    "DeviceConfig",
    "DeviceResult",
    "FLEET_SNAPSHOT_KIND",
    "FleetArmReport",
    "FleetChaosConfig",
    "FleetDevice",
    "FleetRefusal",
    "FleetReport",
    "FleetRunner",
    "FleetTopology",
    "ReadOutcome",
    "RebuildManager",
    "ShardRouter",
    "WriteOutcome",
    "restore_fleet_runner",
    "run_fleet",
    "run_fleet_oracle",
    "seeded_mix",
    "snapshot_fleet_runner",
]
