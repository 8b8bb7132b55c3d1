"""Crash-point differential oracle: prove restore is byte-identical.

For each seed the oracle runs one *golden* uninterrupted campaign and
records its report fingerprint. Then, for every crash point T in a sweep,
it runs a fresh campaign to T, checkpoints it, round-trips the checkpoint
through disk (so serialization itself is under test), hard-kills the live
runner by discarding it, restores a brand-new runner from the file, runs it
to completion and demands the final fingerprint equal the golden one —
byte-identical, event log and all. Any state a component forgot to
serialize, any RNG draw that happens in a different order, any derived
structure rebuilt wrong shows up as a mismatch at some crash point.

The oracle also proves the *negative* path: a snapshot file with one
flipped byte must be rejected by the content fingerprint before any state
reaches the simulator.

:func:`sweep` does this for any runner with ``run()`` and ``run_until(op)``
plus snapshot/restore functions; an optional cut predicate tags crash
points that land in an interesting state (the fleet tags mid-rebuild cuts).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.faults.chaos import ChaosRunner
from repro.faults.plan import FaultPlanConfig
from repro.recovery.checkpoint import (
    CHAOS_SNAPSHOT_KIND,
    restore_chaos_runner,
    snapshot_chaos_runner,
)
from repro.recovery.snapshot import (
    Snapshot,
    SnapshotCorruptError,
    load_snapshot,
    save_snapshot,
)
from repro.sim.stats import RecoveryStats


@dataclass(frozen=True)
class OraclePoint:
    """One crash point's verdict."""

    seed: int
    crash_op: int
    matched: bool
    golden_fingerprint: str
    resumed_fingerprint: str
    tagged: bool = False  # the sweep's cut predicate held at the crash point


@dataclass
class OracleReport:
    """Outcome of a full crash-point sweep (``label`` names its cut predicate)."""

    subject: str
    scope: str
    label: Optional[str] = None
    points: List[OraclePoint] = field(default_factory=list)
    corruption_rejected: bool = False

    @property
    def passed(self) -> int:
        return sum(1 for p in self.points if p.matched)

    @property
    def failed(self) -> int:
        return len(self.points) - self.passed

    @property
    def tagged_points(self) -> int:
        return sum(1 for p in self.points if p.tagged)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0 and self.corruption_rejected and bool(self.points)

    def format(self) -> str:
        seeds = sorted({p.seed for p in self.points})
        lines = [
            f"{self.subject}: {len(self.points)} crash points over "
            f"{len(seeds)} seeds, {self.scope}",
            f"  byte-identical  : {self.passed}/{len(self.points)}",
        ]
        if self.label is not None:
            lines.append(f"  {self.label} cuts: {self.tagged_points}")
        verdict = "rejected (content fingerprint)" if self.corruption_rejected else "NOT REJECTED"
        lines.append(f"  corrupt snapshot: {verdict}")
        for point in self.points:
            if not point.matched:
                lines.append(
                    f"  MISMATCH seed={point.seed} crash_op={point.crash_op}: "
                    f"{point.resumed_fingerprint[:16]} != {point.golden_fingerprint[:16]}"
                )
        return "\n".join(lines)


def crash_points(ops: int, count: int) -> List[int]:
    """``count`` evenly spaced interior operation indices in (0, ops)."""
    if ops < 2 or count < 1:
        raise ValueError("need ops >= 2 and count >= 1")
    step = ops / (count + 1)
    return sorted({min(ops - 1, max(1, round(step * (i + 1)))) for i in range(count)})


def _probe_corruption(path: str, kind: str) -> bool:
    """Flip one byte of a saved snapshot; loading must refuse it."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01
    corrupt_path = path + ".corrupt"
    with open(corrupt_path, "wb") as fh:
        fh.write(bytes(blob))
    try:
        load_snapshot(corrupt_path, expect_kind=kind)
    except SnapshotCorruptError:
        return True
    finally:
        os.unlink(corrupt_path)
    return False


def sweep(
    build: Callable[[int], Any],
    snapshot: Callable[[Any], Snapshot],
    restore: Callable[[Snapshot], Any],
    kind: str,
    *,
    subject: str,
    scope: str,
    ops: int,
    base_seed: int,
    seeds: int,
    points: int,
    cut: Optional[Callable[[Any], bool]] = None,
    label: Optional[str] = None,
    stats: Optional[RecoveryStats] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> OracleReport:
    """Sweep ``points`` crash points across ``seeds`` consecutive seeds."""
    report = OracleReport(subject=subject, scope=scope, label=label)
    stats = stats if stats is not None else RecoveryStats()
    cuts = crash_points(ops, points)
    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        for seed in range(base_seed, base_seed + seeds):
            golden_fp = build(seed).run().fingerprint()
            for crash_op in cuts:
                runner = build(seed)
                runner.run_until(crash_op)
                tagged = cut is not None and cut(runner)
                path = os.path.join(tmp, f"seed{seed}-op{crash_op}.snap")
                save_snapshot(snapshot(runner), path)
                stats.snapshots_taken += 1
                del runner  # the hard kill: only the file survives
                loaded = load_snapshot(path, expect_kind=kind)
                if not report.corruption_rejected:
                    report.corruption_rejected = _probe_corruption(path, kind)
                resumed = restore(loaded)
                stats.restores += 1
                resumed_fp = resumed.run().fingerprint()
                matched = resumed_fp == golden_fp
                if matched:
                    stats.oracle_points_passed += 1
                report.points.append(
                    OraclePoint(
                        seed=seed,
                        crash_op=crash_op,
                        matched=matched,
                        golden_fingerprint=golden_fp,
                        resumed_fingerprint=resumed_fp,
                        tagged=tagged,
                    )
                )
                if progress is not None:
                    status = "ok" if matched else "MISMATCH"
                    tag = f" {label}" if tagged else ""
                    progress(f"seed={seed} crash_op={crash_op}{tag}: {status}")
    return report


def run_oracle(
    workload: str,
    write_ratio: float,
    base_seed: int = 42,
    seeds: int = 3,
    points: int = 9,
    ops: int = 1200,
    plan_config: Optional[FaultPlanConfig] = None,
    stats: Optional[RecoveryStats] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> OracleReport:
    """The crash-point sweep over a workload-shaped chaos campaign."""
    return sweep(
        lambda seed: ChaosRunner(
            workload, write_ratio, seed=seed, ops=ops, plan_config=plan_config
        ),
        snapshot_chaos_runner,
        lambda loaded: restore_chaos_runner(loaded, plan_config=plan_config),
        CHAOS_SNAPSHOT_KIND,
        subject=f"oracle {workload}",
        scope=f"{ops} ops each",
        ops=ops,
        base_seed=base_seed,
        seeds=seeds,
        points=points,
        stats=stats,
        progress=progress,
    )


__all__ = ["OraclePoint", "OracleReport", "crash_points", "run_oracle", "sweep"]
