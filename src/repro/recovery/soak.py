"""Resumable soak campaigns: crash the host, keep the run.

``python -m repro soak <workload>`` drives a long chaos campaign that
checkpoints itself every ``checkpoint_every`` operations. If the host
process dies — OOM-killed, machine rebooted, or deliberately via
``--kill-at`` — rerunning the same command finds the newest valid snapshot
in the state directory, restores the whole stack from it and continues from
the last checkpoint; work since that checkpoint is recomputed, which is
safe because the campaign is a pure function of its seed. ``--verify``
additionally runs the same campaign uninterrupted in memory and requires
the two final fingerprints to be byte-identical — the soak-shaped version
of the crash-point oracle.

Snapshot files that fail their content fingerprint (a crash mid-write, a
corrupted disk) are skipped with a warning; the newest *valid* snapshot
wins. Completed campaigns are recorded in ``results.json`` so a multi-seed
soak resumed after a crash does not repeat finished seeds.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.chaos import ChaosRunner
from repro.faults.plan import FaultPlanConfig
from repro.recovery.checkpoint import (
    CHAOS_SNAPSHOT_KIND,
    restore_chaos_runner,
    snapshot_chaos_runner,
)
from repro.recovery.monitors import MonitorSuite
from repro.recovery.snapshot import Snapshot, SnapshotError, load_snapshot, save_snapshot
from repro.sim.stats import RecoveryStats

# EX_TEMPFAIL: the campaign is checkpointed, rerun the same command to resume
SOAK_KILLED_EXIT = 75

_SNAPSHOT_RE = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-op(?P<op>\d+)\.snap$")


@dataclass
class SoakResult:
    """Outcome of one completed soak campaign."""

    workload: str
    seed: int
    ops: int
    fingerprint: str
    resumed_from_op: Optional[int]
    invariant_violations: int
    verified: Optional[bool]  # None when --verify was not requested


def _snapshot_path(state_dir: str, workload: str, seed: int, op: int) -> str:
    return os.path.join(state_dir, f"{workload}-seed{seed}-op{op:06d}.snap")


def find_latest_snapshot(
    state_dir: str,
    workload: str,
    seed: int,
    ops: int,
    warn: Optional[Callable[[str], None]] = None,
) -> Optional[Tuple[str, Snapshot]]:
    """Newest snapshot in ``state_dir`` matching this campaign, if any.

    Files that fail to load (version mismatch, corrupt content fingerprint)
    or whose metadata names a different campaign are skipped — newest valid
    wins, which is exactly the guarantee a crash mid-checkpoint needs.
    """
    if not os.path.isdir(state_dir):
        return None
    candidates: List[Tuple[int, str]] = []
    for name in os.listdir(state_dir):
        match = _SNAPSHOT_RE.match(name)
        if match and match.group("workload") == workload and int(match.group("seed")) == seed:
            candidates.append((int(match.group("op")), os.path.join(state_dir, name)))
    for _op, path in sorted(candidates, reverse=True):
        try:
            snapshot = load_snapshot(path, expect_kind=CHAOS_SNAPSHOT_KIND)
        except SnapshotError as exc:
            if warn is not None:
                warn(f"skipping unusable snapshot {path}: {exc}")
            continue
        meta = snapshot.meta
        if meta.get("workload") == workload and meta.get("seed") == seed and meta.get("ops") == ops:
            return path, snapshot
        if warn is not None:
            warn(f"skipping snapshot {path}: metadata names a different campaign")
    return None


def run_soak(
    workload: str,
    write_ratio: float,
    seed: int,
    ops: int,
    state_dir: str,
    checkpoint_every: int = 200,
    kill_at: Optional[int] = None,
    monitors: bool = True,
    verify: bool = False,
    stats: Optional[RecoveryStats] = None,
    plan_config: Optional[FaultPlanConfig] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[int, Optional[SoakResult]]:
    """One resumable campaign; returns (exit_code, result-or-None).

    Exit codes: 0 success, 1 verification mismatch,
    :data:`SOAK_KILLED_EXIT` (75) when ``kill_at`` triggered the simulated
    host crash — the campaign is resumable by calling again.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    stats = stats if stats is not None else RecoveryStats()
    say = log if log is not None else (lambda _msg: None)
    os.makedirs(state_dir, exist_ok=True)

    resumed_from_op: Optional[int] = None
    latest = find_latest_snapshot(state_dir, workload, seed, ops, warn=say)
    if latest is not None:
        path, snapshot = latest
        runner = restore_chaos_runner(snapshot, plan_config=plan_config)
        stats.restores += 1
        resumed_from_op = runner.ops_executed
        say(f"resumed from {path} at op {resumed_from_op}/{ops}")
    else:
        runner = ChaosRunner(
            workload, write_ratio, seed=seed, ops=ops, plan_config=plan_config
        )
        say(f"fresh campaign: {workload} seed={seed} ops={ops}")

    if monitors:
        runner.arm_monitors(MonitorSuite(stats))

    while runner.ops_executed < ops:
        next_stop = min(ops, (runner.ops_executed // checkpoint_every + 1) * checkpoint_every)
        if kill_at is not None and runner.ops_executed < kill_at <= next_stop:
            # the simulated host crash: advance to the kill point and exit
            # WITHOUT checkpointing, so resume recomputes from the last one
            runner.run_until(kill_at)
            say(f"kill switch at op {runner.ops_executed}; no checkpoint written")
            return SOAK_KILLED_EXIT, None
        runner.run_until(next_stop)
        path = _snapshot_path(state_dir, workload, seed, runner.ops_executed)
        fingerprint = save_snapshot(snapshot_chaos_runner(runner), path)
        stats.snapshots_taken += 1
        say(f"checkpoint op {runner.ops_executed}/{ops} -> {path} [{fingerprint[:12]}]")

    report = runner.finalize()
    verified: Optional[bool] = None
    if verify:
        golden = ChaosRunner(
            workload, write_ratio, seed=seed, ops=ops, plan_config=plan_config
        ).run()
        verified = golden.fingerprint() == report.fingerprint()
        say(
            "verify vs uninterrupted run: "
            + ("byte-identical" if verified else "MISMATCH")
        )
    result = SoakResult(
        workload=workload,
        seed=seed,
        ops=ops,
        fingerprint=report.fingerprint(),
        resumed_from_op=resumed_from_op,
        invariant_violations=report.invariant_violations,
        verified=verified,
    )
    exit_code = 1 if verified is False else 0
    return exit_code, result


def _results_path(state_dir: str) -> str:
    return os.path.join(state_dir, "results.json")


def load_results(state_dir: str) -> Dict[str, str]:
    """seed (as str) -> final report fingerprint of each completed campaign."""
    path = _results_path(state_dir)
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    completed = payload.get("completed", {})
    return completed if isinstance(completed, dict) else {}


def _write_results(state_dir: str, completed: Dict[str, str]) -> None:
    path = _results_path(state_dir)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"completed": completed}, fh, indent=2, sort_keys=True)
    os.replace(tmp, path)


def run_soak_campaigns(
    workload: str,
    write_ratio: float,
    seed: int,
    ops: int,
    state_dir: str,
    campaigns: int = 1,
    checkpoint_every: int = 200,
    kill_at: Optional[int] = None,
    monitors: bool = True,
    verify: bool = False,
    stats: Optional[RecoveryStats] = None,
    plan_config: Optional[FaultPlanConfig] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[int, List[SoakResult]]:
    """Run ``campaigns`` consecutive seeds, skipping already-finished ones.

    ``results.json`` in the state directory records each completed seed's
    final report fingerprint; a rerun after a crash (or a kill) fast-skips
    those and resumes the interrupted campaign from its newest snapshot.
    ``kill_at`` applies to the first campaign that actually runs.
    """
    stats = stats if stats is not None else RecoveryStats()
    say = log if log is not None else (lambda _msg: None)
    os.makedirs(state_dir, exist_ok=True)
    completed = load_results(state_dir)
    results: List[SoakResult] = []
    for campaign_seed in range(seed, seed + campaigns):
        if str(campaign_seed) in completed:
            say(f"seed {campaign_seed} already completed; skipping")
            continue
        exit_code, result = run_soak(
            workload,
            write_ratio,
            campaign_seed,
            ops,
            state_dir,
            checkpoint_every=checkpoint_every,
            kill_at=kill_at,
            monitors=monitors,
            verify=verify,
            stats=stats,
            plan_config=plan_config,
            log=log,
        )
        if exit_code == SOAK_KILLED_EXIT:
            return exit_code, results
        kill_at = None  # the kill switch fires at most once per invocation
        if result is not None:
            results.append(result)
            completed[str(result.seed)] = result.fingerprint
            _write_results(state_dir, completed)
        if exit_code != 0:
            return exit_code, results
    return 0, results


def recovery_csv_rows(
    results: List[SoakResult], stats: RecoveryStats
) -> List[List[str]]:
    """CSV view of a soak's recovery counters (one row per campaign)."""
    counter_names = sorted(stats.as_dict())
    # chaos_violations is the harness's data-loss count; the `violations`
    # counter column is the invariant monitors' ledger — different things
    header = ["workload", "seed", "ops", "fingerprint", "chaos_violations"] + counter_names
    rows = [header]
    for result in results:
        rows.append(
            [
                result.workload,
                str(result.seed),
                str(result.ops),
                result.fingerprint[:16],
                str(result.invariant_violations),
            ]
            + [str(int(stats.as_dict()[name])) for name in counter_names]
        )
    return rows


__all__ = [
    "SOAK_KILLED_EXIT",
    "SoakResult",
    "find_latest_snapshot",
    "load_results",
    "recovery_csv_rows",
    "run_soak",
    "run_soak_campaigns",
]
