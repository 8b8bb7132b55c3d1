"""Campaign adapters: evaluate one scenario genome against a real stack.

Each ``eval_*`` function is a pure function of its :class:`Scenario` — it
builds the corresponding harness (chaos runner, resilience/fleet/serve lab
arm, crash-oracle round-trip), runs it to completion, and condenses the
outcome into an :class:`Evaluation`: a flat ``signals`` dict the objectives
score, a simulated-operation ``cost`` the budget charges, and a sha256
``run_fingerprint`` that replay compares byte-for-byte. It is the report's
own :meth:`~repro.sim.state.Record.fingerprint`; the oracle target hashes
its two reports' fingerprints together.

The genome's workload dimension lands where each stack can express it: the
YCSB mix weights set the write fraction of the chaos/resilience streams
(via :func:`repro.workloads.ycsb.mix_write_fraction`); the Zipf skew rides
along in the genome for standalone ``ycsb`` runs and replay identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.faults.chaos import ChaosReport, ChaosRunner
from repro.faults.plan import FaultPlanConfig
from repro.fleet.lab import WORKING_SET, FleetRunner
from repro.recovery.checkpoint import restore_chaos_runner, snapshot_chaos_runner
from repro.recovery.monitors import MonitorSuite
from repro.resilience.lab import LabConfig, run_resilience_arm
from repro.search.genome import Scenario
from repro.serve.lab import run_serve_lab
from repro.sim.state import canonical_fingerprint
from repro.workloads.ycsb import DEFAULT_MIX, mix_write_fraction

# SLO the damage objectives are judged against (matches the labs' 99%
# availability objective): the error budget is the 1% of requests allowed
# to fail, and "burn" is failures as a multiple of that budget
SLO_AVAILABILITY = 0.99


@dataclass(frozen=True)
class Evaluation:
    """What running one scenario produced, reduced to scoreable primitives."""

    target: str
    cost: int  # simulated operations charged against the search budget
    signals: Dict[str, float] = field(default_factory=dict)
    run_fingerprint: str = ""

    def signal(self, name: str) -> float:
        return float(self.signals.get(name, 0.0))


def _genome_mix(scenario: Scenario) -> Dict[str, float]:
    return {
        op: float(scenario.workload.get(op, weight))
        for op, weight in sorted(DEFAULT_MIX.items())
    }


def _error_budget_burn(failures: float, requests: float) -> float:
    allowed = max(1.0, (1.0 - SLO_AVAILABILITY) * requests)
    return failures / allowed


def _chaos_runner(scenario: Scenario) -> ChaosRunner:
    return ChaosRunner(
        str(scenario.workload.get("kind", "ycsb")),
        mix_write_fraction(_genome_mix(scenario)),
        seed=scenario.seed,
        ops=scenario.ops,
        plan_config=scenario.plan_config(),
    )


def _chaos_signals(report: ChaosReport, suite: MonitorSuite) -> Dict[str, float]:
    rel = report.reliability
    signals = {
        "invariant_violations": float(report.invariant_violations),
        "monitor_violations": float(len(suite.records)),
        "faults_injected": float(rel.get("faults_injected", 0)),
        "faults_fatal": float(rel.get("faults_fatal", 0)),
        "integrity_violations": float(rel.get("integrity_violations", 0)),
        "pages_lost": float(sum(report.nvme_statuses.values())),
    }
    for monitor, count in sorted(suite.violation_counts().items()):
        signals[f"monitor.{monitor}"] = float(count)
    return signals


def eval_chaos(scenario: Scenario) -> Evaluation:
    """Chaos target: data survival under the genome's fault plan.

    Monitors are armed in collect mode, so monitor violations become
    signals while the run keeps the fingerprint of an unarmed one.
    """
    runner = _chaos_runner(scenario)
    suite = MonitorSuite(raise_on_violation=False)
    runner.arm_monitors(suite)
    report = runner.run()
    return Evaluation(
        target=scenario.target,
        cost=scenario.ops,
        signals=_chaos_signals(report, suite),
        run_fingerprint=report.fingerprint(),
    )


def eval_oracle(scenario: Scenario) -> Evaluation:
    """Oracle target: does a checkpoint/restore round-trip diverge?

    Runs the scenario straight through, then again with a snapshot/restore
    cut at ``config.cut_fraction`` of the run. Any fingerprint difference
    is a determinism bug in the recovery path — the strongest signal the
    search can find. Costs two full runs.
    """
    full = _chaos_runner(scenario)
    suite = MonitorSuite(raise_on_violation=False)
    full.arm_monitors(suite)
    full_report = full.run()

    cut_fraction = float(scenario.config.get("cut_fraction", 0.5))
    cut_at = max(1, min(scenario.ops - 1, int(scenario.ops * cut_fraction)))
    first = _chaos_runner(scenario)
    first.run_until(cut_at)
    snapshot = snapshot_chaos_runner(first)
    resumed = restore_chaos_runner(snapshot, plan_config=scenario.plan_config())
    resumed.run_until(scenario.ops)
    resumed_report = resumed.finalize()

    diverged = full_report.fingerprint() != resumed_report.fingerprint()
    signals = _chaos_signals(full_report, suite)
    signals["divergence"] = 1.0 if diverged else 0.0
    # the resumed run has no monitors armed, so drop the monitor-sourced
    # signals from the comparison surface and fingerprint both reports
    return Evaluation(
        target=scenario.target,
        cost=2 * scenario.ops,
        signals=signals,
        run_fingerprint=canonical_fingerprint(
            [full_report.fingerprint(), resumed_report.fingerprint()]
        ),
    )


def _slo_signals(arm: Any) -> Dict[str, float]:
    """The SLO signals every lab arm (resilience, serve or fleet) carries."""
    return {
        "availability": arm.availability,
        "failures": float(arm.failures),
        "requests": float(arm.requests),
        "error_budget_burn": _error_budget_burn(arm.failures, arm.requests),
        "p99_read_s": arm.p99_read_s,
    }


def eval_resilience(scenario: Scenario) -> Evaluation:
    """Resilience target: SLO damage to a single lab arm.

    ``config.policies`` selects the arm; the policies-off arm is the PR 1
    world and the default search prey — the genome hunts the fault mix
    that burns the most error budget.
    """
    cfg = LabConfig(
        channels=int(scenario.config.get("channels", 4)),
        ops=scenario.ops,
        working_set=int(scenario.config.get("working_set", 128)),
        write_fraction=mix_write_fraction(_genome_mix(scenario)),
    )
    report = run_resilience_arm(
        scenario.seed,
        scenario.ops,
        policies=bool(scenario.config.get("policies", False)),
        config=cfg,
        plan_config=scenario.plan_config(),
    )
    return Evaluation(
        target=scenario.target,
        cost=scenario.ops,
        signals=_slo_signals(report),
        run_fingerprint=report.fingerprint(),
    )


def eval_fleet(scenario: Scenario) -> Evaluation:
    """Fleet target: durability damage (lost keys, replication exposure)."""
    devices = int(scenario.config.get("devices", 6))
    report = FleetRunner(
        scenario.seed,
        scenario.ops,
        devices=devices,
        replication=min(devices, int(scenario.config.get("replication", 1))),
        hedge=bool(scenario.config.get("hedge", False)),
        working_set=min(WORKING_SET, scenario.ops),
        device_kills=int(scenario.config.get("device_kills", 1)),
        die_quarantines=int(scenario.faults.get("uncorrectable_pages", 2)),
    ).run()
    signals = _slo_signals(report)
    signals.update(
        keys_lost=float(report.keys_lost),
        lost=float(report.lost),
        corrupt=float(report.corrupt),
        under_replicated_key_seconds=report.under_replicated_key_seconds,
        devices_lost=float(report.devices_lost),
    )
    return Evaluation(
        target=scenario.target,
        cost=scenario.ops,
        signals=signals,
        run_fingerprint=report.fingerprint(),
    )


def eval_serve(scenario: Scenario) -> Evaluation:
    """Serve target: SLO damage to the policies-off arm of the serve lab.

    The lab always runs both arms, so the evaluation costs 2x the genome's
    ops; the attested arm's availability is kept as a secondary signal.
    """
    report = run_serve_lab(
        seed=scenario.seed,
        tenants=int(scenario.config.get("tenants", 50)),
        requests=scenario.ops,
        process=str(scenario.config.get("process", "poisson")),
        chaos=True,
        plan_config=scenario.plan_config(),
    )
    signals = _slo_signals(report.baseline)
    signals["attested_availability"] = report.attested.availability
    return Evaluation(
        target=scenario.target,
        cost=2 * scenario.ops,
        signals=signals,
        run_fingerprint=report.fingerprint(),
    )


ADAPTERS: Dict[str, Callable[[Scenario], Evaluation]] = {
    "chaos": eval_chaos,
    "oracle": eval_oracle,
    "resilience": eval_resilience,
    "fleet": eval_fleet,
    "serve": eval_serve,
}


def evaluate_scenario(scenario: Scenario) -> Evaluation:
    """Dispatch a genome to its target's adapter (pure; no budget here)."""
    return ADAPTERS[scenario.target](scenario)


__all__ = [
    "ADAPTERS",
    "Evaluation",
    "SLO_AVAILABILITY",
    "eval_chaos",
    "eval_fleet",
    "eval_oracle",
    "eval_resilience",
    "eval_serve",
    "evaluate_scenario",
]
