"""Run results, comparison helpers, and SLO tracking.

:class:`SloTracker` is the service-level view of a run: request outcomes
and latencies bucketed into fixed sim-time windows, exact percentiles, and
an error budget against stated objectives. It is deliberately clock-free —
callers pass ``Engine.now`` — so two identical runs produce byte-identical
summaries, which is how the resilience CLI proves determinism.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.sim.state import Stateful
from repro.sim.stats import nearest_rank


@dataclass
class RunResult:
    """Outcome of running one workload on one platform.

    ``components`` holds the Figure 11 breakdown. Load and compute overlap
    in streaming platforms, so components need not sum to ``total_time``;
    ``exposed()`` gives the stacked view used for plotting.
    """

    workload: str
    scheme: str
    total_time: float
    components: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    # fault-injection/recovery counters (empty for fault-free runs); filled
    # by the chaos harness from sim.stats.ReliabilityStats.as_dict()
    reliability: Dict[str, float] = field(default_factory=dict)
    # checkpoint/restore + invariant-monitor counters (empty unless the run
    # went through repro.recovery); filled from sim.stats.RecoveryStats
    recovery: Dict[str, float] = field(default_factory=dict)

    def record_recovery(self, recovery_stats) -> None:
        """Attach a :class:`~repro.sim.stats.RecoveryStats` snapshot."""
        self.recovery = {k: float(v) for k, v in recovery_stats.as_dict().items()}

    @classmethod
    def from_chaos(cls, report) -> "RunResult":
        """Platform-layer view of a :class:`~repro.faults.chaos.ChaosReport`.

        Lives here (not on the report) so the fault harness never imports
        the platform layer; the report is duck-typed.
        """
        result = cls(
            workload=report.workload,
            scheme="chaos",
            total_time=max(report.reliability.get("added_latency_s", 0.0), 1e-12),
            stats={k: float(v) for k, v in report.ftl_counters.items()},
        )
        result.reliability = dict(report.reliability)
        return result

    def fingerprint(self) -> str:
        """Stable content hash: equal runs ⇒ equal hex digest.

        Floats are rendered with ``repr`` (shortest round-trip form), so
        serial and parallel executions of the same point hash identically
        only when every value is byte-identical — which is how the perf
        layer proves ``--jobs N`` changes nothing.
        """
        parts = [self.workload, self.scheme, repr(self.total_time)]
        for label, mapping in (
            ("components", self.components),
            ("stats", self.stats),
            ("reliability", self.reliability),
            ("recovery", self.recovery),
        ):
            for key in sorted(mapping):
                parts.append(f"{label}.{key}={mapping[key]!r}")
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other`` (>1 = faster)."""
        if self.total_time <= 0:
            raise ValueError("cannot compare a zero-time run")
        return other.total_time / self.total_time

    def overhead_over(self, other: "RunResult") -> float:
        """Fractional slowdown relative to ``other`` (0.076 = +7.6%)."""
        if other.total_time <= 0:
            raise ValueError("cannot compare against a zero-time run")
        return self.total_time / other.total_time - 1.0

    def exposed(self) -> Dict[str, float]:
        """Stacked breakdown scaled so the parts sum to total_time."""
        parts = {k: v for k, v in self.components.items() if v > 0}
        total = sum(parts.values())
        if total <= 0:
            return {"total": self.total_time}
        return {k: v * self.total_time / total for k, v in parts.items()}


@dataclass(frozen=True)
class SloObjectives:
    """What the service promises: availability and read-tail targets."""

    availability: float = 0.99  # completed-without-error fraction
    p99_read_s: float = 2e-3  # 99th percentile read latency

    def __post_init__(self) -> None:
        if not 0.0 < self.availability <= 1.0:
            raise ValueError("availability objective must lie in (0, 1]")
        if self.p99_read_s <= 0:
            raise ValueError("p99 objective must be positive")


class SloTracker(Stateful):
    """Windowed request-outcome and latency tracking over sim-time.

    ``record(now, kind, latency_s, ok)`` is called once per finished
    request (``kind`` is ``"read"``/``"write"``). Requests are bucketed into
    fixed ``window_s`` sim-time windows for burn-rate inspection; latencies
    are kept exactly so percentiles are exact, and *failed* requests count
    their observed latency too — a timeout is tail latency, not a no-op.

    Each kind's latencies are kept twice: in arrival order (``_by_kind``,
    what snapshots capture) and sorted as they arrive (``_sorted_cache``,
    derived). ``record`` costs O(log n) comparisons plus one list insert, so
    a percentile or hedge-quantile query is a lookup.
    """

    # objectives and window are constructor inputs; restore re-sorts the
    # derived ``_sorted_cache`` from ``_by_kind``
    STATE = ("total", "failures", "_by_kind", "_failures_by_kind", "_windows")

    def __init__(
        self,
        objectives: SloObjectives = SloObjectives(),
        window_s: float = 1e-3,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.objectives = objectives
        self.window_s = window_s
        self.total = 0
        self.failures = 0
        self._by_kind: Dict[str, List[float]] = {}
        self._failures_by_kind: Dict[str, int] = {}
        # window index -> [requests, failures]
        self._windows: Dict[int, List[int]] = {}
        # kind -> latencies in ascending order, kept up to date by record();
        # perfbench's sort probe reads this and _by_kind by name
        self._sorted_cache: Dict[str, List[float]] = {}

    # -- recording ------------------------------------------------------------

    def record(self, now: float, kind: str, latency_s: float, ok: bool = True) -> None:
        self.total += 1
        self._by_kind.setdefault(kind, []).append(latency_s)
        bisect.insort(self._sorted_cache.setdefault(kind, []), latency_s)
        window = self._windows.setdefault(int(now / self.window_s), [0, 0])
        window[0] += 1
        if not ok:
            self.failures += 1
            self._failures_by_kind[kind] = self._failures_by_kind.get(kind, 0) + 1
            window[1] += 1

    # -- queries --------------------------------------------------------------

    def availability(self) -> float:
        """Completed-without-error fraction over everything recorded."""
        if self.total == 0:
            return 1.0
        return (self.total - self.failures) / self.total

    def sorted_latencies(self, kind: str) -> List[float]:
        """Ascending latencies for ``kind``, maintained as samples arrive.

        Returns the tracker's live list (hedge policies poll it on every
        read), so later ``record`` calls show up in it. Callers must not
        mutate it.
        """
        return self._sorted_cache.setdefault(kind, [])

    def percentile(self, kind: str, pct: float) -> float:
        """Exact percentile of ``kind`` latencies; 0.0 with no samples."""
        return nearest_rank(self.sorted_latencies(kind), pct)

    def error_budget_remaining(self) -> float:
        """Fraction of the availability error budget still unspent.

        1.0 = untouched, 0.0 = exactly spent, negative = burned through.
        """
        if self.total == 0:
            return 1.0
        allowed = (1.0 - self.objectives.availability) * self.total
        if allowed <= 0:
            return 1.0 if self.failures == 0 else float("-inf")
        return (allowed - self.failures) / allowed

    def worst_window(self) -> Tuple[float, int, int]:
        """(start_time_s, requests, failures) of the worst sim-time window."""
        if not self._windows:
            return (0.0, 0, 0)
        idx, (requests, failures) = max(
            self._windows.items(), key=lambda kv: (kv[1][1], kv[1][0], -kv[0])
        )
        return (idx * self.window_s, requests, failures)

    def meets_objectives(self) -> bool:
        return (
            self.availability() >= self.objectives.availability
            and self.percentile("read", 99.0) <= self.objectives.p99_read_s
        )

    # -- checkpoint/restore ----------------------------------------------------

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Pour the declared state back, then re-sort the derived lists."""
        super().restore_state(state)
        self._sorted_cache = {kind: sorted(vals) for kind, vals in self._by_kind.items()}

    # -- reporting ------------------------------------------------------------

    def summary_lines(self) -> List[str]:
        """Deterministic text summary (equal runs ⇒ byte-equal lines)."""
        lines = [
            f"requests={self.total} failures={self.failures}"
            f" availability={self.availability() * 100:.4f}%",
        ]
        for kind in sorted(self._by_kind):
            failed = self._failures_by_kind.get(kind, 0)
            lines.append(
                f"{kind}: n={len(self._by_kind[kind])} failed={failed}"
                f" p50={self.percentile(kind, 50) * 1e6:.1f}us"
                f" p95={self.percentile(kind, 95) * 1e6:.1f}us"
                f" p99={self.percentile(kind, 99) * 1e6:.1f}us"
            )
        start, requests, failures = self.worst_window()
        lines.append(
            f"error budget remaining: {self.error_budget_remaining() * 100:.1f}%"
            f" (objective {self.objectives.availability * 100:.2f}%)"
        )
        lines.append(
            f"worst {self.window_s * 1e3:.1f}ms window: t={start * 1e3:.1f}ms"
            f" requests={requests} failures={failures}"
        )
        return lines

    def format(self) -> str:
        return "\n".join(self.summary_lines())


@dataclass(frozen=True)
class TenantSlo:
    """One tenant's SLO standing, as the serve-lab report consumes it.

    ``budget_burn`` is the fraction of the availability error budget the
    tenant has consumed: 0.0 = untouched, 1.0 = exactly spent, above 1.0 =
    burned through (it is ``1 - error_budget_remaining`` and can reach
    ``inf`` when the objective allows zero failures but some occurred).
    """

    tenant_id: int
    requests: int
    failures: int
    availability: float
    budget_burn: float
    p99_read_s: float

    def line(self) -> str:
        return (
            f"tenant={self.tenant_id} requests={self.requests}"
            f" failures={self.failures}"
            f" availability={self.availability * 100:.4f}%"
            f" budget_burn={self.budget_burn * 100:.1f}%"
            f" p99_read={self.p99_read_s * 1e6:.1f}us"
        )


class SloBoard:
    """Per-tenant :class:`SloTracker` registry with fleet aggregation.

    A multi-tenant service tracks the SLO per tenant — a fleet-wide 99.9%
    is no comfort to the one tenant burning its whole error budget. The
    board creates trackers on demand, aggregates fleet totals, and answers
    the on-call question directly: which tenants are worst off, ranked by
    error-budget burn. All orderings are deterministic (burn, then failure
    count, then tenant id) so reports fingerprint identically across runs.
    """

    def __init__(
        self,
        objectives: SloObjectives = SloObjectives(),
        window_s: float = 1e-3,
    ) -> None:
        self.objectives = objectives
        self.window_s = window_s
        self._trackers: Dict[int, SloTracker] = {}

    # -- recording ------------------------------------------------------------

    def tracker(self, tenant_id: int) -> SloTracker:
        if tenant_id not in self._trackers:
            self._trackers[tenant_id] = SloTracker(self.objectives, self.window_s)
        return self._trackers[tenant_id]

    def record(
        self, tenant_id: int, now: float, kind: str, latency_s: float, ok: bool = True
    ) -> None:
        self.tracker(tenant_id).record(now, kind, latency_s, ok=ok)

    # -- aggregation ----------------------------------------------------------

    @property
    def total(self) -> int:
        return sum(t.total for t in self._trackers.values())

    @property
    def failures(self) -> int:
        return sum(t.failures for t in self._trackers.values())

    def availability(self) -> float:
        total = self.total
        if total == 0:
            return 1.0
        return (total - self.failures) / total

    def tenant_ids(self) -> List[int]:
        return sorted(self._trackers)

    def tenant_slo(self, tenant_id: int) -> TenantSlo:
        tracker = self._trackers[tenant_id]
        return TenantSlo(
            tenant_id=tenant_id,
            requests=tracker.total,
            failures=tracker.failures,
            availability=tracker.availability(),
            budget_burn=1.0 - tracker.error_budget_remaining(),
            p99_read_s=tracker.percentile("read", 99.0),
        )

    def worst_tenants(self, k: int) -> List[TenantSlo]:
        """Top-``k`` tenants by error-budget burn (deterministic ties)."""
        if k < 1:
            raise ValueError("need k >= 1 worst tenants")
        slos = [self.tenant_slo(tid) for tid in self.tenant_ids()]
        slos.sort(key=lambda s: (-s.budget_burn, -s.failures, s.tenant_id))
        return slos[:k]

    def tenants_out_of_budget(self) -> int:
        """Tenants whose error budget is spent or burned through."""
        return sum(
            1 for tid in self.tenant_ids()
            if self.tenant_slo(tid).budget_burn >= 1.0
        )

    # -- reporting ------------------------------------------------------------

    def summary_lines(self, top_k: int = 5) -> List[str]:
        """Deterministic fleet summary (equal runs ⇒ byte-equal lines)."""
        lines = [
            f"tenants={len(self._trackers)} requests={self.total}"
            f" failures={self.failures}"
            f" availability={self.availability() * 100:.4f}%"
            f" out_of_budget={self.tenants_out_of_budget()}",
        ]
        if self._trackers:
            lines += [
                "worst: " + slo.line()
                for slo in self.worst_tenants(min(top_k, len(self._trackers)))
            ]
        return lines


def geometric_mean(values) -> float:
    vals = [v for v in values]
    if not vals:
        raise ValueError("no values")
    product = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= v
    return product ** (1.0 / len(vals))
