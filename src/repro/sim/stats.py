"""Lightweight statistics primitives shared by all simulators."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.state import Stateful


@dataclass
class ReliabilityStats(Stateful):
    """Counters for fault injection and recovery (:mod:`repro.faults`).

    ``faults_injected`` counts scheduled fault events that fired;
    ``errors_corrected`` counts raw bit errors the ECC fixed inline;
    ``faults_recovered`` counts faults that needed active recovery (read
    retry + remap, power-loss rebuild, tenant abort) but lost no committed
    data; ``faults_fatal`` counts unrecoverable data loss (hard
    uncorrectables, pages stranded on a failed die).
    """

    faults_injected: int = 0
    errors_corrected: int = 0
    faults_recovered: int = 0
    faults_fatal: int = 0
    read_retries: int = 0
    remaps: int = 0
    power_loss_recoveries: int = 0
    integrity_violations: int = 0
    tenant_aborts: int = 0
    dies_failed: int = 0
    recovery_integrity_failures: int = 0
    added_latency_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "ReliabilityStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0.0 if f.name == "added_latency_s" else 0)


@dataclass
class RecoveryStats:
    """Counters for the checkpoint/restore subsystem (:mod:`repro.recovery`).

    ``invariant_checks``/``violations`` count runtime invariant-monitor
    activity (Merkle-root consistency, mapping bijectivity, counter and
    sim-clock monotonicity); ``snapshots_taken``/``restores`` count
    checkpoint traffic; ``oracle_points_passed`` counts crash points where
    the differential oracle proved restore byte-identical.
    """

    invariant_checks: int = 0
    violations: int = 0
    snapshots_taken: int = 0
    restores: int = 0
    oracle_points_passed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "RecoveryStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class SearchStats:
    """Counters for the adversarial scenario search (:mod:`repro.search`).

    ``evaluations`` counts scenario executions (cache misses only);
    ``dedup_hits`` counts genomes the memo served without re-running;
    ``sim_ops_spent`` is the simulated-operation budget actually consumed;
    ``corpus_entries`` counts deduplicated scoring scenarios retained;
    ``shrink_evals`` counts evaluations spent inside the delta-debugging
    shrinker (budgeted separately from exploration).
    """

    evaluations: int = 0
    dedup_hits: int = 0
    sim_ops_spent: int = 0
    corpus_entries: int = 0
    shrink_evals: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SimBudget:
    """A wall-clock-free search budget denominated in simulated operations.

    Every scenario evaluation charges its simulated cost (operation or
    request count) here; exploration stops when the budget is spent. Being
    counted in simulated work — never wall time — keeps search runs exactly
    reproducible across machines of any speed.
    """

    __slots__ = ("total_ops", "spent_ops")

    def __init__(self, total_ops: int) -> None:
        if total_ops < 1:
            raise ValueError("search budget must be positive")
        self.total_ops = total_ops
        self.spent_ops = 0

    @property
    def exhausted(self) -> bool:
        return self.spent_ops >= self.total_ops

    def charge(self, ops: int) -> None:
        """Record ``ops`` simulated operations of work (post-paid: the
        evaluation that crosses the line still completes)."""
        if ops < 0:
            raise ValueError("cannot charge negative work")
        self.spent_ops += ops


# -- memoization surface -------------------------------------------------------
#
# Modules that wrap pure lookup helpers in functools.lru_cache register them
# here so profiling/bench tooling can surface hit rates without importing
# every subsystem (the registry is name -> zero-arg cache_info-like callable).
_MEMO_FUNCS: Dict[str, Callable[[], Any]] = {}


def register_memo(name: str, cached_func: Any) -> Any:
    """Register an ``lru_cache``-wrapped function for hit-rate reporting.

    Returns the function unchanged so it can be used as a decorator tail:
    ``helper = register_memo("area.cacti.engine_mm2", lru_cache(...)(helper))``.
    """
    _MEMO_FUNCS[name] = cached_func.cache_info
    return cached_func


def memo_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/size snapshot of every registered memoized helper."""
    out: Dict[str, Dict[str, int]] = {}
    for name in sorted(_MEMO_FUNCS):
        info = _MEMO_FUNCS[name]()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
        }
    return out


class Counter:
    """A named monotonically increasing counter.

    Hot paths should hold the Counter object itself (one registry lookup,
    then ``add`` per event) rather than calling ``registry.counter(name)``
    per event.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use two counters for deltas")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Exact nearest-rank ``pct`` percentile of ascending ``ordered``.

    ``pct`` is checked first, so an out-of-range percentile raises even with
    no samples; an empty ``ordered`` then yields 0.0.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


class Histogram:
    """Streaming histogram tracking count/mean/min/max/variance.

    Uses Welford's online algorithm so memory stays constant regardless of
    sample count; optional sample retention supports percentile queries in
    tests.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "_samples")

    def __init__(self, name: str, keep_samples: bool = False) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def record(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def total(self) -> float:
        return self._mean * self.count

    def percentile(self, pct: float) -> float:
        """Return an exact percentile; requires ``keep_samples=True``."""
        if self._samples is None:
            raise RuntimeError("histogram was created without keep_samples")
        value = nearest_rank(sorted(self._samples), pct)  # range error first
        if not self._samples:
            raise ValueError("no samples recorded")
        return value


class StatRegistry:
    """A flat namespace of counters and histograms for one simulated component."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str, keep_samples: bool = False) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, keep_samples=keep_samples)
        return self._histograms[name]

    def snapshot(self) -> Dict[str, float]:
        """Flatten all stats into a name→value dict (hist → mean)."""
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = float(counter.value)
        for name, hist in self._histograms.items():
            out[f"{name}.count"] = float(hist.count)
            out[f"{name}.mean"] = hist.mean
        return out

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        self._histograms.clear()
