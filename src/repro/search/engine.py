"""The search loop: seeded exploration → beam ascent → shrink.

One :class:`SearchEngine` run is a pure function of ``(seed, config)``:

1. **Seeding** — the default genome per target plus seeded random samples.
2. **Ascent** — repeat under the simulated-op budget: keep the top
   ``beam_width`` genomes by objective score, breed children by mutation
   and (same-target) crossover, evaluate the new ones.
3. **Shrink** — the best hits are delta-debugged to minimal repros
   (:mod:`repro.search.shrink`).

All randomness flows through one threaded
:class:`~repro.crypto.prng.XorShift64` — the ``det-unseeded-path``
lint rule keeps it that way — and every evaluation is memoized by genome
fingerprint, so duplicates cost nothing and two runs with the same seed
produce byte-identical corpora.

The budget is wall-clock-free: an evaluation charges its *simulated*
operation count (:class:`~repro.sim.stats.SimBudget`, post-paid, so the
final evaluation may overshoot). The ascent stops when the budget is
spent; the shrink phase is bounded by a per-entry evaluation cap instead,
and its ops are charged to the same ledger for accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.prng import XorShift64
from repro.search.adapters import Evaluation, evaluate_scenario
from repro.search.genome import (
    Scenario,
    TARGETS,
    crossover,
    default_scenario,
    mutate,
    random_scenario,
)
from repro.search.objectives import score_evaluation, total_score
from repro.search.shrink import ShrinkResult, shrink
from repro.sim.stats import SearchStats, SimBudget

DEFAULT_BUDGET_OPS = 20_000
DEFAULT_TARGETS: Tuple[str, ...] = ("chaos", "resilience")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search campaign (all deterministic)."""

    budget_ops: int = DEFAULT_BUDGET_OPS
    targets: Tuple[str, ...] = DEFAULT_TARGETS
    seeds_per_target: int = 3
    beam_width: int = 4
    children_per_round: int = 6
    crossover_per_round: int = 2
    shrink: bool = True
    shrink_top: int = 4
    max_shrink_evals: int = 48
    # backstop only: a round whose children all dedup charges nothing, so
    # budget exhaustion alone cannot bound a fully-converged search
    max_rounds: int = 256

    def __post_init__(self) -> None:
        unknown = sorted(set(self.targets) - set(TARGETS))
        if unknown:
            raise ValueError(f"unknown search targets: {', '.join(unknown)}")
        if not self.targets:
            raise ValueError("need at least one search target")


@dataclass(frozen=True)
class ScoredScenario:
    """A genome plus everything its evaluation yielded."""

    scenario: Scenario
    evaluation: Evaluation
    objectives: Dict[str, float]
    total: float

    @property
    def is_hit(self) -> bool:
        return self.total > 0.0

    def sort_key(self) -> Tuple[float, str]:
        # descending score, fingerprint as the deterministic tie-break
        return (-self.total, self.scenario.fingerprint())


@dataclass
class SearchResult:
    """Everything one campaign produced (the corpus serializes this)."""

    seed: int
    config: SearchConfig
    stats: SearchStats
    hits: List[ScoredScenario] = field(default_factory=list)
    minimal: Dict[str, ShrinkResult] = field(default_factory=dict)
    rounds: int = 0
    log: List[str] = field(default_factory=list)

    def primary_objective(self, hit: ScoredScenario) -> str:
        """The objective a hit is shrunk against (highest score wins)."""
        return min(hit.objectives, key=lambda name: (-hit.objectives[name], name))


class SearchEngine:
    """One deterministic campaign (see module docstring)."""

    def __init__(self, seed: int, config: Optional[SearchConfig] = None) -> None:
        self.seed = seed
        self.config = config or SearchConfig()
        self.rng = XorShift64(((seed + 1) << 3) ^ 0x5EA7C4)
        self.budget = SimBudget(self.config.budget_ops)
        self.stats = SearchStats()
        self._memo: Dict[str, ScoredScenario] = {}
        self._log: List[str] = []

    # -- evaluation (memoized, budget-charging) --------------------------------

    def evaluate(self, scenario: Scenario) -> ScoredScenario:
        fingerprint = scenario.fingerprint()
        cached = self._memo.get(fingerprint)
        if cached is not None:
            self.stats.dedup_hits += 1
            return cached
        evaluation = evaluate_scenario(scenario)
        self.budget.charge(evaluation.cost)
        self.stats.evaluations += 1
        self.stats.sim_ops_spent = self.budget.spent_ops
        objectives = score_evaluation(evaluation)
        scored = ScoredScenario(
            scenario=scenario,
            evaluation=evaluation,
            objectives=objectives,
            total=total_score(objectives),
        )
        self._memo[fingerprint] = scored
        return scored

    # -- phases ----------------------------------------------------------------

    def _seed_population(self) -> List[ScoredScenario]:
        population: List[ScoredScenario] = []
        for target in self.config.targets:
            if self.budget.exhausted:
                break
            population.append(self.evaluate(default_scenario(target)))
            for _ in range(self.config.seeds_per_target - 1):
                if self.budget.exhausted:
                    break
                population.append(self.evaluate(random_scenario(target, self.rng)))
        return population

    def _breed(self, beam: List[ScoredScenario]) -> List[Scenario]:
        children: List[Scenario] = []
        parents = [entry.scenario for entry in beam]
        for _ in range(self.config.children_per_round):
            parent = parents[self.rng.next_below(len(parents))]
            children.append(mutate(parent, self.rng))
        for _ in range(self.config.crossover_per_round):
            a = parents[self.rng.next_below(len(parents))]
            mates = [p for p in parents if p.target == a.target]
            b = mates[self.rng.next_below(len(mates))]
            children.append(mutate(crossover(a, b, self.rng), self.rng))
        return children

    def _ascend(self, population: List[ScoredScenario]) -> int:
        rounds = 0
        while not self.budget.exhausted and rounds < self.config.max_rounds:
            rounds += 1
            beam = sorted(population, key=ScoredScenario.sort_key)
            beam = beam[: self.config.beam_width]
            for child in self._breed(beam):
                if self.budget.exhausted:
                    break
                population.append(self.evaluate(child))
        return rounds

    def _shrink_hits(self, result: SearchResult) -> None:
        for hit in result.hits[: self.config.shrink_top]:
            objective = result.primary_objective(hit)
            before = self.stats.evaluations
            shrunk = shrink(
                hit.scenario,
                objective,
                lambda s: self.evaluate(s).evaluation,
                max_evals=self.config.max_shrink_evals,
            )
            self.stats.shrink_evals += self.stats.evaluations - before
            result.minimal[hit.scenario.fingerprint()] = shrunk
            self._log.append(
                f"shrunk {hit.scenario.fingerprint()[:12]} -> "
                f"{shrunk.scenario.fingerprint()[:12]} "
                f"({objective}={shrunk.score:g}, {len(shrunk.steps)} steps)"
            )

    # -- the campaign ----------------------------------------------------------

    def run(self) -> SearchResult:
        population = self._seed_population()
        rounds = self._ascend(population)
        hits = sorted(
            (entry for entry in self._memo.values() if entry.is_hit),
            key=ScoredScenario.sort_key,
        )
        self.stats.corpus_entries = len(hits)
        self._log.append(
            f"searched {self.stats.evaluations} evaluations"
            f" ({self.stats.dedup_hits} deduped) across {rounds} rounds,"
            f" {self.budget.spent_ops}/{self.budget.total_ops} sim-ops,"
            f" {len(hits)} hits"
        )
        result = SearchResult(
            seed=self.seed,
            config=self.config,
            stats=self.stats,
            hits=hits,
            rounds=rounds,
            log=self._log,
        )
        if self.config.shrink and hits:
            self._shrink_hits(result)
        return result


def run_search(seed: int, config: Optional[SearchConfig] = None) -> SearchResult:
    """Run one campaign start to finish (pure function of its arguments)."""
    return SearchEngine(seed, config).run()


__all__ = [
    "DEFAULT_BUDGET_OPS",
    "DEFAULT_TARGETS",
    "ScoredScenario",
    "SearchConfig",
    "SearchEngine",
    "SearchResult",
    "run_search",
]
