"""repro.search — adversarial scenario search over fault × workload × config.

The labs answer "does the stack survive *this* plan?"; this package asks
the adversarial question: *which* plan hurts the most? A seeded,
deterministic search walks the space of :class:`~repro.search.genome.Scenario`
genomes — fault-plan gene counts, YCSB mix weights and Zipf skew, stack
config knobs — evaluating each against a real campaign (chaos runner,
resilience/fleet/serve lab arm, crash-oracle round-trip) and scoring the
outcome with pluggable :mod:`~repro.search.objectives`. Hits are
delta-debugged to minimal repro genomes and persisted as a replayable,
content-fingerprinted ``search-corpus/v4`` file (``python -m repro search``).

Everything is a pure function of the campaign seed: one threaded
:class:`~repro.crypto.prng.XorShift64` drives every mutation and sample
(the ``det-unseeded-path`` lint rule enforces this), evaluations
are memoized by genome fingerprint, and the budget counts *simulated*
operations, never wall-clock — so two identical invocations produce
byte-identical corpora.
"""

from repro.search.adapters import Evaluation, evaluate_scenario
from repro.search.corpus import (
    ReplayReport,
    build_corpus,
    corpus_fingerprint,
    load_corpus,
    replay_corpus,
    replay_path,
    save_corpus,
)
from repro.search.engine import (
    ScoredScenario,
    SearchConfig,
    SearchEngine,
    SearchResult,
    run_search,
)
from repro.search.genome import (
    Scenario,
    TARGETS,
    crossover,
    default_scenario,
    mutate,
    random_scenario,
)
from repro.search.objectives import OBJECTIVES, Objective, score_evaluation
from repro.search.shrink import ShrinkResult, shrink

__all__ = [
    "Evaluation",
    "OBJECTIVES",
    "Objective",
    "ReplayReport",
    "Scenario",
    "ScoredScenario",
    "SearchConfig",
    "SearchEngine",
    "SearchResult",
    "ShrinkResult",
    "TARGETS",
    "build_corpus",
    "corpus_fingerprint",
    "crossover",
    "default_scenario",
    "evaluate_scenario",
    "load_corpus",
    "mutate",
    "random_scenario",
    "replay_corpus",
    "replay_path",
    "run_search",
    "save_corpus",
    "score_evaluation",
    "shrink",
]
