"""Scenario genomes: the fault × workload × config search space.

A :class:`Scenario` is a plain-primitive genome describing one adversarial
experiment against an existing stack:

- ``target`` — which stack evaluates it (``chaos``, ``oracle``,
  ``resilience``, ``fleet``, ``serve``);
- ``seed``/``ops`` — the run seed and the simulated-operation count (which
  is also the evaluation's budget cost);
- ``faults`` — :class:`~repro.faults.plan.FaultPlanConfig` gene counts;
- ``workload`` — YCSB-style mix weights and Zipf skew
  (:mod:`repro.workloads.ycsb`), shaping the I/O stream;
- ``config`` — per-target stack knobs (policies on/off, channel count,
  replication factor, ...).

Everything round-trips through canonical JSON and is content-fingerprinted,
so corpora deduplicate by genome identity and replay exactly. All mutation
and crossover draws come from the caller's threaded seeded PRNG — the
``det-unseeded-path`` lint rule enforces that no operator here
creates its own entropy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, Union

from repro.crypto.prng import XorShift64
from repro.faults.plan import FaultPlanConfig
from repro.workloads.ycsb import DEFAULT_MIX, DEFAULT_ZIPF_THETA

GeneValue = Union[bool, int, float, str]

TARGETS: Tuple[str, ...] = ("chaos", "fleet", "oracle", "resilience", "serve")

FAULT_GENES: Tuple[str, ...] = tuple(sorted(FaultPlanConfig().as_dict()))

# the canonical workload dimension (YCSB mix + skew)
DEFAULT_WORKLOAD: Dict[str, GeneValue] = {
    "kind": "ycsb",
    **{op: weight for op, weight in sorted(DEFAULT_MIX.items())},
    "zipf": DEFAULT_ZIPF_THETA,
}
WORKLOAD_WEIGHT_GENES: Tuple[str, ...] = tuple(sorted(DEFAULT_MIX))

# simulated-operation bounds per target: floors keep a run meaningful (the
# chaos harness needs committed state before the fault window; a lab arm
# needs enough requests to show damage), ceilings bound evaluation cost
MIN_OPS: Dict[str, int] = {
    "chaos": 120,
    "oracle": 120,
    "resilience": 50,
    "fleet": 40,
    "serve": 120,
}
MAX_OPS: Dict[str, int] = {
    "chaos": 1600,
    "oracle": 900,
    "resilience": 1200,
    "fleet": 600,
    "serve": 800,
}
DEFAULT_OPS: Dict[str, int] = {
    "chaos": 600,
    "oracle": 400,
    "resilience": 400,
    "fleet": 200,
    "serve": 300,
}

# per-target config genes: default value + the seeded sampler mutation uses
_CONFIG_SAMPLERS: Dict[str, Dict[str, Tuple[GeneValue, Callable[[XorShift64], GeneValue]]]] = {
    "chaos": {},
    "oracle": {
        # where the kill lands, as a fraction of the run (snap to op index)
        "cut_fraction": (0.5, lambda rng: 0.1 + 0.8 * rng.next_float()),
    },
    "resilience": {
        "policies": (False, lambda rng: rng.next_below(2) == 1),
        "channels": (4, lambda rng: 2 + int(rng.next_below(7))),
        "working_set": (128, lambda rng: 32 << int(rng.next_below(4))),
    },
    "fleet": {
        "devices": (6, lambda rng: 3 + int(rng.next_below(6))),
        "replication": (1, lambda rng: 1 + int(rng.next_below(3))),
        "hedge": (False, lambda rng: rng.next_below(2) == 1),
        "device_kills": (1, lambda rng: int(rng.next_below(3))),
    },
    "serve": {
        "tenants": (50, lambda rng: 25 * (1 + int(rng.next_below(6)))),
        "process": ("poisson", lambda rng: ("poisson", "bursty")[rng.next_below(2)]),
    },
}

_SEED_SPACE = 1 << 16


def default_config(target: str) -> Dict[str, GeneValue]:
    return {name: spec[0] for name, spec in sorted(_CONFIG_SAMPLERS[target].items())}


def _canonical(value: object) -> object:
    """Normalize a gene tree for hashing/JSON (sorted keys, plain types)."""
    if isinstance(value, dict):
        return {str(k): _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return value  # keep floats as floats; json repr is canonical enough
    return value


@dataclass(frozen=True)
class Scenario:
    """One point of the fault × workload × config space (plain primitives)."""

    target: str
    seed: int
    ops: int
    faults: Dict[str, int] = field(default_factory=dict)
    workload: Dict[str, GeneValue] = field(default_factory=dict)
    config: Dict[str, GeneValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r} (known: {TARGETS})")
        if not MIN_OPS[self.target] <= self.ops <= MAX_OPS[self.target]:
            raise ValueError(
                f"{self.target} ops {self.ops} outside "
                f"[{MIN_OPS[self.target]}, {MAX_OPS[self.target]}]"
            )
        FaultPlanConfig.from_dict(self.faults)  # validates gene names/values

    # -- encoding --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "seed": self.seed,
            "ops": self.ops,
            "faults": {k: int(v) for k, v in sorted(self.faults.items())},
            "workload": dict(sorted(self.workload.items())),
            "config": dict(sorted(self.config.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        return cls(
            target=str(data["target"]),
            seed=int(data["seed"]),  # type: ignore[call-overload]
            ops=int(data["ops"]),  # type: ignore[call-overload]
            faults=dict(data.get("faults", {})),  # type: ignore[arg-type]
            workload=dict(data.get("workload", {})),  # type: ignore[arg-type]
            config=dict(data.get("config", {})),  # type: ignore[arg-type]
        )

    def canonical_json(self) -> str:
        return json.dumps(
            _canonical(self.to_dict()), sort_keys=True, separators=(",", ":")
        )

    def fingerprint(self) -> str:
        """Content identity: equal genomes ⇔ equal fingerprints."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def plan_config(self) -> FaultPlanConfig:
        return FaultPlanConfig.from_dict(self.faults)

    def describe(self) -> str:
        active = ", ".join(
            f"{k}={v}" for k, v in sorted(self.faults.items()) if v
        ) or "no faults"
        return (
            f"{self.target} seed={self.seed} ops={self.ops} [{active}] "
            f"cfg={dict(sorted(self.config.items()))}"
        )


def default_scenario(target: str) -> Scenario:
    """The canonical starting genome for a target (matches its lab defaults)."""
    return Scenario(
        target=target,
        seed=7,
        ops=DEFAULT_OPS[target],
        faults=FaultPlanConfig().as_dict(),
        workload=dict(DEFAULT_WORKLOAD),
        config=default_config(target),
    )


def random_scenario(target: str, rng: XorShift64) -> Scenario:
    """Sample a fresh genome from the threaded PRNG (seeding phase)."""
    faults = {gene: int(rng.next_below(8)) for gene in FAULT_GENES}
    workload = dict(DEFAULT_WORKLOAD)
    for gene in WORKLOAD_WEIGHT_GENES:
        workload[gene] = round(0.05 + 0.95 * rng.next_float(), 4)
    workload["zipf"] = round(0.1 + 1.3 * rng.next_float(), 4)
    config = {
        name: sampler(rng)
        for name, (_, sampler) in sorted(_CONFIG_SAMPLERS[target].items())
    }
    lo, hi = MIN_OPS[target], MAX_OPS[target]
    return Scenario(
        target=target,
        seed=int(rng.next_below(_SEED_SPACE)),
        ops=lo + int(rng.next_below(hi - lo + 1)),
        faults=faults,
        workload=workload,
        config=config,
    )


# -- mutation / crossover ------------------------------------------------------


def _clamp_ops(target: str, ops: int) -> int:
    return max(MIN_OPS[target], min(MAX_OPS[target], ops))


def _mutate_seed(scenario: Scenario, rng: XorShift64) -> Scenario:
    return dataclasses.replace(scenario, seed=int(rng.next_below(_SEED_SPACE)))


def _mutate_ops(scenario: Scenario, rng: XorShift64) -> Scenario:
    factor = (0.5, 0.75, 1.5, 2.0)[rng.next_below(4)]
    return dataclasses.replace(
        scenario, ops=_clamp_ops(scenario.target, int(scenario.ops * factor))
    )


def _mutate_fault_bump(scenario: Scenario, rng: XorShift64) -> Scenario:
    gene = FAULT_GENES[rng.next_below(len(FAULT_GENES))]
    faults = dict(scenario.faults)
    faults[gene] = faults.get(gene, 0) + 1 + int(rng.next_below(3))
    return dataclasses.replace(scenario, faults=faults)


def _mutate_fault_drop(scenario: Scenario, rng: XorShift64) -> Scenario:
    active = sorted(gene for gene, count in scenario.faults.items() if count)
    if not active:
        return _mutate_fault_bump(scenario, rng)
    gene = active[rng.next_below(len(active))]
    faults = dict(scenario.faults)
    faults[gene] = 0
    return dataclasses.replace(scenario, faults=faults)


def _mutate_fault_resample(scenario: Scenario, rng: XorShift64) -> Scenario:
    gene = FAULT_GENES[rng.next_below(len(FAULT_GENES))]
    faults = dict(scenario.faults)
    faults[gene] = int(rng.next_below(10))
    return dataclasses.replace(scenario, faults=faults)


def _mutate_workload_weight(scenario: Scenario, rng: XorShift64) -> Scenario:
    gene = WORKLOAD_WEIGHT_GENES[rng.next_below(len(WORKLOAD_WEIGHT_GENES))]
    workload = dict(scenario.workload)
    workload[gene] = round(0.05 + 0.95 * rng.next_float(), 4)
    return dataclasses.replace(scenario, workload=workload)


def _mutate_zipf(scenario: Scenario, rng: XorShift64) -> Scenario:
    workload = dict(scenario.workload)
    workload["zipf"] = round(0.1 + 1.3 * rng.next_float(), 4)
    return dataclasses.replace(scenario, workload=workload)


def _mutate_config(scenario: Scenario, rng: XorShift64) -> Scenario:
    samplers = _CONFIG_SAMPLERS[scenario.target]
    if not samplers:
        return _mutate_fault_bump(scenario, rng)
    name = sorted(samplers)[rng.next_below(len(samplers))]
    config = dict(scenario.config)
    config[name] = samplers[name][1](rng)
    return dataclasses.replace(scenario, config=config)


# stable, ordered operator table: the rng picks an index, so two runs with
# the same seed walk exactly the same operator sequence
MUTATORS: Tuple[Tuple[str, Callable[[Scenario, XorShift64], Scenario]], ...] = (
    ("seed", _mutate_seed),
    ("ops", _mutate_ops),
    ("fault-bump", _mutate_fault_bump),
    ("fault-drop", _mutate_fault_drop),
    ("fault-resample", _mutate_fault_resample),
    ("workload-weight", _mutate_workload_weight),
    ("zipf", _mutate_zipf),
    ("config", _mutate_config),
)


def mutate(scenario: Scenario, rng: XorShift64) -> Scenario:
    """Apply one randomly chosen operator (draws only from ``rng``)."""
    _, operator = MUTATORS[rng.next_below(len(MUTATORS))]
    return operator(scenario, rng)


def crossover(a: Scenario, b: Scenario, rng: XorShift64) -> Scenario:
    """Uniform gene-group crossover between two same-target genomes."""
    if a.target != b.target:
        raise ValueError("crossover requires same-target scenarios")
    pick = lambda x, y: x if rng.next_below(2) == 0 else y  # noqa: E731
    faults = {
        gene: int(pick(a.faults.get(gene, 0), b.faults.get(gene, 0)))
        for gene in FAULT_GENES
    }
    workload = dict(DEFAULT_WORKLOAD)
    for gene in sorted(set(a.workload) | set(b.workload)):
        workload[gene] = pick(
            a.workload.get(gene, DEFAULT_WORKLOAD.get(gene, 0.0)),
            b.workload.get(gene, DEFAULT_WORKLOAD.get(gene, 0.0)),
        )
    config = {
        name: pick(a.config.get(name, default), b.config.get(name, default))
        for name, (default, _) in sorted(_CONFIG_SAMPLERS[a.target].items())
    }
    return Scenario(
        target=a.target,
        seed=int(pick(a.seed, b.seed)),
        ops=_clamp_ops(a.target, int(pick(a.ops, b.ops))),
        faults=faults,
        workload=workload,
        config=config,
    )


__all__ = [
    "DEFAULT_OPS",
    "DEFAULT_WORKLOAD",
    "FAULT_GENES",
    "MAX_OPS",
    "MIN_OPS",
    "MUTATORS",
    "Scenario",
    "TARGETS",
    "WORKLOAD_WEIGHT_GENES",
    "crossover",
    "default_config",
    "default_scenario",
    "mutate",
    "random_scenario",
]
