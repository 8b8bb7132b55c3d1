"""Corpus persistence: versioned, content-fingerprinted, replayable.

A campaign's hits are written as a ``search-corpus/v4`` JSON document.
Every target's run fingerprint is the canonical hash of its report's
fields (:class:`repro.sim.state.Record`), and version 4 holds chaos and
oracle fingerprints over the chaos report's ``read_digest``; an entry of an
older version would replay as a divergence, so v1 to v3 files are refused.
The document's ``fingerprint`` is the
:func:`~repro.sim.state.canonical_fingerprint` of its body (the fingerprint
field itself excluded), so two identical campaigns produce byte-identical
files and any edit is visible.

``replay`` re-evaluates every entry's minimal genome (falling back to the
original when a hit was not shrunk) and demands two things: the re-run's
``run_fingerprint`` matches byte-for-byte, and the recorded objective
still scores positive. That is the whole point of the corpus — each entry
is an executable, self-verifying repro.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from repro.search.adapters import evaluate_scenario
from repro.search.engine import SearchResult
from repro.search.genome import Scenario
from repro.search.objectives import OBJECTIVES_BY_NAME, score_evaluation
from repro.sim.state import canonical_fingerprint

SCHEMA = "search-corpus/v4"


def corpus_fingerprint(document: Dict[str, object]) -> str:
    """The canonical hash of the body, ``fingerprint`` field excluded."""
    body = {k: v for k, v in document.items() if k != "fingerprint"}
    return canonical_fingerprint(body)


def build_corpus(result: SearchResult) -> Dict[str, object]:
    """Serialize a campaign into a self-fingerprinted corpus document."""
    entries: List[Dict[str, object]] = []
    for hit in result.hits:
        fingerprint = hit.scenario.fingerprint()
        entry: Dict[str, object] = {
            "fingerprint": fingerprint,
            "scenario": hit.scenario.to_dict(),
            "objectives": dict(sorted(hit.objectives.items())),
            "signals": dict(sorted(hit.evaluation.signals.items())),
            "run_fingerprint": hit.evaluation.run_fingerprint,
            "minimal": None,
        }
        shrunk = result.minimal.get(fingerprint)
        if shrunk is not None:
            entry["minimal"] = {
                "fingerprint": shrunk.scenario.fingerprint(),
                "scenario": shrunk.scenario.to_dict(),
                "objective": shrunk.objective,
                "score": shrunk.score,
                "signals": dict(sorted(shrunk.evaluation.signals.items())),
                "run_fingerprint": shrunk.evaluation.run_fingerprint,
                "steps": list(shrunk.steps),
            }
        entries.append(entry)
    document: Dict[str, object] = {
        "schema": SCHEMA,
        "seed": result.seed,
        "budget_ops": result.config.budget_ops,
        "targets": list(result.config.targets),
        "rounds": result.rounds,
        "stats": result.stats.as_dict(),
        "entries": entries,
    }
    document["fingerprint"] = corpus_fingerprint(document)
    return document


def save_corpus(document: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write the document canonically (byte-identical for equal content)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return out


def load_corpus(path: Union[str, Path]) -> Dict[str, object]:
    """Read and validate a corpus document (schema + content fingerprint)."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"not a {SCHEMA} document (schema={schema!r})")
    expected = corpus_fingerprint(document)
    if document.get("fingerprint") != expected:
        raise ValueError(
            f"corpus fingerprint mismatch: file says "
            f"{document.get('fingerprint')!r}, content hashes to {expected!r}"
        )
    return document


@dataclass
class ReplayOutcome:
    """One entry's replay verdict."""

    fingerprint: str
    objective: str
    reproduced: bool
    fingerprint_match: bool
    detail: str

    @property
    def ok(self) -> bool:
        return self.reproduced and self.fingerprint_match


@dataclass
class ReplayReport:
    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def all_reproduced(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    def format(self) -> str:
        lines = [f"replaying {len(self.outcomes)} corpus entries:"]
        for outcome in self.outcomes:
            verdict = "REPRODUCED" if outcome.ok else "FAILED"
            lines.append(
                f"  {outcome.fingerprint[:12]} [{outcome.objective}] "
                f"{verdict}: {outcome.detail}"
            )
        return "\n".join(lines)


def _entry_repro(entry: Dict[str, object]) -> Dict[str, object]:
    minimal = entry.get("minimal")
    if isinstance(minimal, dict):
        return minimal
    return entry


def replay_corpus(document: Dict[str, object]) -> ReplayReport:
    """Re-run every entry's repro genome and verify it still bites."""
    report = ReplayReport()
    for entry in document.get("entries", []):  # type: ignore[union-attr]
        repro = _entry_repro(entry)
        scenario = Scenario.from_dict(repro["scenario"])  # type: ignore[arg-type]
        evaluation = evaluate_scenario(scenario)
        fingerprint_match = (
            evaluation.run_fingerprint == repro.get("run_fingerprint")
        )
        if "objective" in repro:
            objective_name = str(repro["objective"])
            score = OBJECTIVES_BY_NAME[objective_name].score(evaluation)
            reproduced = score > 0.0
        else:
            recorded = repro.get("objectives", {})
            scores = score_evaluation(evaluation)
            objective_name = ",".join(sorted(recorded))  # type: ignore[arg-type]
            reproduced = all(name in scores for name in recorded)  # type: ignore[union-attr]
            score = sum(scores.values())
        detail = (
            f"score={score:g}, run fingerprint "
            + ("matches" if fingerprint_match else "DIVERGED")
        )
        report.outcomes.append(
            ReplayOutcome(
                fingerprint=str(repro.get("fingerprint", "")),
                objective=objective_name,
                reproduced=reproduced,
                fingerprint_match=fingerprint_match,
                detail=detail,
            )
        )
    return report


def replay_path(path: Union[str, Path]) -> ReplayReport:
    return replay_corpus(load_corpus(path))


__all__ = [
    "ReplayOutcome",
    "ReplayReport",
    "SCHEMA",
    "build_corpus",
    "corpus_fingerprint",
    "load_corpus",
    "replay_corpus",
    "replay_path",
    "save_corpus",
]
