"""Committed baseline: legacy findings that don't block CI.

Entries are content-addressed — ``(rule, path, stripped source line)`` with
a count — so unrelated edits that shift line numbers don't invalidate the
baseline, while *changing* a baselined line surfaces its finding again
(you touched it, you fix it).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.analysis.finding import Finding

BASELINE_VERSION = 1

_Key = Tuple[str, str, str]  # (rule, path, line_text)


class Baseline:
    """In-memory view of the committed baseline file."""

    def __init__(self, entries: Union[Counter, None] = None) -> None:
        self.entries: Counter = entries if entries is not None else Counter()
        self._remaining: Counter = Counter(self.entries)

    # -- persistence ---------------------------------------------------------

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {data.get('version')!r} in {path}"
            )
        entries: Counter = Counter()
        for entry in data.get("entries", []):
            key = (entry["rule"], entry["path"], entry["line_text"])
            entries[key] += int(entry.get("count", 1))
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries: Counter = Counter()
        for finding in findings:
            entries[finding.baseline_key()] += 1
        return cls(entries)

    def save(self, path: Path) -> None:
        serialized: List[Dict[str, Union[str, int]]] = [
            {"rule": rule, "path": rel, "line_text": text, "count": count}
            for (rule, rel, text), count in sorted(self.entries.items())
        ]
        payload = {"version": BASELINE_VERSION, "entries": serialized}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    # -- matching ------------------------------------------------------------

    def consume(self, finding: Finding) -> bool:
        """True (and consume one slot) if the finding is baselined."""
        key = finding.baseline_key()
        if self._remaining.get(key, 0) > 0:
            self._remaining[key] -= 1
            return True
        return False

    def reset(self) -> None:
        self._remaining = Counter(self.entries)

    def total(self) -> int:
        return sum(self.entries.values())


__all__ = ["Baseline", "BASELINE_VERSION"]
