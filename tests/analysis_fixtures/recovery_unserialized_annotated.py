"""Fixture: trips recovery-unserialized-state exactly once, on an annotation.

``pending`` is a fresh list bound by an annotated assignment in
``__init__`` and never mentioned in snapshot_state/restore_state.
``cursor`` is annotated too but serialized, so it does not fire.
"""

from typing import List


class AnnotatedJournal:
    def __init__(self) -> None:
        self.cursor: int = 0
        self.pending: List[int] = []

    def snapshot_state(self) -> dict:
        return {"cursor": self.cursor}

    def restore_state(self, state: dict) -> None:
        self.cursor = state["cursor"]
