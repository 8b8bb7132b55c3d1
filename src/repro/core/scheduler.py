"""Cooperative scheduler for concurrent in-storage TEEs (§4.6).

The IceClave runtime hosts several TEEs at once (§6.8) and "constantly
monitors the status of initiated TEEs". This scheduler runs offloaded
programs — written as Python generators that ``yield`` at their natural
I/O boundaries — round-robin with a bounded step budget per turn, and runs
the runtime's integrity monitor between turns:

- a program exception aborts only its own TEE (ThrowOutTEE case 3);
- a TEE whose metadata fails its integrity check is aborted (case 2);
- a program that exhausts its total step budget is aborted (runaway
  protection), keeping the shared controller cores available.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.runtime import IceClaveRuntime
from repro.core.tee import Tee, TeeState

TeeProgram = Generator[Any, None, bytes]  # yields at I/O points, returns result


@dataclass
class ScheduledTask:
    tee: Tee
    program: TeeProgram
    steps_taken: int = 0
    finished: bool = False


@dataclass
class ScheduleOutcome:
    """What one scheduling run produced."""

    completed: Dict[int, bytes] = field(default_factory=dict)  # eid -> result
    aborted: Dict[int, str] = field(default_factory=dict)  # eid -> reason
    rounds: int = 0


def _metadata_digest(tee: Tee) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(tee.eid.to_bytes(2, "big"))
    h.update(tee.measurement)
    h.update(len(tee.lpas).to_bytes(4, "big"))
    for lpa in tee.lpas:
        h.update(lpa.to_bytes(8, "big"))
    return h.digest()


class TeeScheduler:
    """Round-robin execution of TEE programs with integrity monitoring."""

    def __init__(
        self,
        runtime: IceClaveRuntime,
        steps_per_turn: int = 8,
        max_steps_per_tee: int = 100_000,
    ) -> None:
        if steps_per_turn < 1 or max_steps_per_tee < 1:
            raise ValueError("step budgets must be positive")
        self.runtime = runtime
        self.steps_per_turn = steps_per_turn
        self.max_steps_per_tee = max_steps_per_tee
        self._tasks: List[ScheduledTask] = []
        self._metadata: Dict[int, bytes] = {}  # eid -> expected digest

    def submit(self, tee: Tee, program_fn: Callable[[Tee], TeeProgram]) -> None:
        """Queue a program for a created TEE; records its metadata digest."""
        if not tee.is_live():
            raise ValueError(f"TEE {tee.eid} is not runnable ({tee.state.value})")
        tee.state = TeeState.RUNNING
        self._tasks.append(ScheduledTask(tee=tee, program=program_fn(tee)))
        self._metadata[tee.eid] = _metadata_digest(tee)

    def _monitor(self, task: ScheduledTask) -> Optional[str]:
        """The runtime's integrity guard; returns an abort reason or None."""
        expected = self._metadata.get(task.tee.eid)
        if expected is None:
            return "metadata record missing"
        if _metadata_digest(task.tee) != expected:
            return "TEE metadata corrupted"
        if task.steps_taken > self.max_steps_per_tee:
            return "step budget exhausted"
        return None

    def run(self) -> ScheduleOutcome:
        """Run all queued programs to completion (or abort)."""
        outcome = ScheduleOutcome()
        while any(not t.finished for t in self._tasks):
            outcome.rounds += 1
            for task in self._tasks:
                if task.finished:
                    continue
                reason = self._monitor(task)
                if reason is not None:
                    self._abort(task, reason, outcome)
                    continue
                self._step(task, outcome)
        self._tasks.clear()
        self._metadata.clear()
        return outcome

    def _step(self, task: ScheduledTask, outcome: ScheduleOutcome) -> None:
        for _ in range(self.steps_per_turn):
            try:
                next(task.program)
                task.steps_taken += 1
            except StopIteration as stop:
                result = stop.value if stop.value is not None else b""
                task.tee.result = result
                task.tee.state = TeeState.COMPLETED
                outcome.completed[task.tee.eid] = result
                task.finished = True
                return
            except Exception as exc:
                self._abort(task, f"in-storage program exception: {exc}", outcome)
                return
            if task.steps_taken > self.max_steps_per_tee:
                return  # the monitor aborts it next turn

    def _abort(self, task: ScheduledTask, reason: str, outcome: ScheduleOutcome) -> None:
        self.runtime.throw_out_tee(task.tee, reason)
        outcome.aborted[task.tee.eid] = reason
        task.finished = True

    @property
    def pending(self) -> int:
        return sum(1 for t in self._tasks if not t.finished)
