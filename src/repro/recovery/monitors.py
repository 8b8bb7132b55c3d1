"""Runtime invariant monitors: pluggable, zero-cost when disabled.

Components carry an ``invariant_monitor`` attribute that defaults to
``None``; their hot paths guard every check behind ``if monitor is not
None``, so a disabled monitor costs one attribute load. Arming a
:class:`MonitorSuite` turns the guards into live checks that raise a
structured :class:`InvariantViolation` the moment simulated state stops
making sense — instead of letting corruption propagate into a fingerprint
mismatch thousands of events later.

The monitor catalog (see docs/RECOVERY.md):

- **sim-clock** — the discrete-event clock never moves backwards
  (:meth:`MonitorSuite.after_engine_event`, hooked into the engine's run
  loop);
- **merkle-root** — after every functional-MEE commit, the page's counter
  block still verifies against the on-chip Merkle root
  (:meth:`MonitorSuite.after_mee_commit`);
- **counter-monotonic** — encryption counters only move forward, checked
  against a shadow copy per (enclave, page, line) after every functional-MEE
  commit, across a tenant's enclave generations;
- **ftl-mapping** — mapping bijectivity, media state, OOB agreement and
  valid-page accounting after every GC pass, wear-level migration and
  power-loss rebuild (:meth:`MonitorSuite.after_ftl_step`, delegating to
  :meth:`repro.ftl.ftl.Ftl.check_mapping_integrity`).

Checks never mutate fingerprint-visible state, so an armed run produces
the same :class:`~repro.faults.chaos.ChaosReport` fingerprint as a
disabled one — the crash-point oracle relies on that.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.exceptions import IntegrityError
from repro.sim.stats import RecoveryStats


class InvariantViolation(Exception):
    """A runtime invariant monitor caught the simulation lying to itself."""

    def __init__(self, monitor: str, component: str, detail: str) -> None:
        super().__init__(f"invariant[{monitor}] violated by {component}: {detail}")
        self.monitor = monitor
        self.component = component
        self.detail = detail


class MonitorSuite:
    """The full monitor set, sharing one :class:`RecoveryStats` ledger.

    Shadow state (last-seen counters, last clock reading) is rebuilt from
    observations, never serialized: after a restore the first check per key
    only primes the shadow. That skip is deterministic — it happens at the
    same operation on every resumed run — and shadow priming touches nothing
    a report fingerprints.

    With ``raise_on_violation=False`` the suite *collects* instead of
    raising: each violation is appended to :attr:`records` (and counted in
    ``stats.violations``) while the run continues. That is the mode the
    chaos CLI's ``--monitors`` flag and the search objectives use — the run
    finishes, violations become structured counters, and because records
    live on the suite rather than the report, an armed run keeps the exact
    fingerprint of a disabled one.
    """

    def __init__(
        self,
        stats: Optional[RecoveryStats] = None,
        raise_on_violation: bool = True,
    ) -> None:
        self.stats = stats if stats is not None else RecoveryStats()
        self.raise_on_violation = raise_on_violation
        self.records: List[Dict[str, str]] = []
        self._counter_shadow: Dict[Tuple[str, int, int], Tuple[int, int]] = {}
        self._last_now: Optional[float] = None

    # -- attachment ------------------------------------------------------------

    def attach_engine(self, engine: Any) -> None:
        """Arm the sim-clock monitor (bound by ``Engine.run`` at entry)."""
        engine.invariant_monitor = self

    def attach_ftl(self, ftl: Any) -> None:
        """Arm the mapping-integrity monitor on an FTL."""
        ftl.invariant_monitor = self

    def attach_mee(self, mee: Any, label: str) -> None:
        """Arm the Merkle/counter monitors on a tenant's functional MEE.

        Re-attaching under the same label, as a tenant restart does with its
        fresh enclave generation, keeps that label's counter shadows: the new
        MEE continues its predecessor's counters one major up, so across
        generations too a counter only moves forward.
        """
        mee.invariant_monitor = self
        mee.invariant_label = label

    def reset_shadows(self) -> None:
        """Forget all shadow state (call after restoring from a snapshot)."""
        self._counter_shadow.clear()
        self._last_now = None

    # -- engine ----------------------------------------------------------------

    def after_engine_event(self, now: float) -> None:
        """Sim-clock monotonicity, checked after every executed event."""
        self.stats.invariant_checks += 1
        last = self._last_now
        if last is not None and now < last:
            self._fail("sim-clock", "engine", f"clock moved backwards: {now!r} < {last!r}")
        self._last_now = now

    # -- FTL -------------------------------------------------------------------

    def after_ftl_step(self, ftl: Any, where: str) -> None:
        """Run the full mapping-integrity check after a structural FTL step."""
        self.note_ftl_check(ftl, ftl.check_mapping_integrity(where))

    def note_ftl_check(self, ftl: Any, problems: List[str]) -> None:
        """Account for a mapping check the FTL already ran itself."""
        self.stats.invariant_checks += 1
        if problems:
            shown = "; ".join(problems[:3])
            more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
            self._fail("ftl-mapping", "ftl", shown + more)

    # -- MEE -------------------------------------------------------------------

    def after_mee_commit(self, mee: Any, page: int, line: int) -> None:
        """Functional MEE: root consistency + counter monotonicity per commit."""
        label = getattr(mee, "invariant_label", "mee")
        self.stats.invariant_checks += 1
        try:
            mee.verify_counter_block(page)
        except IntegrityError as exc:
            self._fail("merkle-root", label, str(exc))
        self._check_counter(label, page, line, mee.counters.pair(page, line))

    def _check_counter(
        self, label: str, page: int, line: int, pair: Tuple[int, int]
    ) -> None:
        key = (label, page, line)
        prev = self._counter_shadow.get(key)
        if prev is not None and pair <= prev:
            self._fail(
                "counter-monotonic",
                label,
                f"page={page} line={line}: counter {pair} did not advance past {prev}",
            )
        self._counter_shadow[key] = pair

    # -- internals -------------------------------------------------------------

    def _fail(self, monitor: str, component: str, detail: str) -> None:
        self.stats.violations += 1
        if self.raise_on_violation:
            raise InvariantViolation(monitor, component, detail)
        self.records.append(
            {"monitor": monitor, "component": component, "detail": detail}
        )

    def violation_counts(self) -> Dict[str, int]:
        """Collected violations bucketed per monitor (collect mode only)."""
        counts: Dict[str, int] = {}
        for record in self.records:
            name = record["monitor"]
            counts[name] = counts.get(name, 0) + 1
        return counts


__all__ = ["InvariantViolation", "MonitorSuite"]
