"""Recovery policies layered on top of the protection machinery.

The flash-level pieces (escalating read retry, remap-on-uncorrectable,
power-loss rebuild) live with the FTL so the normal read/write path can use
them; this module adds the piece that is IceClave-specific: *blast-radius
containment* for memory-integrity violations. A MAC mismatch or Merkle
failure in one tenant's protected DRAM aborts that tenant's enclave via
ThrowOutTEE semantics (§4.5) — the SSD itself, and every other tenant, keep
running. The guard never holds a tenant's keys: each enclave's
:class:`~repro.core.functional_mee.FunctionalMee` keeps them, and a restart
asks it for a fresh engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.exceptions import IntegrityError
from repro.core.functional_mee import FunctionalMee
from repro.core.tee import TeeMessage
from repro.sim.stats import ReliabilityStats


@dataclass
class TenantEnclave:
    """One tenant's in-storage enclave with functionally protected DRAM."""

    tee_id: int
    mee: FunctionalMee
    generation: int = 0  # bumped every abort/restart
    aborted: bool = False
    abort_message: Optional[TeeMessage] = None
    lines_written: List[Tuple[int, int]] = field(default_factory=list)
    # committed-write journal: the last plaintext accepted per line. This is
    # the tenant's pending-write epoch; restart replays it through the fresh
    # MEE so a post-restart read of the last committed line round-trips.
    # (In hardware this journal is the encrypted write-ahead log in flash;
    # functionally the plaintext stands in for log-replay-then-decrypt.)
    journal: Dict[Tuple[int, int], bytes] = field(default_factory=dict)


class EnclaveIntegrityGuard:
    """Per-tenant integrity-violation handling.

    Reads go through the tenant's :class:`FunctionalMee`; a detected
    violation (tamper or replay) aborts *only* that tenant — the guard
    records the ThrowOutTEE message, provisions a fresh enclave generation,
    and leaves every other tenant untouched. This is the recovery half of
    the paper's integrity claim: detection is the MEE's job, containment is
    ours.
    """

    def __init__(self, stats: Optional[ReliabilityStats] = None) -> None:
        self.tenants: Dict[int, TenantEnclave] = {}
        self.stats = stats or ReliabilityStats()
        self.abort_log: List[TeeMessage] = []

    def register(
        self, tee_id: int, pages: int, aes_key: bytes, mac_key: bytes
    ) -> TenantEnclave:
        if tee_id in self.tenants:
            raise ValueError(f"tenant {tee_id} already registered")
        tenant = TenantEnclave(tee_id=tee_id, mee=FunctionalMee(pages, aes_key, mac_key))
        self.tenants[tee_id] = tenant
        return tenant

    def write(self, tee_id: int, page: int, line: int, plaintext: bytes) -> None:
        """Commit a line; a violation the commit detects aborts the tenant.

        A write that overflows a minor counter re-keys the page and first
        verifies its other resident lines, so a write can find a tampered
        neighbour; the write is then not journaled.
        """
        tenant = self.tenants[tee_id]
        try:
            tenant.mee.write_line(page, line, plaintext)
        except IntegrityError as exc:
            self._abort(tenant, str(exc))
            return
        if (page, line) not in tenant.lines_written:
            tenant.lines_written.append((page, line))
        tenant.journal[(page, line)] = bytes(plaintext)

    def read(self, tee_id: int, page: int, line: int) -> Optional[bytes]:
        """Verified read; returns None when the violation aborted the tenant."""
        tenant = self.tenants[tee_id]
        try:
            return tenant.mee.read_line(page, line)
        except IntegrityError as exc:
            self._abort(tenant, str(exc))
            return None

    def sweep(self) -> List[TeeMessage]:
        """Re-verify every tenant's resident lines; abort the violated ones.

        Returns the abort messages issued by this sweep. Tenants whose
        lines all verify are untouched — corruption in one tenant's DRAM
        must never take a neighbour down.
        """
        aborts: List[TeeMessage] = []
        for tenant in self.tenants.values():
            if tenant.aborted:
                continue
            for page, line in tenant.lines_written:
                try:
                    tenant.mee.read_line(page, line)
                except IntegrityError as exc:
                    self._abort(tenant, str(exc))
                    aborts.append(tenant.abort_message)
                    break
        return aborts

    def restart(self, tee_id: int, replay: bool = True) -> TenantEnclave:
        """Provision a fresh enclave generation after an abort.

        With ``replay`` (the default) the journaled write epoch is replayed
        through the fresh MEE in original write order, so every line the
        tenant had committed before the abort reads back verbatim — the
        tamper is discarded with the old MEE state, not the tenant's data.
        ``replay=False`` gives the old scorched-earth restart (fresh, empty
        enclave) for tenants that prefer to re-provision from scratch.
        """
        tenant = self.tenants[tee_id]
        if not tenant.aborted:
            raise ValueError(f"tenant {tee_id} is not aborted")
        tenant.mee = tenant.mee.fresh()
        tenant.generation += 1
        tenant.aborted = False
        tenant.abort_message = None
        if replay:
            # lines_written preserves first-write order; the journal holds the
            # last committed payload per line (last-write-wins epoch)
            for page, line in tenant.lines_written:
                tenant.mee.write_line(page, line, tenant.journal[(page, line)])
        else:
            tenant.lines_written = []
            tenant.journal = {}
        return tenant

    def live_tenants(self) -> List[int]:
        return sorted(t for t, e in self.tenants.items() if not e.aborted)

    # -- checkpoint/restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Per-tenant enclave state plus the abort log.

        Keys are *not* serialized (each tenant's MEE holds its registration
        keys); restoring into a guard whose tenants were registered with
        different keys makes every MEE verify fail, by design. The shared
        ``stats`` object is owned — and snapshotted — by whoever constructed
        the guard.
        """
        return {
            "tenants": [
                (
                    tee_id,
                    {
                        "generation": t.generation,
                        "aborted": t.aborted,
                        "abort_reason": (
                            t.abort_message.reason if t.abort_message is not None else None
                        ),
                        "lines_written": list(t.lines_written),
                        "journal": [(key, value) for key, value in t.journal.items()],
                        "mee": t.mee.snapshot_state(),
                    },
                )
                for tee_id, t in sorted(self.tenants.items())
            ],
            "abort_log": [(m.tee_id, m.reason) for m in self.abort_log],
        }

    def restore_state(self, state: dict) -> None:
        snapshot_ids = [tee_id for tee_id, _ in state["tenants"]]
        if snapshot_ids != sorted(self.tenants):
            raise ValueError(
                f"snapshot names tenants {snapshot_ids}, guard has {sorted(self.tenants)}"
            )
        for tee_id, tstate in state["tenants"]:
            tenant = self.tenants[tee_id]
            tenant.generation = tstate["generation"]
            tenant.aborted = tstate["aborted"]
            tenant.abort_message = (
                TeeMessage(tee_id=tee_id, reason=tstate["abort_reason"])
                if tstate["abort_reason"] is not None
                else None
            )
            tenant.lines_written = [(page, line) for page, line in tstate["lines_written"]]
            tenant.journal = {
                (page, line): value for (page, line), value in tstate["journal"]
            }
            tenant.mee.restore_state(tstate["mee"])
        self.abort_log = [
            TeeMessage(tee_id=tee_id, reason=reason) for tee_id, reason in state["abort_log"]
        ]

    def _abort(self, tenant: TenantEnclave, reason: str) -> None:
        tenant.aborted = True
        tenant.abort_message = TeeMessage(tee_id=tenant.tee_id, reason=reason)
        self.abort_log.append(tenant.abort_message)
        self.stats.integrity_violations += 1
        self.stats.tenant_aborts += 1
        # the SSD (and every other tenant) survives: containment worked
        self.stats.faults_recovered += 1
