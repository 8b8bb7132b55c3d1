"""NVMe host interface model: queues, doorbells, interrupts.

The host talks to the SSD through NVMe submission/completion queue pairs;
IceClave's result path (Figure 9 step ⑧) raises an NVMe interrupt and DMAs
results to host memory. This model captures the per-command costs that
bound the host baseline's small-transfer behaviour:

- submission: doorbell write (MMIO) + controller fetch of the 64 B command
- data transfer over PCIe
- completion: 16 B CQ entry + MSI-X interrupt + host handler

Commands on different queues proceed concurrently up to the configured
queue depth; the model exposes both per-command latency and sustained
throughput, and is used by tests to sanity-check the PCIe-level numbers
the platform layer assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, List, Optional

from repro.flash.chip import DieFailureError
from repro.flash.ecc import EccUncorrectableError
from repro.ftl.ftl import UncorrectableReadError, WritesSuspendedError
from repro.ftl.mapping import AccessDeniedError
from repro.host.pcie import PcieLink
from repro.sim.engine import Engine, Event
from repro.sim.resource import Resource
from repro.sim.stats import Histogram

SQ_ENTRY_BYTES = 64
CQ_ENTRY_BYTES = 16


class NvmeStatus(IntEnum):
    """Completion status codes (NVMe-style SCT/SC encodings).

    Media errors use the spec's media/data-integrity status code type
    (SCT=2h): 81h Unrecovered Read Error, 80h Write Fault, 86h Access
    Denied. 06h is the generic Internal Error; 07h Command Abort Requested
    is what a sim-time timeout completes a hung command with; 21h Command
    Interrupted is the spec's "transient, retry me" status and is how
    admission control and degraded-mode write refusal surface.
    """

    SUCCESS = 0x000
    INTERNAL_ERROR = 0x006
    COMMAND_ABORTED = 0x007
    COMMAND_INTERRUPTED = 0x021
    WRITE_FAULT = 0x280
    UNRECOVERED_READ_ERROR = 0x281
    ACCESS_DENIED = 0x286
    LBA_OUT_OF_RANGE = 0x080

    @property
    def is_error(self) -> bool:
        return self is not NvmeStatus.SUCCESS

    @property
    def is_retryable(self) -> bool:
        """Statuses a client may retry without risking data corruption."""
        return self in (
            NvmeStatus.COMMAND_ABORTED,
            NvmeStatus.COMMAND_INTERRUPTED,
        )


def status_for_exception(exc: BaseException) -> NvmeStatus:
    """Map a storage-stack exception onto the NVMe status the host sees.

    Anything the flash→FTL path can legitimately raise at runtime becomes a
    per-command error status instead of crashing the device model; truly
    unexpected exceptions should not be fed through here.
    """
    if isinstance(exc, (EccUncorrectableError, UncorrectableReadError, DieFailureError)):
        return NvmeStatus.UNRECOVERED_READ_ERROR
    if isinstance(exc, AccessDeniedError):
        return NvmeStatus.ACCESS_DENIED
    if isinstance(exc, WritesSuspendedError):
        return NvmeStatus.COMMAND_INTERRUPTED  # degraded mode: retry later
    if isinstance(exc, KeyError):
        return NvmeStatus.LBA_OUT_OF_RANGE  # read of an unmapped LPA
    return NvmeStatus.INTERNAL_ERROR

# device_op exceptions submit() converts into per-command error statuses
DEVICE_OP_ERRORS = (
    EccUncorrectableError,
    UncorrectableReadError,
    DieFailureError,
    AccessDeniedError,
    WritesSuspendedError,
    KeyError,
)


@dataclass(frozen=True)
class NvmeTiming:
    doorbell_write: float = 300e-9  # posted MMIO write
    command_fetch: float = 500e-9  # controller pulls the SQ entry
    interrupt_latency: float = 2e-6  # MSI-X delivery + host ISR entry
    completion_handling: float = 1e-6  # host-side CQ processing


@dataclass
class NvmeCommand:
    opcode: str  # "read" | "write"
    nbytes: int
    submitted_at: float = 0.0
    completed_at: Optional[float] = None
    status: NvmeStatus = NvmeStatus.SUCCESS
    timeout_event: Optional[Event] = None  # armed sim-time abort timer

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def failed(self) -> bool:
        return self.status.is_error

    @property
    def timed_out(self) -> bool:
        return self.status is NvmeStatus.COMMAND_ABORTED


class NvmeQueuePair:
    """One submission/completion queue pair with bounded depth."""

    def __init__(
        self,
        engine: Engine,
        link: PcieLink,
        timing: NvmeTiming = NvmeTiming(),
        queue_depth: int = 64,
        device_latency: float = 80e-6,
        admission=None,  # duck-typed AdmissionController: admit(now, queued)
    ) -> None:
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.engine = engine
        self.link = link
        self.timing = timing
        self.queue_depth = queue_depth
        self.device_latency = device_latency  # media time per command
        self.admission = admission
        self._link_res = Resource(engine, "pcie", servers=1)
        self._in_flight = 0
        self._waiting: List = []  # (command, thunk) pairs awaiting a slot
        self.completed: List[NvmeCommand] = []
        self.latency = Histogram("nvme-latency", keep_samples=True)
        self.error_completions = 0
        self.timeouts = 0
        self.admission_rejections = 0
        # completion aggregates survive drain_completed()
        self.completed_count = 0
        self.completed_bytes = 0

    def submit(
        self,
        opcode: str,
        nbytes: int,
        on_done=None,
        device_op: Optional[Callable[[], None]] = None,
        device_latency: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> NvmeCommand:
        """Submit one command; completion recorded on the command object.

        ``device_op`` models the storage-side work behind the command (an
        FTL read, say). If it raises one of the storage stack's runtime
        errors — uncorrectable ECC, a failed die, a permission denial — the
        command completes with the corresponding NVMe error status rather
        than crashing the simulation; the host sees a failed CQ entry,
        exactly as a real controller reports media errors.

        ``device_latency`` overrides the queue pair's default media time for
        this command (a fault-injected die can be slow — or hung, via
        ``math.inf``). ``timeout`` arms a sim-time abort: if the command has
        not completed after that long it completes with COMMAND_ABORTED and
        releases its queue slot, so a hung die cannot wedge the event loop.

        If an admission controller is attached and refuses the command, it
        completes immediately with the retryable COMMAND_INTERRUPTED status
        instead of queueing unboundedly.
        """
        if opcode not in ("read", "write"):
            raise ValueError(f"unsupported opcode {opcode}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        command = NvmeCommand(opcode=opcode, nbytes=nbytes, submitted_at=self.engine.now)

        if self.admission is not None and not self.admission.admit(
            self.engine.now, self._in_flight + len(self._waiting)
        ):
            # shed at the doorbell: no slot, no device work, retryable status
            command.status = NvmeStatus.COMMAND_INTERRUPTED
            self.admission_rejections += 1
            self._finalize(command, on_done)
            return command

        media_time = self.device_latency if device_latency is None else device_latency

        def run_command() -> None:
            t = self.timing
            setup = t.doorbell_write + t.command_fetch
            transfer = self.link.transfer_time(nbytes + SQ_ENTRY_BYTES + CQ_ENTRY_BYTES)

            def media_done() -> None:
                if command.completed_at is not None:
                    return  # timed out while the die was grinding
                if device_op is not None:
                    try:
                        device_op()
                    except DEVICE_OP_ERRORS as exc:
                        command.status = status_for_exception(exc)
                        self.error_completions += 1
                # data moves over the shared link, then the CQ/interrupt path
                def link_done() -> None:
                    self.engine.schedule(
                        t.interrupt_latency + t.completion_handling,
                        lambda: self._complete(command, on_done),
                    )

                self._link_res.acquire(transfer, on_done=link_done)

            self.engine.schedule(setup + media_time, media_done)

        if timeout is not None:
            command.timeout_event = self.engine.schedule(
                timeout, lambda: self._abort(command, on_done), name="nvme-timeout"
            )

        # a free queue slot gates command issue; the slot is held until the
        # completion entry is consumed
        if self._in_flight < self.queue_depth:
            self._in_flight += 1
            run_command()
        else:
            self._waiting.append((command, run_command))
        return command

    def _complete(self, command: NvmeCommand, on_done) -> None:
        if command.completed_at is not None:
            return  # already aborted by its timeout; slot was released then
        self._release_slot()
        self._finalize(command, on_done)

    def _abort(self, command: NvmeCommand, on_done) -> None:
        """Sim-time timeout: complete a hung command with COMMAND_ABORTED."""
        if command.completed_at is not None:
            return  # completed just before the timer fired
        command.status = NvmeStatus.COMMAND_ABORTED
        self.timeouts += 1
        for idx, (waiting_cmd, _thunk) in enumerate(self._waiting):
            if waiting_cmd is command:
                # never issued: drop it from the wait list, no slot to free
                del self._waiting[idx]
                break
        else:
            self._release_slot()
        self._finalize(command, on_done)

    def _release_slot(self) -> None:
        if self._waiting:
            _command, thunk = self._waiting.pop(0)
            thunk()
        else:
            self._in_flight -= 1

    def _finalize(self, command: NvmeCommand, on_done) -> None:
        command.completed_at = self.engine.now
        if command.timeout_event is not None:
            self.engine.cancel(command.timeout_event)
            command.timeout_event = None
        self.completed.append(command)
        self.completed_count += 1
        self.completed_bytes += command.nbytes
        self.latency.record(command.latency)
        if on_done is not None:
            on_done(command)

    def drain_completed(self) -> int:
        """Forget finished command records; returns how many were dropped.

        Long soak workloads call this between windows so the completion
        list stays bounded. The aggregate counters — ``completed_count``,
        ``completed_bytes``, the latency histogram and the error/timeout
        tallies — are accumulated at completion time and are unaffected.
        Records the caller still holds are left untouched.
        """
        drained = len(self.completed)
        self.completed.clear()
        return drained

    def run(self) -> float:
        return self.engine.run()

    def throughput_bytes_per_s(self) -> float:
        """Sustained data throughput over the finished run.

        Counts every completion since construction — including records
        already dropped by :meth:`drain_completed`.
        """
        if self.completed_count == 0 or self.engine.now <= 0:
            return 0.0
        return self.completed_bytes / self.engine.now
