"""IceClave host library: the user-facing half of Table 2.

``OffloadCode`` ships a pre-compiled program plus the LPAs of its data to
the SSD over the (platform-provided) secure channel; ``GetResult``
retrieves results after the DMA-completion interrupt. The library
deliberately exposes nothing else — a small trusted computing base (§4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.runtime import IceClaveRuntime
from repro.core.tee import Tee, TeeState


@dataclass
class OffloadHandle:
    """Host-side view of one offloaded task."""

    tid: int
    tee: Tee
    done: bool = False
    result: Optional[bytes] = None


class ServiceDegradedError(RuntimeError):
    """The SSD refused an offload because it is running degraded.

    Carries the device's current service mode so the tenant can distinguish
    "retry later" (DEGRADED_READONLY — committed data is still readable and
    integrity-verified) from "stop offloading" (FAILSAFE).
    """

    def __init__(self, mode: str, what: str) -> None:
        super().__init__(f"{what} refused: device service mode is {mode}")
        self.mode = mode


class IceClaveLibrary:
    """Host ↔ SSD offloading interface (OffloadCode / GetResult).

    ``degradation`` is an optional (duck-typed) degradation ladder; when the
    device reports anything below NORMAL, new offloads are refused with
    :class:`ServiceDegradedError` and tenants can poll :meth:`service_mode`
    — degraded-but-correct service is a first-class mode, not an error.
    """

    def __init__(self, runtime: IceClaveRuntime, degradation=None) -> None:
        self._runtime = runtime
        self._tasks: Dict[int, OffloadHandle] = {}
        self._next_tid = 1
        self._degradation = degradation

    def service_mode(self) -> str:
        """The device's current service mode, as the tenant sees it."""
        if self._degradation is None:
            return "normal"
        mode = self._degradation.mode
        return getattr(mode, "value", str(mode))

    def offload_code(
        self,
        binary: bytes,
        lpas: List[int],
        args: Any = None,
        tid: Optional[int] = None,
        decryption_key: Optional[bytes] = None,
    ) -> OffloadHandle:
        """OffloadCode(bin, lpa, args, tid): create an in-storage TEE.

        Returns a handle whose ``tid`` indexes the offloaded procedure.
        """
        if self._degradation is not None and not self._degradation.allows_offload():
            raise ServiceDegradedError(self.service_mode(), "OffloadCode")
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
        if tid in self._tasks:
            raise ValueError(f"task id {tid} already in use")
        tee = self._runtime.create_tee(
            binary, lpas=lpas, args=args, tid=tid, decryption_key=decryption_key
        )
        handle = OffloadHandle(tid=tid, tee=tee)
        self._tasks[tid] = handle
        return handle

    def execute(self, handle: OffloadHandle, program: Callable[[Tee], bytes]) -> None:
        """Run the offloaded program inside its TEE (simulation convenience).

        ``program`` receives the TEE and returns result bytes; exceptions
        are converted into ThrowOutTEE aborts, mirroring §4.5.
        """
        tee = handle.tee
        if not tee.is_live():
            raise RuntimeError(f"TEE {tee.eid} is not runnable ({tee.state.value})")
        tee.state = TeeState.RUNNING
        try:
            tee.result = program(tee)
            tee.state = TeeState.COMPLETED
        except Exception as exc:
            self._runtime.throw_out_tee(tee, f"in-storage program exception: {exc}")
            raise

    def get_result(self, tid: int) -> bytes:
        """GetResult(tid): fetch results and tear the TEE down."""
        try:
            handle = self._tasks[tid]
        except KeyError:
            raise KeyError(f"unknown task id {tid}") from None
        tee = handle.tee
        if tee.state is TeeState.ABORTED:
            reason = tee.exception.reason if tee.exception else "unknown"
            raise RuntimeError(f"task {tid} was aborted: {reason}")
        if tee.state is not TeeState.COMPLETED:
            raise RuntimeError(f"task {tid} has not completed ({tee.state.value})")
        result = self._runtime.terminate_tee(tee)
        handle.done = True
        handle.result = result
        del self._tasks[tid]
        return result if result is not None else b""

    def pending_tasks(self) -> List[int]:
        return sorted(self._tasks)
