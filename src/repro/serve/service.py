"""The offload service: sessions in front, policies at the gate.

:class:`OffloadService` is the request/response front-end the serving PRs
build on. :meth:`OffloadService.handle` is its one entry point: it takes
one sealed envelope plus the caller's sim-time and returns the response
synchronously, so callers impose the total order on request handling
simply by calling in order. The service keeps no clock of its own and
never reads the wall clock: admission, breakers and the ladder all see
the ``now`` the caller passes (the serve lab passes its
:class:`~repro.sim.engine.Engine` time), which keeps two same-seed
campaigns byte-identical.

Request path, in gate order:

1. **authenticate** — the envelope must open on an established session
   (wrong session / bad MAC / replayed sequence answer in plaintext with
   ``UNKNOWN_SESSION`` / ``AUTH_FAILED``; there is no session key to seal
   a reply under);
2. **admit** — the token-bucket admission controller may shed the request
   (``THROTTLED`` + retry-after) before it costs anything;
3. **mode-gate** — the degradation ladder refuses writes in
   ``DEGRADED_READONLY`` and reads in ``FAILSAFE``, each as a typed,
   retryable rejection carrying the current mode;
4. **dispatch** — reads/writes go to the data path behind per-channel
   circuit breakers (an open breaker reroutes to the replica channel);
   ``offload`` goes through :class:`~repro.host.library.IceClaveLibrary`,
   with ``ServiceDegradedError`` and ``TeeCreationError`` mapped onto the
   wire taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core.exceptions import TeeCreationError
from repro.host.library import IceClaveLibrary, ServiceDegradedError
from repro.host.nvme import NvmeStatus
from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import BreakerBoard
from repro.resilience.degrade import DegradationLadder
from repro.serve.session import ServerSessionManager, SessionError
from repro.serve.wire import (
    Reply,
    Request,
    SealedEnvelope,
    WireStatus,
    retry_after_for,
    status_for_mode,
    status_for_nvme,
)


class DataPathFault(Exception):
    """The device-side data path failed one command.

    Carries the NVMe completion status plus the sim-time the command held
    the channel before failing (a timeout is tail latency, not a no-op).
    """

    def __init__(self, status: NvmeStatus, latency_s: float) -> None:
        super().__init__(status.name)
        self.status = status
        self.latency_s = latency_s


# data path: (op, lpa, channel_index, now) -> service latency in seconds
DataPath = Callable[[str, int, int, float], float]


def _default_data_path(op: str, lpa: int, channel: int, now: float) -> float:
    return 120e-6 if op == "write" else 80e-6


@dataclass
class Served:
    """One handled request: the wire response plus its service latency.

    ``response`` is a sealed envelope for authenticated traffic and a
    plaintext :class:`Reply` when there was no session to seal under.
    ``latency_s`` is device time only; queueing is the driver's ledger.
    """

    response: Union[SealedEnvelope, Reply]
    latency_s: float


class OffloadService:
    """Attested multi-tenant front-end over one IceClave device."""

    def __init__(
        self,
        sessions: ServerSessionManager,
        library: IceClaveLibrary,
        channels: int = 4,
        admission: Optional[AdmissionController] = None,
        breakers: Optional[BreakerBoard] = None,
        ladder: Optional[DegradationLadder] = None,
        data_path: DataPath = _default_data_path,
        auth_penalty_s: float = 5e-6,
    ) -> None:
        if channels < 1:
            raise ValueError("the service needs at least one channel")
        self.sessions = sessions
        self.library = library
        self.channels = channels
        self.admission = admission
        self.breakers = breakers
        self.ladder = ladder
        self.data_path = data_path
        self.auth_penalty_s = auth_penalty_s
        self.counters: Dict[str, int] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _mode(self) -> str:
        return self.library.service_mode()

    def _refusal(self, status: WireStatus) -> Reply:
        return Reply(
            status=status,
            retry_after_s=retry_after_for(status),
            mode=self._mode(),
        )

    # -- channel selection (mirrors the resilience lab's replica scheme) -------

    def _primary(self, lpa: int) -> int:
        return lpa % self.channels

    def _replica(self, lpa: int) -> int:
        return (lpa + self.channels // 2) % self.channels

    def _pick_channel(self, lpa: int, now: float) -> Optional[int]:
        for index in (self._primary(lpa), self._replica(lpa)):
            if self.breakers is None:
                return index
            if self.breakers.breaker(f"ch{index}").allow(now):
                return index
        return None

    def _feed_breaker(self, channel: int, ok: bool, now: float) -> None:
        if self.breakers is None:
            return
        breaker = self.breakers.breaker(f"ch{channel}")
        if ok:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
        if self.ladder is not None:
            self.ladder.note_open_breakers(now, self.breakers.open_count(now))

    # -- request handling ------------------------------------------------------

    def handle(self, envelope: SealedEnvelope, now: float) -> Served:
        """Authenticate, admit, gate, dispatch — synchronously, at ``now``."""
        try:
            request = self.sessions.open_request(envelope)
        except SessionError as err:
            self._count(f"rejected.{err.status.value}")
            return Served(response=self._refusal(err.status), latency_s=self.auth_penalty_s)

        # handle() answers each request before the next arrives: none queue
        if self.admission is not None and not self.admission.admit(now, queued=0):
            self._count("shed_admission")
            return self._sealed(envelope.session_id, self._refusal(
                WireStatus.THROTTLED), self.auth_penalty_s)

        reply, latency = self._dispatch(request, now)
        self._count(f"reply.{reply.status.value}")
        return self._sealed(envelope.session_id, reply, latency)

    def _sealed(self, session_id: int, reply: Reply, latency: float) -> Served:
        return Served(
            response=self.sessions.seal_reply(session_id, reply),
            latency_s=latency,
        )

    def _dispatch(self, request: Request, now: float) -> Tuple[Reply, float]:
        if request.op == "offload":
            return self._dispatch_offload(request)
        # mode gates: refusals are typed and carry the retry-after hint
        if self.ladder is not None:
            if request.op == "write" and not self.ladder.allows_writes():
                self._count("writes_refused_degraded")
                return self._refusal(WireStatus.DEGRADED_READONLY), 0.0
            if request.op == "read" and not self.ladder.allows_reads():
                self._count("reads_refused_failsafe")
                return self._refusal(WireStatus.FAILSAFE), 0.0
        lpa = request.lpas[0]
        channel = self._pick_channel(lpa, now)
        if channel is None:
            self._count("no_channel_available")
            return self._refusal(WireStatus.THROTTLED), 0.0
        try:
            latency = self.data_path(request.op, lpa, channel, now)
        except DataPathFault as fault:
            self._feed_breaker(channel, ok=False, now=now)
            status = status_for_nvme(fault.status)
            self._count(f"data_path.{fault.status.name}")
            return (
                Reply(
                    status=status,
                    retry_after_s=retry_after_for(status),
                    mode=self._mode(),
                ),
                fault.latency_s,
            )
        self._feed_breaker(channel, ok=True, now=now)
        return Reply(status=WireStatus.OK, mode=self._mode()), latency

    def _dispatch_offload(self, request: Request) -> Tuple[Reply, float]:
        try:
            handle = self.library.offload_code(
                request.payload or b"\x90", lpas=list(request.lpas)
            )
        except ServiceDegradedError as err:
            status = status_for_mode(err.mode)
            self._count("offloads_refused_degraded")
            return (
                Reply(
                    status=status,
                    retry_after_s=retry_after_for(status),
                    mode=err.mode,
                ),
                0.0,
            )
        except TeeCreationError as err:
            self._count("offloads_refused_exhausted")
            return (
                Reply(
                    status=WireStatus.RESOURCE_EXHAUSTED,
                    retry_after_s=retry_after_for(WireStatus.RESOURCE_EXHAUSTED),
                    payload=str(err).encode("utf-8"),
                    mode=self._mode(),
                ),
                0.0,
            )
        self.library.execute(handle, lambda tee: b"ok:" + tee.measurement[:4])
        result = self.library.get_result(handle.tid)
        return Reply(status=WireStatus.OK, payload=result, mode=self._mode()), 250e-6


__all__ = [
    "DataPath",
    "DataPathFault",
    "OffloadService",
    "Served",
]
