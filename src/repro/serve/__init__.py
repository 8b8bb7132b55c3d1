"""repro.serve: the attested multi-tenant offload service.

The serving layer on top of the IceClave host library: nonce-challenged
remote attestation establishes per-session keys (:mod:`.session`), a
synchronous front-end (``OffloadService.handle``) dispatches sealed
requests through admission control, circuit breakers and the degradation
ladder (:mod:`.service`), and an open-loop load generator plus SLO lab
measure the whole stack under seeded multi-tenant traffic and chaos plans
(:mod:`.loadgen`, :mod:`.lab`).

See docs/SERVING.md for the handshake sequence, wire schema, and error
taxonomy.
"""

from repro.serve.lab import (
    ServeArmReport,
    ServeLabConfig,
    ServeLabReport,
    run_serve_lab,
)
from repro.serve.loadgen import (
    Arrival,
    ArrivalConfig,
    TenantProfile,
    generate_arrivals,
    make_tenants,
)
from repro.serve.service import DataPathFault, OffloadService, Served
from repro.serve.session import (
    AttestClient,
    ClientSession,
    SecureChannel,
    ServerSessionManager,
    SessionError,
)
from repro.serve.wire import (
    AttestChallenge,
    AttestGrant,
    Reply,
    Request,
    SealedEnvelope,
    WireStatus,
    retry_after_for,
    status_for_mode,
    status_for_nvme,
)

__all__ = [
    "Arrival",
    "ArrivalConfig",
    "AttestChallenge",
    "AttestClient",
    "AttestGrant",
    "ClientSession",
    "DataPathFault",
    "OffloadService",
    "Reply",
    "Request",
    "SealedEnvelope",
    "SecureChannel",
    "Served",
    "ServeArmReport",
    "ServeLabConfig",
    "ServeLabReport",
    "ServerSessionManager",
    "SessionError",
    "TenantProfile",
    "WireStatus",
    "generate_arrivals",
    "make_tenants",
    "retry_after_for",
    "run_serve_lab",
    "status_for_mode",
    "status_for_nvme",
]
