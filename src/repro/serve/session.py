"""Session establishment and the per-session secure channel.

This is the key TCB of the serving layer (it is listed in the analysis
suite's ``KEY_TCB_MODULES``): session keys are derived, held, and used
here, and nowhere else in ``repro.serve``.

The protocol is the canonical attested-channel bootstrap:

1. the client draws a fresh nonce from its :class:`AttestationVerifier`
   (replay-hardened: re-offering the same entropy is refused) and sends an
   :class:`~repro.serve.wire.AttestChallenge`;
2. the server quotes its code measurement over the nonce with its
   vendor-provisioned :class:`AttestationDevice` and answers with an
   :class:`~repro.serve.wire.AttestGrant` naming a session id;
3. the client verifies the quote (device identity, signature, *expected*
   measurement, nonce freshness). Both sides then derive the session key
   with :func:`~repro.core.key_management.derive_kek` — but the client
   derives it from the measurement it *expected*, so even a client that
   skipped verification would end up keyless against a trojaned server:
   the key simply does not match.

Requests and replies travel as :class:`~repro.serve.wire.SealedEnvelope`
(encrypt-then-MAC, keystream XOR): the MAC binds session id, direction and
a per-direction monotonic sequence number, and the server accepts client
sequence numbers strictly in order — a recorded envelope replays as
``AUTH_FAILED``, never as a second execution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.attestation import (
    AttestationDevice,
    AttestationError,
    AttestationVerifier,
    measure_code,
)
from repro.core.key_management import derive_kek
from repro.core.tee import Tee
from repro.crypto.mac import Mac
from repro.serve.wire import (
    AttestChallenge,
    AttestGrant,
    Reply,
    Request,
    SealedEnvelope,
    WireStatus,
)

CHANNEL_C2S = b"c2s"
CHANNEL_S2C = b"s2c"


class SessionError(Exception):
    """A wire-level session failure, carrying its typed status."""

    def __init__(self, status: WireStatus, what: str) -> None:
        super().__init__(what)
        self.status = status


def _keystream(session_key: bytes, session_id: int, channel: bytes,
               seq: int, nbytes: int) -> bytes:
    out = bytearray()
    counter = 0
    prefix = (
        session_key
        + session_id.to_bytes(8, "big")
        + channel
        + seq.to_bytes(8, "big")
    )
    while len(out) < nbytes:
        out.extend(
            hashlib.blake2b(
                prefix + counter.to_bytes(4, "big"), digest_size=32
            ).digest()
        )
        counter += 1
    return bytes(out[:nbytes])


def _xor(data: bytes, pad: bytes) -> bytes:
    """``data`` XOR an equal-length ``pad``, as two big integers."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(pad, "big")).to_bytes(len(data), "big")


class SecureChannel:
    """Seal/open primitive bound to one session key.

    Encrypt-then-MAC: the tag covers (session id, direction, sequence,
    ciphertext), so tampering, replaying, or reflecting an envelope onto
    the other direction all fail authentication.
    """

    def __init__(self, session_id: int, session_key: bytes) -> None:
        if len(session_key) < 16:
            raise ValueError("session key must be at least 128 bits")
        self.session_id = session_id
        self._mac = Mac(session_key)
        self._seal_key = session_key

    def seal(self, channel: bytes, seq: int, plaintext: bytes) -> SealedEnvelope:
        pad = _keystream(self._seal_key, self.session_id, channel, seq,
                         len(plaintext))
        ciphertext = _xor(plaintext, pad)
        tag = self._mac.digest(
            self.session_id.to_bytes(8, "big"),
            channel,
            seq.to_bytes(8, "big"),
            ciphertext,
        )
        return SealedEnvelope(
            session_id=self.session_id,
            channel=channel,
            seq=seq,
            ciphertext=ciphertext,
            tag=tag,
        )

    def open(self, envelope: SealedEnvelope, channel: bytes, seq: int) -> bytes:
        if envelope.channel != channel:
            raise SessionError(WireStatus.AUTH_FAILED, "wrong channel direction")
        if envelope.seq != seq:
            raise SessionError(
                WireStatus.AUTH_FAILED,
                f"sequence {envelope.seq} != expected {seq} (replay or loss)",
            )
        ok = self._mac.verify(
            envelope.tag,
            envelope.session_id.to_bytes(8, "big"),
            envelope.channel,
            envelope.seq.to_bytes(8, "big"),
            envelope.ciphertext,
        )
        if not ok:
            raise SessionError(WireStatus.AUTH_FAILED, "envelope MAC invalid")
        pad = _keystream(self._seal_key, envelope.session_id, channel, seq,
                         len(envelope.ciphertext))
        return _xor(envelope.ciphertext, pad)


@dataclass
class ServerSession:
    """Server-side per-session state: the channel plus sequence cursors."""

    session_id: int
    client_id: int
    channel: SecureChannel
    next_c2s: int = 0  # next client sequence number we will accept
    next_s2c: int = 0  # next server sequence number we will emit


class ServerSessionManager:
    """The service's session table and attestation responder.

    Holds the device-side quoting facility and the binary the service
    actually runs; ``attest`` answers challenges with a quote over that
    binary's measurement, which is exactly what a tampered deployment
    cannot fake.
    """

    def __init__(
        self,
        device: AttestationDevice,
        device_secret: bytes,
        binary: bytes,
    ) -> None:
        self._device = device
        self._secret = device_secret
        # the service's code identity, quoted during every handshake
        self._identity = Tee(eid=1, tid=0, code=binary, lpas=[0])
        self._sessions: Dict[int, ServerSession] = {}
        self._next_session_id = 1

    @property
    def established(self) -> int:
        return len(self._sessions)

    def attest(self, challenge: AttestChallenge) -> AttestGrant:
        """Answer a challenge: quote the running binary, open a session."""
        quote = self._device.quote(self._identity, challenge.nonce)
        session_key = derive_kek(
            self._secret, self._identity.measurement, challenge.nonce
        )
        session_id = self._next_session_id
        self._next_session_id += 1
        self._sessions[session_id] = ServerSession(
            session_id=session_id,
            client_id=challenge.client_id,
            channel=SecureChannel(session_id, session_key),
        )
        return AttestGrant(session_id=session_id, quote=quote)

    def session(self, session_id: int) -> ServerSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(
                WireStatus.UNKNOWN_SESSION, f"no session {session_id}"
            ) from None

    def open_request(self, envelope: SealedEnvelope) -> Request:
        """Authenticate, decrypt and decode one client envelope.

        The accepted sequence cursor only advances on success, so a
        replayed or tampered envelope cannot desynchronize the session.
        """
        session = self.session(envelope.session_id)
        plaintext = session.channel.open(envelope, CHANNEL_C2S, session.next_c2s)
        try:
            request = Request.decode(plaintext)
        except ValueError as err:
            raise SessionError(WireStatus.BAD_REQUEST, str(err)) from err
        session.next_c2s += 1
        return request

    def seal_reply(self, session_id: int, reply: Reply) -> SealedEnvelope:
        session = self.session(session_id)
        envelope = session.channel.seal(
            CHANNEL_S2C, session.next_s2c, reply.encode()
        )
        session.next_s2c += 1
        return envelope

    def close(self, session_id: int) -> None:
        self._sessions.pop(session_id, None)


class ClientSession:
    """Client-side view of one established session."""

    def __init__(self, session_id: int, channel: SecureChannel) -> None:
        self.session_id = session_id
        self._channel = channel
        self._next_c2s = 0
        self._next_s2c = 0

    def seal_request(self, request: Request) -> SealedEnvelope:
        envelope = self._channel.seal(
            CHANNEL_C2S, self._next_c2s, request.encode()
        )
        self._next_c2s += 1
        return envelope

    def open_reply(self, envelope: SealedEnvelope) -> Reply:
        plaintext = self._channel.open(envelope, CHANNEL_S2C, self._next_s2c)
        self._next_s2c += 1
        return Reply.decode(plaintext)


class AttestClient:
    """The user-side endpoint: challenge, verify, derive, then submit.

    ``expected_binary`` is the program the client believes the service
    runs; the quote's measurement must match it, and the session key is
    derived from that expectation (not from whatever the server claims).
    """

    def __init__(
        self,
        verifier: AttestationVerifier,
        device_secret: bytes,
        expected_binary: bytes,
    ) -> None:
        self._verifier = verifier
        self._secret = device_secret
        self._expected_binary = expected_binary
        self._expected_measurement = measure_code(expected_binary)

    def challenge(self, client_id: int, entropy: bytes) -> AttestChallenge:
        """Draw a fresh nonce; reused entropy raises AttestationError."""
        return AttestChallenge(
            client_id=client_id, nonce=self._verifier.fresh_nonce(entropy)
        )

    def establish(
        self, challenge: AttestChallenge, grant: AttestGrant
    ) -> ClientSession:
        """Verify the grant's quote and derive the session.

        Raises :class:`AttestationError` when the quote names a different
        measurement (a trojaned service), a wrong device, or a consumed
        challenge — the session is never created in that case.
        """
        self._verifier.verify(
            grant.quote,
            expected_code=self._expected_binary,
            nonce=challenge.nonce,
        )
        session_key = derive_kek(
            self._secret, self._expected_measurement, challenge.nonce
        )
        return ClientSession(
            grant.session_id, SecureChannel(grant.session_id, session_key)
        )

    def handshake(
        self,
        responder: ServerSessionManager,
        client_id: int,
        entropy: bytes,
    ) -> ClientSession:
        """Full challenge → grant → verify round against ``responder``."""
        challenge = self.challenge(client_id, entropy)
        grant = responder.attest(challenge)
        return self.establish(challenge, grant)


def try_handshake(
    client: AttestClient,
    responder: ServerSessionManager,
    client_id: int,
    entropy: bytes,
) -> Optional[ClientSession]:
    """Handshake that returns ``None`` on refusal instead of raising."""
    try:
        return client.handshake(responder, client_id, entropy)
    except AttestationError:
        return None


__all__ = [
    "AttestClient",
    "CHANNEL_C2S",
    "CHANNEL_S2C",
    "ClientSession",
    "SecureChannel",
    "ServerSession",
    "ServerSessionManager",
    "SessionError",
    "try_handshake",
]
