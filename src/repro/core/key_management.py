"""Key management for the user → TEE secure channel (§3, §4.6).

The paper: "users are encouraged to encrypt their data … they will send
their decryption key to the TEE along with the offloaded program." This
module derives the per-session key that protects that hand-over:

1. attestation (see :mod:`repro.core.attestation`) convinces the user the
   device is genuine and runs their binary;
2. both sides derive a per-session *key-encryption key* (KEK) from the
   shared device secret, the TEE measurement, and the session nonce —
   so the KEK is bound to *this* TEE running *this* code in *this*
   session. The serve layer's handshake (:mod:`repro.serve.session`)
   derives each session's channel key this way.
"""

from __future__ import annotations

import hashlib
import hmac

KEK_BYTES = 16


def derive_kek(device_secret: bytes, measurement: bytes, nonce: bytes) -> bytes:
    """HKDF-style derivation of the session key-encryption key.

    Binding the measurement means a trojaned TEE (different code) derives
    a *different* KEK and cannot open the user's channel even on a
    genuine device.
    """
    if len(device_secret) < 16:
        raise ValueError("device secret must be at least 128 bits")
    if len(nonce) < 8:
        raise ValueError("nonce must be at least 64 bits")
    prk = hmac.new(device_secret, b"iceclave-kek" + measurement + nonce,
                   hashlib.blake2b).digest()
    return prk[:KEK_BYTES]
