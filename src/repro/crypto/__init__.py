"""Cryptographic primitives used by IceClave's protection machinery.

- :mod:`repro.crypto.trivium_fast` — the Trivium stream cipher (De Canniere
  & Preneel), 64 keystream bits per step, used by the flash→DRAM
  stream-cipher engine (§5 of the paper).
- :mod:`repro.crypto.aes` — AES-128, used as the block cipher that turns
  encryption counters into one-time pads in the MEE (§4.4).
- :mod:`repro.crypto.mac` — keyed MACs for memory integrity (Bonsai Merkle
  tree nodes).
- :mod:`repro.crypto.prng` — deterministic xorshift PRNG used to build
  stream-cipher IVs (PPA ‖ PRNG output).
"""

from repro.crypto.aes import AES128
from repro.crypto.mac import Mac, mac_digest
from repro.crypto.prng import XorShift64
from repro.crypto.trivium_fast import TriviumFast

__all__ = ["AES128", "Mac", "mac_digest", "XorShift64", "TriviumFast"]
