"""Stream-cipher engine securing flash→DRAM transfers (§5, Figure 10).

Sits in the SSD controller between the flash controllers and SSD DRAM.
The symmetric key lives in a secure register; the IV is public and is
composed of the flash physical page address (spatial uniqueness)
concatenated with PRNG output (temporal uniqueness), so no IV repeats for
different pages or for reuses of the same page. The keystream is XORed
with the data; the word-parallel Trivium (64 bits per step, matching the
64 keystream bits/cycle of Figure 10) generates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.config import IceClaveConfig
from repro.crypto.prng import XorShift64
from repro.crypto.trivium_fast import IV_BYTES, KEY_BYTES, TriviumFast


@dataclass
class CipherStats:
    pages_encrypted: int = 0
    pages_decrypted: int = 0
    bytes_processed: int = 0


class StreamCipherEngine:
    """Trivium-based page cipher with PPA-||-PRNG IV construction."""

    def __init__(
        self,
        key: bytes,
        config: IceClaveConfig = IceClaveConfig(),
        prng_seed: int = 0xC0FFEE,
    ) -> None:
        if len(key) != KEY_BYTES:
            raise ValueError(f"stream cipher key must be {KEY_BYTES} bytes")
        self._key = key  # held in a secure register; never leaves the engine
        self.config = config
        self._prng = XorShift64(prng_seed)
        self.stats = CipherStats()
        self._seen_ivs: Dict[bytes, int] = {}

    def make_iv(self, ppa: int) -> bytes:
        """IV = PPA (8 bytes) ‖ PRNG output (2 bytes) — 80 bits total.

        The PPA gives spatial uniqueness across pages; the PRNG component
        gives temporal uniqueness across re-reads of the same page.
        """
        ppa_part = (ppa & ((1 << 64) - 1)).to_bytes(8, "little")
        rand_part = self._prng.next_bytes(IV_BYTES - 8)
        iv = ppa_part + rand_part
        self._seen_ivs[iv] = self._seen_ivs.get(iv, 0) + 1
        return iv

    def encrypt_page(self, ppa: int, data: bytes) -> Tuple[bytes, bytes]:
        """Cipher a page leaving the flash controller; returns (iv, ciphertext)."""
        iv = self.make_iv(ppa)
        ciphertext = TriviumFast(self._key, iv).process(data)
        self.stats.pages_encrypted += 1
        self.stats.bytes_processed += len(data)
        return iv, ciphertext

    def decrypt_page(self, iv: bytes, ciphertext: bytes) -> bytes:
        """Decipher a page on arrival (same keystream, XOR symmetric)."""
        if len(iv) != IV_BYTES:
            raise ValueError(f"IV must be {IV_BYTES} bytes")
        plaintext = TriviumFast(self._key, iv).process(ciphertext)
        self.stats.pages_decrypted += 1
        self.stats.bytes_processed += len(ciphertext)
        return plaintext

    def page_latency(self) -> float:
        """Time to cover one flash page with keystream (pipelined)."""
        return self.config.cipher_page_latency()

    def iv_reuse_count(self) -> int:
        """Number of IV values handed out more than once (should be 0)."""
        return sum(1 for count in self._seen_ivs.values() if count > 1)
