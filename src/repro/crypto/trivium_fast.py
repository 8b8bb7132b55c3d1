"""Word-parallel Trivium stream cipher (De Canniere & Preneel, eSTREAM).

IceClave's stream-cipher engine (§5, Figure 10) uses Trivium to cipher data
moving between flash chips and SSD DRAM, with an 80-bit key, an 80-bit IV
and the spec's 4 x 288 warm-up clocks (see
:class:`repro.core.cipher_engine.StreamCipherEngine`).

Trivium's minimum distance between any feedback input and the nearest tap
that consumes it is 65/66/69 bits, so up to 64 clocks can be evaluated at
once with word operations — exactly the property the paper's hardware
engine exploits to emit 64 keystream bits per cycle (Figure 10). This is
the only Trivium in the package; the test suite checks it bit for bit
against a literal, bit-list transcription of the specification.

Representation: each shift register is an int with the *oldest* state bit
at position 0 (register A: bit p holds s_{93-p}), so one clock is a right
shift with the feedback bit inserted at the top, and a 64-step tap window
is a plain ``(reg >> tap) & MASK64`` — no bit reversal anywhere.
"""

from __future__ import annotations

KEY_BYTES = 10  # 80-bit key
IV_BYTES = 10  # 80-bit IV

MASK64 = (1 << 64) - 1
_A_BITS, _B_BITS, _C_BITS = 93, 84, 111
_WARMUP_BLOCKS = 18  # 18 x 64 = 1152 = 4 x 288 spec warm-up clocks


def _reversed_bits(value: int, width: int) -> int:
    """Bit-reverse ``value`` within ``width`` bits."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class TriviumFast:
    """Trivium keystream generator, 64 clocks per step.

    Generates keystream in 8-byte blocks; arbitrary byte counts are served
    from an internal buffer so outputs match a bit-at-a-time generator for
    any request pattern.
    """

    def __init__(self, key: bytes, iv: bytes) -> None:
        if len(key) != KEY_BYTES or len(iv) != IV_BYTES:
            raise ValueError("Trivium needs an 80-bit key and an 80-bit IV")
        key_bits = int.from_bytes(key, "little")
        iv_bits = int.from_bytes(iv, "little")
        # key bit i sits at s_{i+1}; in oldest-first order that is bit 92-i
        self._a = _reversed_bits(key_bits, 80) << 13
        self._b = _reversed_bits(iv_bits, 80) << 4
        self._c = 0b111  # s286..s288 = 1 -> positions 2,1,0
        self._buffer = b""
        self._blocks(_WARMUP_BLOCKS)  # spec warm-up; output discarded

    def _block(self) -> int:
        """Advance 64 clocks; returns the 64 output bits (bit j = z_{t+j})."""
        a, b, c = self._a, self._b, self._c
        t1 = ((a >> 27) ^ a) & MASK64  # s66 ^ s93
        t2 = ((b >> 15) ^ b) & MASK64  # s162 ^ s177
        t3 = ((c >> 45) ^ c) & MASK64  # s243 ^ s288
        z = t1 ^ t2 ^ t3
        # feedback words (nonlinear taps + cross-register linear tap)
        new_b = (t1 ^ ((a >> 2) & (a >> 1)) ^ (b >> 6)) & MASK64  # s91.s92 + s171
        new_c = (t2 ^ ((b >> 2) & (b >> 1)) ^ (c >> 24)) & MASK64  # s175.s176 + s264
        new_a = (t3 ^ ((c >> 2) & (c >> 1)) ^ (a >> 24)) & MASK64  # s286.s287 + s69
        self._a = (a >> 64) | (new_a << (_A_BITS - 64))
        self._b = (b >> 64) | (new_b << (_B_BITS - 64))
        self._c = (c >> 64) | (new_c << (_C_BITS - 64))
        return z

    def _blocks(self, nblocks: int) -> bytes:
        """``nblocks`` x 64 keystream bits, advancing the registers."""
        block = self._block
        # collect whole 8-byte words and join once, instead of growing an
        # immutable bytes object per block
        return b"".join(block().to_bytes(8, "little") for _ in range(nblocks))

    def keystream(self, nbytes: int) -> bytes:
        """Generate ``nbytes`` of keystream (LSB-first bit packing)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        buffered = len(self._buffer)
        if buffered < nbytes:
            needed_blocks = (nbytes - buffered + 7) >> 3
            self._buffer += self._blocks(needed_blocks)
        out, self._buffer = self._buffer[:nbytes], self._buffer[nbytes:]
        return out

    def process(self, data: bytes) -> bytes:
        """XOR ``data`` with keystream (encryption and decryption alike)."""
        stream = self.keystream(len(data))
        n = len(data)
        # one big-int XOR instead of a per-byte generator
        return (
            int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(n, "little")
