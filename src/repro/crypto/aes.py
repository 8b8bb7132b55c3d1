"""AES-128 block cipher (FIPS-197), pure Python.

The MEE (§4.4) generates one-time pads by encrypting encryption counters
with a block cipher; the paper assumes AES-128 with a 60 ns hardware delay
(Table 3). This implementation is functional — used to really produce OTPs
in functional-mode simulations and in tests — while the timing models charge
the configured hardware latency instead of Python's execution time.
"""

from __future__ import annotations

BLOCK_BYTES = 16
KEY_BYTES = 16
_ROUNDS = 10

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# xtime: multiplication by 2 in GF(2^8), reduced by the AES polynomial
_XTIME = [(a << 1) ^ (0x11B if a & 0x80 else 0) for a in range(256)]
# Encryption T-tables: Tr[x] is the MixColumns column S[x] adds from row r, as a big-endian
# word: T0[x] = (2·S[x], S[x], S[x], 3·S[x]), T1..T3 its rotations. As 3·s = 2·s ^ s, it is
# 2·s times a mask of the bytes with factor 2 or 3, XOR s times a mask of those with 1 or 3.
_MUL2 = bytes(_SBOX).translate(bytes(_XTIME))
_T0, _T1, _T2, _T3 = (
    [m * two ^ s * one for s, m in zip(_SBOX, _MUL2)]
    for two, one in (
        (0x01000001, 0x00010101),
        (0x01010000, 0x01000101),
        (0x00010100, 0x01010001),
        (0x00000101, 0x01010100),
    )
)


def _gmul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _XTIME[a]
        b >>= 1
    return result


class AES128:
    """AES-128 supporting single-block encrypt/decrypt and CTR-style OTPs."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_BYTES:
            raise ValueError("AES-128 requires a 16-byte key")
        self._round_keys = self._expand_key(key)
        flat = bytes(sum(self._round_keys, []))  # encryption reads them as 32-bit words
        self._words = [int.from_bytes(flat[i : i + 4], "big") for i in range(0, len(flat), 4)]

    @staticmethod
    def _expand_key(key: bytes) -> list:
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 4 * (_ROUNDS + 1)):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        return [sum(words[4 * r : 4 * r + 4], []) for r in range(_ROUNDS + 1)]

    @staticmethod
    def _add_round_key(state: list, rk: list) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list, box: list) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _inv_shift_rows(state: list) -> None:
        for row in range(1, 4):
            cols = [state[row + 4 * c] for c in range(4)]
            cols = cols[-row:] + cols[:-row]
            for c in range(4):
                state[row + 4 * c] = cols[c]

    @staticmethod
    def _inv_mix_columns(state: list) -> None:
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = (
                _gmul(col[0], 14) ^ _gmul(col[1], 11) ^ _gmul(col[2], 13) ^ _gmul(col[3], 9)
            )
            state[4 * c + 1] = (
                _gmul(col[0], 9) ^ _gmul(col[1], 14) ^ _gmul(col[2], 11) ^ _gmul(col[3], 13)
            )
            state[4 * c + 2] = (
                _gmul(col[0], 13) ^ _gmul(col[1], 9) ^ _gmul(col[2], 14) ^ _gmul(col[3], 11)
            )
            state[4 * c + 3] = (
                _gmul(col[0], 11) ^ _gmul(col[1], 13) ^ _gmul(col[2], 9) ^ _gmul(col[3], 14)
            )

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_BYTES:
            raise ValueError("AES block must be 16 bytes")
        rk = self._words
        x = int.from_bytes(block, "big")  # the state as four big-endian column words
        s0, s1, s2, s3 = x >> 96, x >> 64 & 0xFFFFFFFF, x >> 32 & 0xFFFFFFFF, x & 0xFFFFFFFF
        s0, s1, s2, s3 = s0 ^ rk[0], s1 ^ rk[1], s2 ^ rk[2], s3 ^ rk[3]
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        for r in range(4, 4 * _ROUNDS, 4):  # SubBytes, ShiftRows, MixColumns, AddRoundKey
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ rk[r],
                t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ rk[r + 1],
                t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ rk[r + 2],
                t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ rk[r + 3],
            )
        sb = _SBOX  # the last round has no MixColumns
        w0 = sb[s0 >> 24] << 24 | sb[s1 >> 16 & 255] << 16 | sb[s2 >> 8 & 255] << 8 | sb[s3 & 255]
        w1 = sb[s1 >> 24] << 24 | sb[s2 >> 16 & 255] << 16 | sb[s3 >> 8 & 255] << 8 | sb[s0 & 255]
        w2 = sb[s2 >> 24] << 24 | sb[s3 >> 16 & 255] << 16 | sb[s0 >> 8 & 255] << 8 | sb[s1 & 255]
        w3 = sb[s3 >> 24] << 24 | sb[s0 >> 16 & 255] << 16 | sb[s1 >> 8 & 255] << 8 | sb[s2 & 255]
        out = (w0 ^ rk[40]) << 96 | (w1 ^ rk[41]) << 64 | (w2 ^ rk[42]) << 32 | (w3 ^ rk[43])
        return out.to_bytes(BLOCK_BYTES, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_BYTES:
            raise ValueError("AES block must be 16 bytes")
        state = list(block)
        self._add_round_key(state, self._round_keys[_ROUNDS])
        for rnd in range(_ROUNDS - 1, 0, -1):
            self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, self._round_keys[rnd])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)

    def otp(self, seed: int, nbytes: int) -> bytes:
        """Derive a one-time pad by encrypting counter blocks seeded by ``seed``.

        This is the split-counter MEE construction: the pad for a cache line
        is AES(counter ‖ address), XORed with the data (§4.4).
        """
        out = bytearray()
        block_index = 0
        seed &= (1 << 96) - 1
        while len(out) < nbytes:
            block = ((seed << 32) | (block_index & 0xFFFFFFFF)).to_bytes(16, "big")
            out.extend(self.encrypt_block(block))
            block_index += 1
        return bytes(out[:nbytes])
