"""Tests for the crypto primitives: AES-128, Trivium, MACs, PRNG."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AES128, Mac, TriviumFast, XorShift64, mac_digest
from repro.crypto.aes import _SBOX, _gmul

TRIVIUM_STATE_BITS = 288


def _bits_from_bytes(data: bytes) -> list:
    """Expand bytes into a list of bits, LSB of each byte first (spec order)."""
    bits = []
    for byte in data:
        for i in range(8):
            bits.append((byte >> i) & 1)
    return bits


def _bytes_from_bits(bits: list) -> bytes:
    out = bytearray(len(bits) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


class TriviumReference:
    """Literal transcription of the Trivium specification (bit lists).

    Slow, and written independently of :class:`TriviumFast`: the oracle the
    word-parallel implementation is checked against bit for bit.
    """

    def __init__(self, key: bytes, iv: bytes) -> None:
        if len(key) != 10 or len(iv) != 10:
            raise ValueError("Trivium needs an 80-bit key and an 80-bit IV")
        key_bits = _bits_from_bytes(key)
        iv_bits = _bits_from_bytes(iv)
        # s1..s93 = key || 0^13 ; s94..s177 = iv || 0^4 ; s178..s288 = 0^108 || 1^3
        self._s = (
            key_bits + [0] * 13 + iv_bits + [0] * 4 + [0] * 108 + [1, 1, 1]
        )
        assert len(self._s) == TRIVIUM_STATE_BITS
        for _ in range(4 * TRIVIUM_STATE_BITS):  # spec warm-up
            self._clock()

    def _clock(self) -> int:
        s = self._s
        t1 = s[65] ^ s[92]
        t2 = s[161] ^ s[176]
        t3 = s[242] ^ s[287]
        z = t1 ^ t2 ^ t3
        t1 = t1 ^ (s[90] & s[91]) ^ s[170]
        t2 = t2 ^ (s[174] & s[175]) ^ s[263]
        t3 = t3 ^ (s[285] & s[286]) ^ s[68]
        self._s = [t3] + s[0:92] + [t1] + s[93:176] + [t2] + s[177:287]
        return z

    def keystream(self, nbytes: int) -> bytes:
        bits = [self._clock() for _ in range(nbytes * 8)]
        return _bytes_from_bits(bits)


# TriviumReference(bytes(10), bytes(10)).keystream(64): the all-zero key and
# IV vector, frozen so a change to the reference itself is caught too
ZERO_KEY_IV_KEYSTREAM = bytes.fromhex(
    "fbe0bf265859051b517a2e4e239fc97f563203161907cf2de7a8790fa1b2e9cd"
    "f75292030268b7382b4c1a759aa2599a285549986e74805903801a4cb5a5d4f2"
)


def _shift_rows(state: list) -> None:
    # state is column-major: byte r + 4c
    for row in range(1, 4):
        cols = [state[row + 4 * c] for c in range(4)]
        cols = cols[row:] + cols[:row]
        for c in range(4):
            state[row + 4 * c] = cols[c]


def _mix_columns(state: list) -> None:
    for c in range(4):
        col = state[4 * c : 4 * c + 4]
        state[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
        state[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
        state[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
        state[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)


def aes_encrypt_reference(key: bytes, block: bytes) -> bytes:
    """FIPS-197 encryption round by round on a byte state: SubBytes,
    ShiftRows, MixColumns and AddRoundKey as the standard writes them.

    Slow; the oracle the T-table :meth:`AES128.encrypt_block` is checked
    against. It shares only the S-box and the key schedule, which the
    known-answer vectors pin.
    """
    round_keys = AES128(key)._round_keys
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 11):
        state = [_SBOX[b] for b in state]
        _shift_rows(state)
        if rnd < 10:
            _mix_columns(state)
        state = [b ^ k for b, k in zip(state, round_keys[rnd])]
    return bytes(state)


class TestAes:
    def test_reference_matches_fips197_vector(self):
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes_encrypt_reference(key, plaintext) == expected

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_t_tables_match_round_by_round_reference(self, key, block):
        assert AES128(key).encrypt_block(block) == aes_encrypt_reference(key, block)

    def test_fips197_vector(self):
        """FIPS-197 Appendix C.1 known-answer test."""
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_nist_ecb_vector(self):
        """NIST SP 800-38A F.1.1 ECB-AES128 vector."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        expected = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_decrypt_inverts_encrypt(self):
        aes = AES128(b"0123456789abcdef")
        block = b"IceClave rocks!!"
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, key, block):
        aes = AES128(key)
        assert aes.decrypt_block(aes.encrypt_block(block)) == block

    def test_rejects_bad_key_size(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            AES128(b"0123456789abcdef").encrypt_block(b"tiny")

    def test_otp_deterministic_and_distinct_per_seed(self):
        aes = AES128(b"0123456789abcdef")
        pad1 = aes.otp(seed=1, nbytes=64)
        pad1_again = aes.otp(seed=1, nbytes=64)
        pad2 = aes.otp(seed=2, nbytes=64)
        assert pad1 == pad1_again
        assert pad1 != pad2
        assert len(pad1) == 64


class TestTrivium:
    def test_matches_reference_implementation(self):
        """The word-parallel implementation equals the literal spec transcription."""
        key = bytes(range(10))
        iv = bytes(range(10, 20))
        fast = TriviumFast(key, iv).keystream(64)
        slow = TriviumReference(key, iv).keystream(64)
        assert fast == slow

    @given(st.binary(min_size=10, max_size=10), st.binary(min_size=10, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_matches_reference_for_random_keys(self, key, iv):
        assert TriviumFast(key, iv).keystream(16) == TriviumReference(key, iv).keystream(16)

    def test_known_regression_vector(self):
        """Frozen all-zero key/IV output guards both implementations."""
        assert TriviumReference(bytes(10), bytes(10)).keystream(64) == ZERO_KEY_IV_KEYSTREAM
        assert TriviumFast(bytes(10), bytes(10)).keystream(64) == ZERO_KEY_IV_KEYSTREAM

    def test_encrypt_decrypt_roundtrip(self):
        key, iv = b"secretkey!", b"uniqueiv!!"
        data = b"flash page contents" * 20
        ciphertext = TriviumFast(key, iv).process(data)
        assert TriviumFast(key, iv).process(ciphertext) == data

    def test_ciphertext_differs_from_plaintext(self):
        key, iv = b"secretkey!", b"uniqueiv!!"
        data = bytes(64)
        assert TriviumFast(key, iv).process(data) != data

    def test_different_iv_different_keystream(self):
        key = b"secretkey!"
        s1 = TriviumFast(key, b"iv0000000A").keystream(32)
        s2 = TriviumFast(key, b"iv0000000B").keystream(32)
        assert s1 != s2

    def test_different_key_different_keystream(self):
        iv = b"uniqueiv!!"
        s1 = TriviumFast(b"key000000A", iv).keystream(32)
        s2 = TriviumFast(b"key000000B", iv).keystream(32)
        assert s1 != s2

    def test_rejects_wrong_key_size(self):
        with pytest.raises(ValueError):
            TriviumFast(b"short", bytes(10))
        with pytest.raises(ValueError):
            TriviumReference(b"short", bytes(10))

    @given(st.binary(min_size=0, max_size=256))
    @settings(max_examples=20, deadline=None)
    def test_xor_symmetry_property(self, data):
        key, iv = b"0123456789", b"abcdefghij"
        assert TriviumFast(key, iv).process(TriviumFast(key, iv).process(data)) == data

    def test_keystream_is_balanced(self):
        """Sanity: keystream bit bias should be small over 4 KB."""
        stream = TriviumFast(b"0123456789", b"abcdefghij").keystream(4096)
        ones = sum(bin(b).count("1") for b in stream)
        total = 4096 * 8
        assert abs(ones / total - 0.5) < 0.02


class TestMac:
    def test_deterministic(self):
        assert mac_digest(b"k", b"data") == mac_digest(b"k", b"data")

    def test_key_sensitivity(self):
        assert mac_digest(b"k1", b"data") != mac_digest(b"k2", b"data")

    def test_length_prefix_prevents_concatenation_ambiguity(self):
        assert mac_digest(b"k", b"ab", b"c") != mac_digest(b"k", b"a", b"bc")

    def test_verify(self):
        mac = Mac(b"key")
        tag = mac.digest(b"block")
        assert mac.verify(tag, b"block")
        assert not mac.verify(tag, b"tampered")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            Mac(b"")

    @given(st.binary(min_size=1, max_size=32), st.binary(max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_tag_width_constant(self, key, data):
        assert len(mac_digest(key, data)) == 8


class TestPrng:
    def test_deterministic_per_seed(self):
        a = XorShift64(seed=42)
        b = XorShift64(seed=42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_different_seeds_diverge(self):
        assert XorShift64(1).next_u64() != XorShift64(2).next_u64()

    def test_zero_seed_survives(self):
        rng = XorShift64(0)
        assert rng.next_u64() != 0

    def test_next_below_bound(self):
        rng = XorShift64(7)
        for _ in range(100):
            assert 0 <= rng.next_below(13) < 13

    def test_next_float_range(self):
        rng = XorShift64(9)
        values = [rng.next_float() for _ in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 90  # not degenerate

    def test_next_bytes_length(self):
        assert len(XorShift64(3).next_bytes(13)) == 13

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            XorShift64(3).next_below(0)


class TestTriviumFast:
    """The word-parallel engine (64 bits/step) must match the bitwise reference."""

    def test_matches_bitwise_for_page(self):
        key, iv = bytes(range(10)), bytes(range(10, 20))
        assert TriviumFast(key, iv).keystream(512) == TriviumReference(key, iv).keystream(512)

    @given(st.binary(min_size=10, max_size=10), st.binary(min_size=10, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_matches_bitwise_property(self, key, iv):
        assert TriviumFast(key, iv).keystream(48) == TriviumReference(key, iv).keystream(48)

    def test_unaligned_requests_match(self):
        """Byte counts that straddle 64-bit block boundaries still agree."""
        key, iv = b"0123456789", b"abcdefghij"
        fast = TriviumFast(key, iv)
        slow = TriviumReference(key, iv)
        chunks_fast = [fast.keystream(n) for n in (1, 7, 13, 64, 3)]
        chunks_slow = [slow.keystream(n) for n in (1, 7, 13, 64, 3)]
        assert chunks_fast == chunks_slow

    def test_process_roundtrip(self):
        key, iv = b"0123456789", b"abcdefghij"
        data = b"a 4KB flash page worth of user data" * 10
        ct = TriviumFast(key, iv).process(data)
        assert TriviumFast(key, iv).process(ct) == data

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            TriviumFast(b"short", bytes(10))
        with pytest.raises(ValueError):
            TriviumFast(bytes(10), bytes(10)).keystream(-1)
