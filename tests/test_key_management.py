"""Tests for the user→TEE session key derivation."""

import pytest

from repro.core.key_management import derive_kek

SECRET = b"vendor-provisioned-secret!"
MEASUREMENT = b"m" * 16
NONCE = b"n" * 16


class TestKekDerivation:
    def test_deterministic(self):
        assert derive_kek(SECRET, MEASUREMENT, NONCE) == derive_kek(
            SECRET, MEASUREMENT, NONCE
        )

    def test_measurement_binding(self):
        """A trojaned TEE (different code) derives a different KEK."""
        good = derive_kek(SECRET, MEASUREMENT, NONCE)
        evil = derive_kek(SECRET, b"e" * 16, NONCE)
        assert good != evil

    def test_session_binding(self):
        assert derive_kek(SECRET, MEASUREMENT, b"session-1") != derive_kek(
            SECRET, MEASUREMENT, b"session-2"
        )

    def test_weak_inputs_rejected(self):
        with pytest.raises(ValueError):
            derive_kek(b"short", MEASUREMENT, NONCE)
        with pytest.raises(ValueError):
            derive_kek(SECRET, MEASUREMENT, b"tiny")
