# analysis-module: repro.host.fixture_local_emit
"""Fixture: flow-secret-escape must fire exactly once.

A bare call to a def nested in the function resolves to it, so the key
passed to the closure reaches its sink.
"""


def trace(aes_key: bytes) -> None:
    def emit(value) -> None:
        print(value)

    emit(aes_key)
