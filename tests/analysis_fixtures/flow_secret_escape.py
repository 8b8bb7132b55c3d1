# analysis-module: repro.core.fixture_flow_leak
"""Fixture: flow-secret-escape must fire exactly once.

`material` is not a secret-shaped name: only the taint fixpoint sees that
it IS the session key, read one line above.
"""


def debug_trace(session_key: bytes) -> None:
    material = session_key
    print(material.hex())
