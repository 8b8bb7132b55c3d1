# analysis-module: repro.host.fixture_key_rotation
"""Fixture: sec-key-containment must fire exactly once.

A loop target stores key material as surely as an assignment does.
"""


def rotate(engine, keys: list) -> None:
    for aes_key in keys:
        engine.rekey(len(keys))
