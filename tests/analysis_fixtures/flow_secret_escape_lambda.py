# analysis-module: repro.host.fixture_key_callback
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in a lambda: its body is evaluated where the lambda stands.
"""


def register(hooks: list, event_log: list, aes_key: bytes) -> None:
    hooks.append(lambda: event_log.append(aes_key))
