# analysis-module: repro.host.fixture_traced_hook
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in a nested def's decorator argument, which runs in the
enclosing function.
"""


def install(event_log: list, aes_key: bytes, hook):
    @hook(event_log.append(aes_key))
    def on_read() -> int:
        return 1

    return on_read
