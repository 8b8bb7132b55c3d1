# analysis-module: repro.host.fixture_dump_hook
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in a closure: a nested def is a flow unit of its own.
"""


def make_dump_hook(engine):
    def dump() -> None:
        print(engine.aes_key)

    return dump
