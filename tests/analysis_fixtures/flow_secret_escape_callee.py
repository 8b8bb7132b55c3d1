# analysis-module: repro.host.fixture_report_factory
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in the callee expression, which runs before the call.
"""


def make_report(header):
    return lambda: header


def publish(aes_key: bytes) -> None:
    make_report(print(aes_key))()
