# analysis-module: repro.host.fixture_pad_trace
"""Fixture: flow-secret-escape must fire exactly once.

`otp` is neither a parameter nor a key-minting call's output: reading a
secret-shaped name is itself a taint source.
"""


def trace_pad(engine, page: int) -> None:
    otp = engine.pad_for(page)
    print(page, otp)
