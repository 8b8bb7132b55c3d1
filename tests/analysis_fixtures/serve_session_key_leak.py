# analysis-module: repro.serve.fixture_frontend
"""Fixture: flow-secret-escape must fire exactly once.

`channel_key` is serve-handshake key vocabulary: a read of it is a taint
source, so printing it outside repro.serve.session is a leak. Nothing
stores it, so sec-key-containment stays quiet.
"""


def trace_handshake(tenant_id: int, channel_key: bytes) -> None:
    print(tenant_id, channel_key.hex())
