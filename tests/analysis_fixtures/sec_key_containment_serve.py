# analysis-module: repro.serve.fixture_tenant_cache
"""Fixture: sec-key-containment must fire exactly once.

`channel_key` is serve-handshake vocabulary: stored anywhere outside the
key TCB (which holds repro.serve.session), it is a finding.
"""


def remember(cache: dict, tenant: int, handshake) -> None:
    channel_key = handshake.finish()
    cache[tenant] = channel_key
