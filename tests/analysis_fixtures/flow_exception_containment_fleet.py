# analysis-module: repro.fleet.fixture_probe
"""Fixture: flow-exception-containment must fire exactly once.

The rule covers every package: a fleet probe that turns any fault into
`False` swallows a detected attack as surely as enclave dispatch would.
"""


def probe(device) -> bool:
    try:
        return device.ping()
    except Exception:
        return False
