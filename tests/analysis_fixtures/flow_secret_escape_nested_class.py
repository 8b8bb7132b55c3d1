# analysis-module: repro.host.fixture_probe_factory
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in a method of a class defined inside a function.
"""


def make_probe():
    class Probe:
        def dump(self) -> None:
            print(self.mac_key)

    return Probe
