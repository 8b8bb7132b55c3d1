# analysis-module: repro.host.fixture_optional_dump
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in a def under a module-level `try`: it is indexed like any
other function.
"""

try:
    import accelerator
except ImportError:
    accelerator = None

    def dump(engine) -> None:
        print(engine.aes_key)
