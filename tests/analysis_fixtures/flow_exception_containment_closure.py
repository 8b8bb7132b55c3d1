# analysis-module: repro.host.fixture_deferred_work
"""Fixture: flow-exception-containment must fire exactly once.

The swallowing handler sits in a closure: it is the closure's finding, not
also the enclosing function's.
"""


def defer(work):
    def run() -> None:
        try:
            work()
        except Exception:
            return None

    return run
