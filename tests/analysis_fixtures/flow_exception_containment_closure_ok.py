# analysis-module: repro.host.fixture_guarded_work
"""Fixture: flow-exception-containment must stay silent.

The handler calls a def nested in the function, which raises TeeAbort: the
bare call resolves to the closure, so the handler is proven contained.
"""


def guarded(work) -> None:
    def abort() -> None:
        raise TeeAbort("program fault")

    try:
        work()
    except Exception:
        abort()
