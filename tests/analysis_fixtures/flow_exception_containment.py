# analysis-module: repro.core.fixture_dispatch
"""Fixture: flow-exception-containment must fire exactly once.

The broad handler converts a detected in-enclave fault into `False` —
IntegrityError/TeeAbort never reach the §4.5 abort path.
"""


def dispatch(job) -> bool:
    try:
        job.run()
        return True
    except Exception:
        return False
