# analysis-module: repro.core.fixture_dispatch_ok
"""Near-miss: the broad handler provably reaches the §4.5 abort helper.

`escalate` does not raise or call the abort helper *syntactically* — only
the call-graph fixpoint (escalate -> throw_out_tee -> raise TeeAbort)
proves containment.
"""


class TeeAbort(Exception):
    pass


def throw_out_tee(err: Exception) -> None:
    raise TeeAbort(str(err))


def escalate(err: Exception) -> None:
    throw_out_tee(err)


def dispatch(job) -> bool:
    try:
        job.run()
        return True
    except Exception as err:
        escalate(err)
        return False
