"""Fixture: flow-exception-containment must fire exactly once."""


def swallow(action) -> bool:
    try:
        action()
        return True
    except Exception:
        return False
