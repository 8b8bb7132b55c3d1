# analysis-module: repro.search.fixture_ambient
"""Fixture: det-import-random must fire exactly once.

In the search layer too, the import is the one finding: the call through
it is the same leak.
"""

import random


def pick_target(targets):
    return random.choice(targets)
