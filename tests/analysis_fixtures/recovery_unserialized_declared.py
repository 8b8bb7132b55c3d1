"""Fixture: trips recovery-unserialized-state exactly once, on a declared class.

The class inherits snapshot_state/restore_state and names its serialized
attributes in ``STATE``, so ``cursor`` and ``_log`` are covered. The
``misses`` counter is created in ``__init__`` but left out of ``STATE``:
it silently resets on restore. ``chip`` is an injected collaborator (Name
initializer), so it does not fire.
"""

from repro.sim.state import Stateful


class DeclaredQueue(Stateful):
    STATE = ("cursor", "_log")

    def __init__(self, chip):
        self.chip = chip
        self.cursor = 0
        self._log = []
        self.misses = 0
