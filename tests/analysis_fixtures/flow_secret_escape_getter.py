# analysis-module: repro.host.fixture_key_holder
"""Fixture: flow-secret-escape must fire exactly once.

The sink sits in a property getter whose setter binds the same name: both
bodies stay units of their own.
"""


class KeyHolder:
    @property
    def size(self) -> int:
        print(self.aes_key)
        return 16

    @size.setter
    def size(self, value: int) -> None:
        self._size = value
