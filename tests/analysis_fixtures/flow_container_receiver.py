# analysis-module: repro.core.fixture_containers
"""Fixture: the same-name call fallback and builtin-container receivers.

`Memo.get` and `Table.items` are the only project methods of their names,
so a call on an untyped receiver falls back to them. A receiver the
function, or its class's __init__, declared or built as a dict must not.
"""


class Memo:
    def get(self, key):
        return key


class Table:
    def items(self):
        return []


def read_state(state: dict, key):
    return state.get(key)  # dict.get: no edge


def untyped_items(table):
    return table.items()  # unknown receiver: keeps the Table.items edge


class Holder:
    def __init__(self, helper):
        self.store = {}
        self.helper = helper

    def dump(self):
        return sorted(self.store.items())  # dict.items: no edge

    def lookup(self, key):
        return self.helper.get(key)  # unknown receiver: keeps the Memo.get edge
