"""Declared checkpoint state: one codec for every plain component.

A component that takes part in checkpoints lists the attributes a snapshot
carries once, ``STATE = ("_now", "_seq", ...)``, and inherits
:meth:`Stateful.snapshot_state` and :meth:`Stateful.restore_state`. A
dataclass that declares no ``STATE`` carries its own fields. The snapshot
key is the attribute name without its leading ``_``.

:meth:`Stateful.snapshot_state` turns the declared attributes into the
primitive tree that :mod:`repro.recovery.snapshot` encodes, by these rules
and no others:

- ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and ``tuple``
  pass through as they are;
- an ``Enum`` is stored by its value;
- a component (anything with ``snapshot_state``) is stored as its own
  snapshot, or as ``None``;
- a ``list`` or ``deque`` becomes a list;
- a ``dict`` becomes an item list in insertion order, so the fingerprint
  sees the order a restored dict must reproduce.

:meth:`Stateful.restore_state` pours a tree back in place. Each type comes
from the live attribute of the freshly built object: a container is filled
in place (so aliases and the ``OrderedDict`` and ``deque`` types survive,
and no restored list is shared with the snapshot), an enum is rebuilt from
its value, a component restores itself, and a dict whose values are
components restores them key by key. A component snapshot that arrives
where the attribute is ``None`` raises ``RuntimeError``: its owner attaches
the component before restoring.

A component whose state is made of domain records (flash OOB, mapping
entries, split-counter blocks, tenant enclaves) writes its own methods
instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, ClassVar, Dict, Tuple

# values that are already primitive; checked by exact type on the hot path
_PASS = frozenset({type(None), bool, int, float, str, bytes, tuple})
_PLAIN = (bool, int, float, str, bytes, tuple)


def _declared(cls: type) -> Tuple[str, ...]:
    """The attribute names ``cls`` declares: ``STATE``, or a dataclass's fields."""
    names: Tuple[str, ...] = getattr(cls, "STATE", ())
    if not names and is_dataclass(cls):
        return tuple(f.name for f in fields(cls))
    return names


def _key(name: str) -> str:
    return name[1:] if name.startswith("_") else name


def _tree(value: Any) -> Any:
    """The primitive tree for one attribute value (module docstring rules)."""
    if type(value) in _PASS:
        return value
    if isinstance(value, Enum):
        return value.value
    if hasattr(value, "snapshot_state"):
        return value.snapshot_state()
    if isinstance(value, (list, deque)):
        return [item if type(item) in _PASS else _tree(item) for item in value]
    if isinstance(value, dict):
        return [
            (key, item if type(item) in _PASS else _tree(item))
            for key, item in value.items()
        ]
    if isinstance(value, _PLAIN):
        return value
    raise TypeError(f"no snapshot rule for {type(value).__name__!r}")


def _fresh(value: Any) -> Any:
    """``value`` with every list copied, so live state never aliases a snapshot."""
    if type(value) is list:
        return [_fresh(item) if type(item) is list else item for item in value]
    return value


def _pour(live: Any, value: Any) -> Any:
    """Pour ``value`` into ``live``; returns what the attribute should hold."""
    if live is None:
        if isinstance(value, dict):  # only a component snapshots to a dict
            raise RuntimeError("snapshot carries component state but none is attached")
        return _fresh(value)
    if isinstance(live, Enum):
        return type(live)(value)
    if hasattr(live, "snapshot_state"):
        if value is None:
            return None
        live.restore_state(value)
        return live
    if isinstance(live, deque):
        live.clear()
        live.extend(_fresh(value))
        return live
    if isinstance(live, list):
        live[:] = _fresh(value)
        return live
    if isinstance(live, dict):
        if hasattr(next(iter(live.values()), None), "snapshot_state"):
            for key, item in value:
                live[key].restore_state(item)
            return live
        live.clear()
        for key, item in value:
            live[key] = _fresh(item) if type(item) is list else item
        return live
    return value


class Stateful:
    """Mixin: ``snapshot_state``/``restore_state`` from a declared ``STATE``."""

    STATE: ClassVar[Tuple[str, ...]] = ()

    def snapshot_state(self) -> Dict[str, Any]:
        """The declared state as a primitive tree keyed by state key."""
        return {_key(name): _tree(getattr(self, name)) for name in _declared(type(self))}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Pour ``state`` (from :meth:`snapshot_state`) back in place."""
        for name in _declared(type(self)):
            live = getattr(self, name)
            poured = _pour(live, state[_key(name)])
            if poured is not live:
                setattr(self, name, poured)


__all__ = ["Stateful"]
