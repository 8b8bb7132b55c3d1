"""Declared checkpoint state: one codec for every plain component.

A component that takes part in checkpoints lists the attributes a snapshot
carries once, ``STATE = ("_now", "_seq", ...)``, and inherits
:meth:`Stateful.snapshot_state` and :meth:`Stateful.restore_state`. A
dataclass that declares no ``STATE`` carries its own fields. The snapshot
key is the attribute name without its leading ``_``.

:meth:`Stateful.snapshot_state` turns the declared attributes into the
primitive tree that :func:`encode_canonical` encodes, by these rules and
no others:

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

The same primitive trees have one canonical encoding
(:func:`encode_canonical`, read back by :func:`decode_canonical`) and one
hash (:func:`canonical_fingerprint`). Snapshot files
(:mod:`repro.recovery.snapshot`) are that encoding, and a :class:`Record`
(a lab report) hashes its dataclass fields with it.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from typing import Any, ClassVar, Dict, List, Tuple

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



# -- canonical encoding --------------------------------------------------------

# containers nested deeper than this do not decode (a chaos snapshot nests 12)
_MAX_DEPTH = 100
_INT = re.compile(rb"-?[0-9]+")
_LENGTH = re.compile(rb"[0-9]+")
_ATOMS = {b"N;": None, b"T;": True, b"F;": False}
_OPENERS = {b"L": b"[", b"U": b"[", b"M": b"{"}
_CLOSERS = {b"L": b"]", b"U": b"]", b"M": b"}"}


def _encode(value: Any, out: List[bytes]) -> None:
    """Append a type-tagged, unambiguous encoding of ``value`` to ``out``.

    Only primitives are accepted; anything else raises ``TypeError`` at
    encode time, which is what keeps object graphs out of the format.
    ``bool`` is checked before ``int`` (it is a subclass), floats go through
    ``repr`` (shortest round-trip text, stable across supported CPython
    versions), and a mapping's pairs are sorted by their encoded key, so
    insertion order does not reach the bytes.
    """
    if value is None:
        out.append(b"N;")
    elif value is True:
        out.append(b"T;")
    elif value is False:
        out.append(b"F;")
    elif isinstance(value, int):
        out.append(b"I%d;" % value)
    elif isinstance(value, float):
        out.append(b"D" + repr(value).encode("ascii") + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"S%d:" % len(data))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"B%d:" % len(value))
        out.append(value)
    elif isinstance(value, (list, tuple)):
        out.append(b"L%d[" % len(value) if isinstance(value, list) else b"U%d[" % len(value))
        for item in value:
            _encode(item, out)
        out.append(b"]")
    elif isinstance(value, dict):
        pairs = []
        for key, val in value.items():
            key_parts: List[bytes] = []
            _encode(key, key_parts)
            val_parts: List[bytes] = []
            _encode(val, val_parts)
            pairs.append((b"".join(key_parts), b"".join(val_parts)))
        pairs.sort()
        out.append(b"M%d{" % len(pairs))
        for key_bytes, val_bytes in pairs:
            out.append(key_bytes)
            out.append(val_bytes)
        out.append(b"}")
    else:
        raise TypeError(
            f"snapshot state must be primitive; got {type(value).__name__!r}"
        )


def encode_canonical(value: Any) -> bytes:
    """The canonical encoding of ``value`` (``TypeError`` on non-primitives)."""
    parts: List[bytes] = []
    _encode(value, parts)
    return b"".join(parts)


def canonical_fingerprint(value: Any) -> str:
    """sha256 hex digest of the canonical encoding of ``value``."""
    return hashlib.sha256(encode_canonical(value)).hexdigest()


def decode_canonical(data: bytes) -> Any:
    """Rebuild the value whose :func:`encode_canonical` output is ``data``.

    Builds only the types the encoder emits and runs nothing from the
    input. Raises ``ValueError`` on any malformed input: an unknown tag, a
    length or count past the end, nesting deeper than ``_MAX_DEPTH``, an
    unhashable mapping key, or bytes after the value.
    """
    value, pos = _decode(data, 0, 0)
    if pos != len(data):
        raise ValueError(f"trailing bytes at offset {pos}")
    return value


def _field(
    data: bytes, pos: int, end: bytes, pattern: "re.Pattern[bytes]"
) -> Tuple[bytes, int]:
    """The token from ``pos`` up to the ``end`` byte, and the offset after it."""
    stop = data.find(end, pos)
    if stop < 0 or not pattern.fullmatch(data, pos, stop):
        raise ValueError(f"malformed token at offset {pos}")
    return data[pos:stop], stop + 1


def _decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """The value encoded at ``pos`` (``depth`` containers deep), and the offset after it."""
    atom = data[pos : pos + 2]
    if atom in _ATOMS:
        return _ATOMS[atom], pos + 2
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"I":
        text, pos = _field(data, pos, b";", _INT)
        return int(text), pos
    if tag == b"D":
        stop = data.find(b";", pos)
        if stop < 0:
            raise ValueError(f"unterminated float at offset {pos}")
        return float(data[pos:stop]), stop + 1
    if tag in (b"S", b"B"):
        text, pos = _field(data, pos, b":", _LENGTH)
        end = pos + int(text)
        if end > len(data):
            raise ValueError(f"length {int(text)} at offset {pos} runs past the end")
        chunk = data[pos:end]
        return (str(chunk, "utf-8") if tag == b"S" else chunk), end
    if tag in _OPENERS:
        if depth >= _MAX_DEPTH:
            raise ValueError(f"nesting deeper than {_MAX_DEPTH} at offset {pos}")
        text, pos = _field(data, pos, _OPENERS[tag], _LENGTH)
        items: List[Any] = []
        for _ in range(int(text) * (2 if tag == b"M" else 1)):
            item, pos = _decode(data, pos, depth + 1)
            items.append(item)
        if data[pos : pos + 1] != _CLOSERS[tag]:
            raise ValueError(f"unclosed container at offset {pos}")
        pos += 1
        if tag == b"L":
            return items, pos
        if tag == b"U":
            return tuple(items), pos
        try:
            return dict(zip(items[::2], items[1::2])), pos
        except TypeError as exc:  # an unhashable (list or dict) key
            raise ValueError(f"bad mapping key before offset {pos}: {exc}") from exc
    raise ValueError(f"unknown tag {tag!r} at offset {pos - 1}")


class Record:
    """Mixin for a dataclass report whose fields are its whole record.

    :meth:`fingerprint` hashes every field, so a field added later is
    covered without a second list to keep in step; :meth:`as_dict` is one
    arm's JSON view.
    """

    def fingerprint(self: Any) -> str:
        """sha256 of the canonical encoding of every field, nested records included."""
        return canonical_fingerprint(asdict(self))

    def as_dict(self: Any) -> Dict[str, Any]:
        """Every field except ``event_log``, plus the fingerprint."""
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "event_log"}
        record["fingerprint"] = self.fingerprint()
        return record


__all__ = [
    "Record",
    "Stateful",
    "canonical_fingerprint",
    "decode_canonical",
    "encode_canonical",
]
