"""Versioned, content-fingerprinted whole-stack snapshots.

A snapshot is a plain-primitive tree (``None``/``bool``/``int``/``float``/
``str``/``bytes``/``list``/``tuple``/``dict``) produced by a component's
``snapshot_state()`` and consumed by its ``restore_state()``. Keeping the
payload primitive does three things at once:

- the state is *inspectable* (no opaque object graphs inside a snapshot);
- it can be canonically encoded, so every snapshot carries a ``sha256``
  content fingerprint — the same discipline as
  :meth:`repro.platform.metrics.RunResult.fingerprint` — and a corrupted
  file is rejected at load time rather than restored into a subtly wrong
  simulator;
- restore cannot resurrect stale code: classes are rebuilt by the current
  constructors and only their *state* comes from the file.

Mappings in component state are snapshotted as insertion-ordered item
*lists* (:mod:`repro.sim.state`), so the fingerprint captures the order a
restored dict must reproduce, not just its contents.

A snapshot file is that fingerprint as 64 hex characters and a newline,
then the canonical encoding it hashes. Loading checks the digest before it
looks at the body, and decodes the body with a parser that builds only the
primitive types above: nothing in a file is ever executed.

Format compatibility policy: ``SNAPSHOT_VERSION`` bumps whenever any
participating ``snapshot_state()`` changes shape. Loaders reject other
versions outright (:class:`SnapshotVersionError`) — snapshots are
checkpoint/resume artifacts for a single code version, not an archival
format, so there is no migration machinery to get wrong.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Bump on any change to a participating ``snapshot_state()`` payload shape.
SNAPSHOT_VERSION = 3

_FORMAT_MARKER = "repro-snapshot"
# containers nested deeper than this do not decode (a chaos snapshot nests 12)
_MAX_DEPTH = 100
_HEX_DIGEST = re.compile(rb"[0-9a-f]{64}")
_INT = re.compile(rb"-?[0-9]+")
_LENGTH = re.compile(rb"[0-9]+")
_ATOMS = {b"N;": None, b"T;": True, b"F;": False}
_OPENERS = {b"L": b"[", b"U": b"[", b"M": b"{"}
_CLOSERS = {b"L": b"]", b"U": b"]", b"M": b"}"}


class SnapshotError(Exception):
    """Base class for snapshot save/load failures."""


class SnapshotCorruptError(SnapshotError):
    """The file does not decode, or its content fingerprint disagrees."""


class SnapshotVersionError(SnapshotError):
    """The file's format version is not the one this code writes."""


# -- canonical encoding --------------------------------------------------------


def _encode(value: Any, out: List[bytes]) -> None:
    """Append a type-tagged, unambiguous encoding of ``value`` to ``out``.

    Only snapshot-legal primitives are accepted; anything else raises
    ``TypeError`` *at save time*, which is what keeps object graphs out of
    the format. ``bool`` is checked before ``int`` (it is a subclass), and
    floats go through ``repr`` (shortest round-trip text, stable across
    supported CPython versions).
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


def _field(data: bytes, pos: int, end: bytes, pattern: re.Pattern) -> Tuple[bytes, int]:
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


# -- the snapshot object -------------------------------------------------------


@dataclass
class Snapshot:
    """One versioned, fingerprinted state capture.

    ``kind`` names the producer (e.g. ``"chaos-runner"``), ``meta`` carries
    the constructor arguments needed to rebuild it, and ``state`` is the
    primitive tree from ``snapshot_state()``.
    """

    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    state: Dict[str, Any] = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    def fingerprint(self) -> str:
        """Content fingerprint over format marker, version, kind, meta, state."""
        return canonical_fingerprint(self._envelope())

    def _envelope(self) -> List[Any]:
        return [_FORMAT_MARKER, self.version, self.kind, self.meta, self.state]


def save_snapshot(snapshot: Snapshot, path: pathlib.Path) -> str:
    """Atomically write ``snapshot`` (tmp + rename); returns the fingerprint.

    The file is the fingerprint (64 hex characters), a newline, and the
    canonical encoding it hashes, so :func:`load_snapshot` can detect any
    post-write corruption before it decodes a byte.
    """
    path = pathlib.Path(path)
    body = encode_canonical(snapshot._envelope())  # also validates primitives-only
    fingerprint = hashlib.sha256(body).hexdigest()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(bytes(fingerprint, "ascii") + b"\n" + body)
    os.replace(tmp, path)
    return fingerprint


def load_snapshot(path: pathlib.Path, expect_kind: str = "") -> Snapshot:
    """Load and verify a snapshot file.

    Raises :class:`SnapshotCorruptError` when the file has no digest line,
    the body's sha256 disagrees with it, or the body does not decode to a
    canonical snapshot envelope; :class:`SnapshotVersionError` for any
    other format version.
    """
    path = pathlib.Path(path)
    raw = path.read_bytes()
    digest, newline, body = raw[:64], raw[64:65], raw[65:]
    if newline != b"\n" or not _HEX_DIGEST.fullmatch(digest):
        raise SnapshotCorruptError(f"{path}: not a repro snapshot file")
    stored = str(digest, "ascii")
    recomputed = hashlib.sha256(body).hexdigest()
    if recomputed != stored:
        raise SnapshotCorruptError(
            f"{path}: content fingerprint mismatch "
            f"(stored {stored[:12]}…, recomputed {recomputed[:12]}…)"
        )
    try:
        envelope = decode_canonical(body)
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: undecodable snapshot: {exc}") from exc
    if not (
        isinstance(envelope, list)
        and len(envelope) == 5
        and envelope[0] == _FORMAT_MARKER
    ):
        raise SnapshotCorruptError(f"{path}: not a repro snapshot file")
    _marker, version, kind, meta, state = envelope
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot version {version!r} != {SNAPSHOT_VERSION}"
        )
    if not (isinstance(kind, str) and isinstance(meta, dict) and isinstance(state, dict)):
        raise SnapshotCorruptError(f"{path}: malformed snapshot envelope")
    snapshot = Snapshot(kind=kind, meta=meta, state=state, version=version)
    if expect_kind and snapshot.kind != expect_kind:
        raise SnapshotCorruptError(
            f"{path}: snapshot kind {snapshot.kind!r}, expected {expect_kind!r}"
        )
    if snapshot.fingerprint() != stored:  # a body no save could have written
        raise SnapshotCorruptError(f"{path}: non-canonical snapshot encoding")
    return snapshot


__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotVersionError",
    "canonical_fingerprint",
    "decode_canonical",
    "encode_canonical",
    "load_snapshot",
    "save_snapshot",
]
