"""Versioned, content-fingerprinted whole-stack snapshots.

A snapshot is a plain-primitive tree (``None``/``bool``/``int``/``float``/
``str``/``bytes``/``list``/``tuple``/``dict``) produced by a component's
``snapshot_state()`` and consumed by its ``restore_state()``. Keeping the
payload primitive does three things at once:

- the state is *inspectable* (no opaque object graphs inside a snapshot);
- it can be canonically encoded, so every snapshot carries a ``sha256``
  content fingerprint — the canonical hash every run report's
  :meth:`~repro.sim.state.Record.fingerprint` takes — and a corrupted
  file is rejected at load time rather than restored into a subtly wrong
  simulator;
- restore cannot resurrect stale code: classes are rebuilt by the current
  constructors and only their *state* comes from the file.

Mappings in component state are snapshotted as insertion-ordered item
*lists* (:mod:`repro.sim.state`), so the fingerprint captures the order a
restored dict must reproduce, not just its contents.

A snapshot file is that fingerprint as 64 hex characters and a newline,
then the canonical encoding it hashes. The codec itself lives in
:mod:`repro.sim.state`, beside the ``STATE`` rules that produce its input. Loading checks the digest before it
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
from typing import Any, Dict, List

from repro.sim.state import canonical_fingerprint, decode_canonical, encode_canonical

#: Bump on any change to a participating ``snapshot_state()`` payload shape.
SNAPSHOT_VERSION = 4

_FORMAT_MARKER = "repro-snapshot"
_HEX_DIGEST = re.compile(rb"[0-9a-f]{64}")


class SnapshotError(Exception):
    """Base class for snapshot save/load failures."""


class SnapshotCorruptError(SnapshotError):
    """The file does not decode, or its content fingerprint disagrees."""


class SnapshotVersionError(SnapshotError):
    """The file's format version is not the one this code writes."""


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
