"""On-disk label databases: the ``.fsdl`` format.

A label database is the deployable artifact of the scheme: the encoded
label of every vertex, plus the scheme parameters — everything a server
(or a fleet of hand-held devices, per the paper's motivation) needs to
answer forbidden-set queries with **no access to the graph**.
:func:`save_labels` writes one and :func:`read_database` reads one into
a :class:`~repro.oracle.oracle.LabelDatabase`, the table that answers
the queries.

Two on-disk versions exist (see ``docs/formats.md`` for the byte-level
layout):

* **version 1** (legacy, read-only): magic ``b"FSDL"`` + version byte,
  header ``n``/``epsilon``/``c``/``top_level``, then ``n``
  length-prefixed encoded labels.  No integrity protection.
* **version 2** (default): same logical content plus a CRC32 over the
  header and a CRC32 per label entry, so that bit rot, truncation and
  lying length fields are *detected* instead of silently decoding into
  a wrong distance.

Integrity model
---------------

``LabelDatabase.load`` always bounds-checks every length field against
the file size before allocating, so no corruption can make it read past
EOF or balloon memory.  On top of that, version 2 checks:

* the header checksum at load time (always — a bad header means ``n``
  or ``epsilon`` cannot be trusted);
* each label's checksum, either eagerly (``strict=True``, the default:
  a single bad byte anywhere fails the load with
  :class:`~repro.exceptions.LabelCorruptionError`) or lazily
  (``strict=False``: corrupt labels are *quarantined* and the database
  degrades gracefully — only a query that actually touches a corrupt
  label raises).
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import BinaryIO

from repro.exceptions import (
    DatabaseTruncationError,
    EncodingError,
    LabelCorruptionError,
)
from repro.labeling.encoding import encode_label
from repro.oracle.oracle import LabelDatabase

_MAGIC = b"FSDL"
_V1 = 1
_V2 = 2
DEFAULT_VERSION = _V2
SUPPORTED_VERSIONS = (_V1, _V2)

_HEADER = struct.Struct("<IdII")  # n, epsilon, c, top_level
_U32 = struct.Struct("<I")


def save_labels(scheme, path_or_file, version: int = DEFAULT_VERSION) -> int:
    """Write every label of ``scheme`` (any object with ``label(v)``,
    ``params`` and its graph as ``_graph``) to ``path_or_file``.
    Returns the byte size written.

    ``version=2`` (default) writes the checksummed format;
    ``version=1`` writes the legacy unprotected format for
    compatibility tests and old readers.

    Example
    -------
    >>> import io
    >>> from repro.graphs.generators import cycle_graph
    >>> from repro.labeling import ForbiddenSetLabeling
    >>> scheme = ForbiddenSetLabeling(cycle_graph(16), epsilon=1.0)
    >>> buffer = io.BytesIO()
    >>> _ = save_labels(scheme, buffer)
    >>> db = LabelDatabase.load(io.BytesIO(buffer.getvalue()))
    >>> db.query(0, 8).distance
    8
    """
    if version not in SUPPORTED_VERSIONS:
        raise EncodingError(f"cannot write version {version}; "
                            f"supported: {SUPPORTED_VERSIONS}")
    labels = _collect_labels(scheme)
    if hasattr(path_or_file, "write"):
        return _write(path_or_file, labels, scheme, version)
    # a crash mid-save must never leave a torn database at the target
    # path: stage in memory, then install via tmp + fsync + replace.
    # Imported here: the durability layer pulls in the serving tier.
    from repro.durability.atomic import atomic_write_path

    buffer = io.BytesIO()
    _write(buffer, labels, scheme, version)
    return atomic_write_path(str(path_or_file), buffer.getvalue())


def _collect_labels(scheme) -> list:
    graph = getattr(scheme, "_graph")
    return [scheme.label(v) for v in graph.vertices()]


def _write(handle: BinaryIO, labels, scheme, version: int) -> int:
    params = scheme.params
    payload = io.BytesIO()
    payload.write(_MAGIC)
    payload.write(bytes([version]))
    header = _HEADER.pack(len(labels), params.epsilon, params.c,
                          params.top_level)
    payload.write(header)
    if version >= _V2:
        payload.write(_U32.pack(
            zlib.crc32(_MAGIC + bytes([version]) + header)
        ))
    for label in labels:
        data = encode_label(label)
        length = _U32.pack(len(data))
        payload.write(length)
        if version >= _V2:
            payload.write(_U32.pack(zlib.crc32(length + data)))
        payload.write(data)
    blob = payload.getvalue()
    handle.write(blob)
    return len(blob)


class _Cursor:
    """Bounds-checked reader over an in-memory blob.

    Every read validates against the blob size *before* slicing, so a
    lying length field raises :class:`EncodingError` instead of reading
    past EOF (or allocating a 4 GiB buffer).
    """

    __slots__ = ("blob", "pos")

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    def remaining(self) -> int:
        return len(self.blob) - self.pos

    def take(self, size: int, what: str) -> bytes:
        if size < 0 or self.pos + size > len(self.blob):
            raise DatabaseTruncationError(
                f"truncated label database: {what} needs {size} bytes at "
                f"offset {self.pos}, only {self.remaining()} available"
            )
        chunk = self.blob[self.pos:self.pos + size]
        self.pos += size
        return chunk

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]


def read_database(handle: BinaryIO, strict: bool = True) -> LabelDatabase:
    """Parse one ``.fsdl`` stream into a :class:`LabelDatabase`.

    The reader behind :meth:`LabelDatabase.load`, which documents
    ``strict`` and the errors raised.
    """
    cursor = _Cursor(handle.read())
    magic = cursor.take(4, "magic")
    if magic != _MAGIC:
        raise EncodingError(f"bad magic {magic!r}; not a label database")
    version = cursor.take(1, "version byte")[0]
    if version not in SUPPORTED_VERSIONS:
        raise EncodingError(f"unsupported version {version}")
    header = cursor.take(_HEADER.size, "header")
    n, epsilon, c, top_level = _HEADER.unpack(header)
    if version >= _V2:
        stored = cursor.u32("header checksum")
        actual = zlib.crc32(magic + bytes([version]) + header)
        if stored != actual:
            raise LabelCorruptionError(
                f"header checksum mismatch: stored {stored:#010x}, "
                f"computed {actual:#010x}"
            )
    table: list[bytes] = []
    quarantined: dict[int, str] = {}
    for vertex in range(n):
        length_bytes = cursor.take(4, f"label {vertex} length")
        (length,) = _U32.unpack(length_bytes)
        if version >= _V2:
            stored = cursor.u32(f"label {vertex} checksum")
            data = cursor.take(length, f"label {vertex} payload")
            actual = zlib.crc32(length_bytes + data)
            if stored != actual:
                reason = (
                    f"label {vertex} checksum mismatch: stored "
                    f"{stored:#010x}, computed {actual:#010x}"
                )
                if strict:
                    raise LabelCorruptionError(reason)
                quarantined[vertex] = reason
        else:
            data = cursor.take(length, f"label {vertex} payload")
        table.append(data)
    if cursor.remaining():
        raise EncodingError(
            f"trailing data: {cursor.remaining()} bytes past the last "
            "label entry"
        )
    return LabelDatabase(table, epsilon=epsilon, c=c, top_level=top_level,
                         version=version, quarantined=quarantined)
