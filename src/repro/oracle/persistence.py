"""On-disk label databases.

A label database is the deployable artifact of the scheme: the encoded
label of every vertex, plus the scheme parameters — everything a server
(or a fleet of hand-held devices, per the paper's motivation) needs to
answer forbidden-set queries with **no access to the graph**.

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
import math
import struct
import zlib
from typing import TYPE_CHECKING, BinaryIO, Iterable

from repro.durability.atomic import atomic_write_path
from repro.exceptions import (
    DatabaseTruncationError,
    EncodingError,
    LabelCorruptionError,
    QueryError,
)
from repro.labeling.encoding import DECODE_ERRORS, decode_label, encode_label
from repro.labeling.kernel import Fragment, KernelDecoder
from repro.labeling.label import VertexLabel
from repro.labeling.query import FaultSet, QueryResult, normalize_faults

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

_MAGIC = b"FSDL"
_V1 = 1
_V2 = 2
DEFAULT_VERSION = _V2
SUPPORTED_VERSIONS = (_V1, _V2)

_HEADER = struct.Struct("<IdII")  # n, epsilon, c, top_level
_U32 = struct.Struct("<I")


def save_labels(scheme, path_or_file, version: int = DEFAULT_VERSION) -> int:
    """Write every label of ``scheme`` (any object with ``label(v)`` and a
    graph-sized vertex space reachable via ``build_all_labels`` or
    ``_graph``) to ``path_or_file``.  Returns the byte size written.

    ``version=2`` (default) writes the checksummed format;
    ``version=1`` writes the legacy unprotected format for
    compatibility tests and old readers.
    """
    if version not in SUPPORTED_VERSIONS:
        raise EncodingError(f"cannot write version {version}; "
                            f"supported: {SUPPORTED_VERSIONS}")
    labels = _collect_labels(scheme)
    if hasattr(path_or_file, "write"):
        return _write(path_or_file, labels, scheme, version)
    # a crash mid-save must never leave a torn database at the target
    # path: stage in memory, then install via tmp + fsync + replace
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


class LabelDatabase:
    """A loaded label database answering queries from disk bytes only.

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

    def __init__(
        self,
        encoded_labels: list[bytes],
        epsilon: float,
        c: int,
        top_level: int,
        version: int = DEFAULT_VERSION,
        quarantined: dict[int, str] | None = None,
    ) -> None:
        self._table = encoded_labels
        self.epsilon = epsilon
        self.c = c
        self.top_level = top_level
        self.version = version
        self._quarantined = dict(quarantined or {})
        # one long-lived decoder for every query, with room for every
        # stored label: each is parsed from its bytes at most once
        self._decoder = KernelDecoder(max_labels=max(4096, len(encoded_labels)))

    @classmethod
    def load(cls, path_or_file, strict: bool = True) -> "LabelDatabase":
        """Read a database written by :func:`save_labels`.

        ``strict=True`` (default) fails fast: any integrity violation —
        bad header checksum, bad label checksum, truncation, trailing
        garbage — raises :class:`EncodingError` (checksum failures use
        the :class:`LabelCorruptionError` subclass).  ``strict=False``
        *quarantines* labels whose checksum fails instead of raising;
        the database stays queryable and only a query that touches a
        quarantined label raises.  Structural damage (bad magic,
        truncation, lying lengths) is fatal in both modes — framing
        cannot be recovered.
        """
        if hasattr(path_or_file, "read"):
            return cls._read(path_or_file, strict)
        with open(path_or_file, "rb") as handle:
            return cls._read(handle, strict)

    @classmethod
    def _read(cls, handle: BinaryIO, strict: bool = True) -> "LabelDatabase":
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
        return cls(table, epsilon=epsilon, c=c, top_level=top_level,
                   version=version, quarantined=quarantined)

    # -- integrity ---------------------------------------------------------

    def verify(self) -> list[int]:
        """Re-check every stored label; return the corrupt vertex ids.

        A label is corrupt if it was quarantined at load time or if its
        bytes fail to decode into a structurally valid label.  An empty
        list means the whole database is healthy.
        """
        bad = set(self._quarantined)
        for vertex, data in enumerate(self._table):
            if vertex in bad:
                continue
            try:
                decode_label(data)
            except DECODE_ERRORS:
                # explicit quarantine: the vertex id joins the corrupt
                # list the caller must act on
                bad.add(vertex)
        return sorted(bad)

    @property
    def quarantined(self) -> dict[int, str]:
        """Vertices quarantined by a ``strict=False`` load (id → reason)."""
        return dict(self._quarantined)

    # -- queries ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of stored labels."""
        return len(self._table)

    def encoded(self, vertex: int) -> bytes:
        """The raw stored bytes of one label, *only* if trustworthy.

        Raises :class:`QueryError` for an out-of-range vertex and
        :class:`LabelCorruptionError` for a label quarantined by a
        ``strict=False`` load — quarantined bytes must never escape as
        if they were servable data.
        """
        if not 0 <= vertex < len(self._table):
            raise QueryError(f"vertex {vertex} out of range")
        reason = self._quarantined.get(vertex)
        if reason is not None:
            raise LabelCorruptionError(f"label {vertex} is quarantined: {reason}")
        return self._table[vertex]

    def label(self, vertex: int) -> VertexLabel:
        """Decode one stored label.

        Raises :class:`QueryError` for an out-of-range vertex and
        :class:`LabelCorruptionError` when the stored bytes are
        quarantined or fail to decode.
        """
        return self._decoded(vertex, decode_label)

    def _decoded(self, vertex: int, decode):
        """``decode`` of a vertex's trusted bytes, failures translated."""
        data = self.encoded(vertex)
        try:
            return decode(data)
        except EncodingError as exc:
            raise LabelCorruptionError(f"label {vertex}: {exc}") from exc
        except DECODE_ERRORS as exc:  # corrupt bitstream: index/value errors
            raise LabelCorruptionError(
                f"label {vertex} failed to decode: {exc!r}"
            ) from exc

    def query(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
        tracer: "Tracer | None" = None,
    ) -> QueryResult:
        """Forbidden-set distance query served from the stored bytes.

        Fault inputs are deduplicated (repeated vertices, both
        orientations of an edge), and the database's one decoder loads
        each stored label's bytes straight into its arena, parsing them
        at most once over the database's lifetime.  A ``tracer`` records
        the decode pipeline as a span tree without changing the answer.
        """
        vertex_faults, edge_faults = normalize_faults(vertex_faults, edge_faults)

        def load(vertex: int) -> Fragment:
            return self._decoded(vertex, self._decoder.load)

        faults = FaultSet(
            vertex_labels=[load(f) for f in vertex_faults],
            edge_labels=[(load(a), load(b)) for a, b in edge_faults],
        )
        return self._decoder.decode(load(s), load(t), faults, tracer=tracer)

    def connectivity(
        self,
        s: int,
        t: int,
        vertex_faults: Iterable[int] = (),
        edge_faults: Iterable[tuple[int, int]] = (),
    ) -> bool:
        """Exact connectivity in ``G \\ F``."""
        return not math.isinf(
            self.query(s, t, vertex_faults, edge_faults).distance
        )

    def size_bits(self) -> int:
        """Total stored label bytes, in bits."""
        return 8 * sum(len(entry) for entry in self._table)
