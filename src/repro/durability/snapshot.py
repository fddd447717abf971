"""Atomic snapshot codec for the durable label table.

On-disk layout (see ``docs/formats.md``)::

    snapshot := header entry*
    header   := "FSNP" version(0x01) u64(applied_lsn) u32(count)
                u32(header_crc)
    entry    := u32(vertex) u32(payload_length) u32(entry_crc) payload
    entry_crc := CRC32 over the 12 fixed entry bytes + the payload

Entries are sorted by vertex id, so equal states always produce equal
bytes.  A snapshot is only ever installed atomically (tmp + fsync +
``replace``), so recovery either sees a complete, checksummed snapshot
or none at all — any integrity failure here is real corruption
(:class:`~repro.exceptions.StorageCorruptionError`), never a crash
artifact to be guessed around.
"""

from __future__ import annotations

import struct
import zlib

from repro.exceptions import DurabilityError, StorageCorruptionError

SNAPSHOT_MAGIC = b"FSNP"
SNAPSHOT_VERSION = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: bytes of the snapshot header: magic + version + lsn + count + crc
SNAPSHOT_HEADER_SIZE = 4 + 1 + 8 + 4 + 4


def encode_snapshot(applied_lsn: int, entries: dict[int, bytes]) -> bytes:
    """Serialize ``entries`` (vertex -> payload) at ``applied_lsn``."""
    if applied_lsn < 0:
        raise DurabilityError(f"applied LSN must be >= 0, got {applied_lsn}")
    body = (
        SNAPSHOT_MAGIC
        + bytes([SNAPSHOT_VERSION])
        + _U64.pack(applied_lsn)
        + _U32.pack(len(entries))
    )
    parts = [body, _U32.pack(zlib.crc32(body))]
    for vertex in sorted(entries):
        payload = entries[vertex]
        fixed = _U32.pack(vertex) + _U32.pack(len(payload))
        crc = zlib.crc32(fixed + payload)
        parts.append(fixed + _U32.pack(crc) + payload)
    return b"".join(parts)


def decode_snapshot(blob: bytes) -> tuple[int, dict[int, bytes]]:
    """Parse a snapshot, returning ``(applied_lsn, entries)``.

    Raises :class:`StorageCorruptionError` on any structural or
    checksum failure — snapshots are installed atomically, so a broken
    one cannot be a crash artifact.
    """
    if len(blob) < SNAPSHOT_HEADER_SIZE:
        raise StorageCorruptionError(
            f"snapshot header truncated: {len(blob)} bytes, "
            f"need {SNAPSHOT_HEADER_SIZE}"
        )
    if blob[:4] != SNAPSHOT_MAGIC:
        raise StorageCorruptionError(f"bad snapshot magic {blob[:4]!r}")
    if blob[4] != SNAPSHOT_VERSION:
        raise StorageCorruptionError(f"unsupported snapshot version {blob[4]}")
    body = blob[:SNAPSHOT_HEADER_SIZE - 4]
    (stored,) = _U32.unpack(blob[SNAPSHOT_HEADER_SIZE - 4:SNAPSHOT_HEADER_SIZE])
    actual = zlib.crc32(body)
    if stored != actual:
        raise StorageCorruptionError(
            f"snapshot header checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    (applied_lsn,) = _U64.unpack(blob[5:13])
    (count,) = _U32.unpack(blob[13:17])
    entries: dict[int, bytes] = {}
    pos = SNAPSHOT_HEADER_SIZE
    previous = -1
    for index in range(count):
        if len(blob) - pos < 12:
            raise StorageCorruptionError(
                f"snapshot entry {index} truncated at offset {pos}"
            )
        fixed = blob[pos:pos + 8]
        vertex, length = _U32.unpack(fixed[:4])[0], _U32.unpack(fixed[4:8])[0]
        (entry_stored,) = _U32.unpack(blob[pos + 8:pos + 12])
        if len(blob) - pos < 12 + length:
            raise StorageCorruptionError(
                f"snapshot entry {index} payload truncated at offset {pos}"
            )
        payload = blob[pos + 12:pos + 12 + length]
        entry_actual = zlib.crc32(fixed + payload)
        if entry_stored != entry_actual:
            raise StorageCorruptionError(
                f"snapshot entry for vertex {vertex} checksum mismatch: "
                f"stored {entry_stored:#010x}, computed {entry_actual:#010x}"
            )
        if vertex <= previous:
            raise StorageCorruptionError(
                f"snapshot entries out of order: vertex {vertex} after "
                f"{previous}"
            )
        previous = vertex
        entries[vertex] = payload
        pos += 12 + length
    if pos != len(blob):
        raise StorageCorruptionError(
            f"snapshot has {len(blob) - pos} trailing bytes after "
            f"{count} entries"
        )
    return applied_lsn, entries
