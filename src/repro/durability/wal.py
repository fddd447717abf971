"""CRC-framed append-only write-ahead log.

On-disk layout (see ``docs/formats.md``)::

    wal     := header frame*
    header  := "FSWL" version(0x01) u64(base_lsn) u32(header_crc)
    frame   := u32(payload_length) u32(frame_crc) payload
    frame_crc := CRC32 over the 4 length bytes + the payload

The header is written atomically (tmp + fsync + replace) when the log
is created or reset, so it is either fully present or the file does
not exist.  Frames are *appended* and fsynced; a crash mid-append
leaves a **torn tail** which :func:`read_wal` detects and reports so
recovery can truncate it.  Record ``i`` (0-based) of a log with base
LSN ``B`` carries LSN ``B + i + 1`` implicitly — no per-frame LSN
field can disagree with the frame's position.

The framing never guesses: a log whose *header* fails its checksum is
:class:`~repro.exceptions.StorageCorruptionError` (headers are written
atomically; a bad one is real corruption, not a crash artifact), while
a bad or incomplete trailing frame is classified as the torn tail and
replay stops exactly at the last intact frame boundary.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.exceptions import DurabilityError, StorageCorruptionError

WAL_MAGIC = b"FSWL"
WAL_VERSION = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: bytes of the WAL header: magic + version + base_lsn + crc
WAL_HEADER_SIZE = 4 + 1 + 8 + 4

#: bytes of a frame header: length + crc
FRAME_HEADER_SIZE = 8


def encode_wal_header(base_lsn: int) -> bytes:
    """The 17-byte header of a fresh log with the given base LSN."""
    if base_lsn < 0:
        raise DurabilityError(f"base LSN must be >= 0, got {base_lsn}")
    body = WAL_MAGIC + bytes([WAL_VERSION]) + _U64.pack(base_lsn)
    return body + _U32.pack(zlib.crc32(body))


def decode_wal_header(blob: bytes) -> int:
    """Validate a header and return its base LSN."""
    if len(blob) < WAL_HEADER_SIZE:
        raise StorageCorruptionError(
            f"WAL header truncated: {len(blob)} bytes, "
            f"need {WAL_HEADER_SIZE} (headers are written atomically)"
        )
    if blob[:4] != WAL_MAGIC:
        raise StorageCorruptionError(f"bad WAL magic {blob[:4]!r}")
    if blob[4] != WAL_VERSION:
        raise StorageCorruptionError(f"unsupported WAL version {blob[4]}")
    body = blob[:WAL_HEADER_SIZE - 4]
    (stored,) = _U32.unpack(blob[WAL_HEADER_SIZE - 4:WAL_HEADER_SIZE])
    actual = zlib.crc32(body)
    if stored != actual:
        raise StorageCorruptionError(
            f"WAL header checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}"
        )
    (base_lsn,) = _U64.unpack(blob[5:13])
    return base_lsn


def encode_frame(payload: bytes) -> bytes:
    """One CRC-framed record ready to append."""
    length = _U32.pack(len(payload))
    return length + _U32.pack(zlib.crc32(length + payload)) + payload


@dataclass(frozen=True)
class WalReplay:
    """Everything :func:`read_wal` learned from one log file."""

    base_lsn: int
    records: tuple[bytes, ...]
    #: byte offset of the end of the last intact frame
    valid_end: int
    #: bytes past ``valid_end`` (0 = the log is clean)
    torn_bytes: int
    #: why the tail was rejected (None when the log is clean)
    torn_reason: str | None

    @property
    def last_lsn(self) -> int:
        """LSN of the final intact record (== base when empty)."""
        return self.base_lsn + len(self.records)

    @property
    def clean(self) -> bool:
        """True when the log ends exactly at a frame boundary."""
        return self.torn_bytes == 0


def read_wal(blob: bytes) -> WalReplay:
    """Parse a log: validate the header, walk frames, find the torn tail.

    Replay stops at the first frame that is incomplete or fails its
    checksum — after a crash nothing past that point can be trusted,
    and acknowledged records are always *before* it (every acknowledged
    append was fsynced before the next one began).
    """
    base_lsn = decode_wal_header(blob)
    records: list[bytes] = []
    pos = WAL_HEADER_SIZE
    torn_reason: str | None = None
    while pos < len(blob):
        remaining = len(blob) - pos
        if remaining < FRAME_HEADER_SIZE:
            torn_reason = (
                f"torn frame header at offset {pos}: "
                f"{remaining} of {FRAME_HEADER_SIZE} bytes"
            )
            break
        length_bytes = blob[pos:pos + 4]
        (length,) = _U32.unpack(length_bytes)
        (stored,) = _U32.unpack(blob[pos + 4:pos + 8])
        if remaining < FRAME_HEADER_SIZE + length:
            torn_reason = (
                f"torn frame payload at offset {pos}: frame needs "
                f"{FRAME_HEADER_SIZE + length} bytes, {remaining} present"
            )
            break
        payload = blob[pos + 8:pos + 8 + length]
        actual = zlib.crc32(length_bytes + payload)
        if stored != actual:
            torn_reason = (
                f"frame checksum mismatch at offset {pos}: stored "
                f"{stored:#010x}, computed {actual:#010x}"
            )
            break
        records.append(payload)
        pos += FRAME_HEADER_SIZE + length
    valid_end = pos if torn_reason is not None else len(blob)
    return WalReplay(
        base_lsn=base_lsn,
        records=tuple(records),
        valid_end=valid_end,
        torn_bytes=len(blob) - valid_end,
        torn_reason=torn_reason,
    )
