"""Crash-consistent vertex -> payload table: snapshot + WAL.

A :class:`DurableLabelTable` stores encoded forbidden-set labels for
one shard.  Every mutation is a single WAL record, appended and
fsynced *before* the call returns — the return is the acknowledgement.
:meth:`compact` folds the log into an atomic snapshot and resets the
WAL; a crash between the two steps is harmless because replay skips
records at or below the snapshot's LSN.

Opening an existing table is the job of
:class:`repro.durability.recovery.RecoveryManager`, which sweeps
orphaned scratch files, truncates any torn WAL tail, and replays the
intact records over the snapshot.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.durability.atomic import atomic_write
from repro.durability.fs import FileSystem
from repro.durability.snapshot import encode_snapshot
from repro.durability.wal import encode_frame, encode_wal_header
from repro.exceptions import DurabilityError, StorageCorruptionError

if TYPE_CHECKING:
    from repro.obs.registry import Registry

#: WAL record opcodes
OP_PUT = 1
OP_DELETE = 2

#: file names inside a table directory
SNAPSHOT_NAME = "labels.snap"
WAL_NAME = "labels.wal"

_U32 = struct.Struct("<I")


def encode_record(op: int, vertex: int, payload: bytes = b"") -> bytes:
    """One WAL record: opcode byte + u32 vertex + payload."""
    if op not in (OP_PUT, OP_DELETE):
        raise DurabilityError(f"unknown WAL opcode {op}")
    if op == OP_DELETE and payload:
        raise DurabilityError("delete records carry no payload")
    return bytes([op]) + _U32.pack(vertex) + payload


def decode_record(blob: bytes) -> tuple[int, int, bytes]:
    """Parse a WAL record into ``(op, vertex, payload)``.

    The frame CRC already vouched for the bytes, so a malformed record
    here is real corruption, not a crash artifact.
    """
    if len(blob) < 5:
        raise StorageCorruptionError(
            f"WAL record too short: {len(blob)} bytes"
        )
    op = blob[0]
    if op not in (OP_PUT, OP_DELETE):
        raise StorageCorruptionError(f"unknown WAL opcode {op}")
    (vertex,) = _U32.unpack(blob[1:5])
    payload = blob[5:]
    if op == OP_DELETE and payload:
        raise StorageCorruptionError(
            f"delete record for vertex {vertex} carries "
            f"{len(payload)} payload bytes"
        )
    return op, vertex, payload


def snapshot_path(directory: str) -> str:
    """Path of the snapshot file inside a table directory."""
    return f"{directory}/{SNAPSHOT_NAME}"


def wal_path(directory: str) -> str:
    """Path of the WAL file inside a table directory."""
    return f"{directory}/{WAL_NAME}"


class DurableLabelTable:
    """A crash-consistent map from vertex id to encoded label bytes.

    Construct fresh tables with :meth:`create`; reopen existing ones
    through :class:`repro.durability.recovery.RecoveryManager`.  All
    I/O flows through the injected :class:`FileSystem`, so the same
    code path runs against real disks and against the crash simulator.
    """

    def __init__(
        self,
        fs: FileSystem,
        directory: str,
        state: dict[int, bytes],
        last_lsn: int,
        snapshot_lsn: int,
        obs: "Registry | None" = None,
    ) -> None:
        self._fs = fs
        self._dir = directory
        self._state = dict(state)
        self._last_lsn = last_lsn
        self._snapshot_lsn = snapshot_lsn
        self.obs = obs

    @classmethod
    def create(
        cls,
        fs: FileSystem,
        directory: str,
        obs: "Registry | None" = None,
    ) -> "DurableLabelTable":
        """Initialise an empty table: a fresh WAL at base LSN 0."""
        atomic_write(fs, wal_path(directory), encode_wal_header(0))
        return cls(fs, directory, state={}, last_lsn=0, snapshot_lsn=0, obs=obs)

    # -- observers -----------------------------------------------------------

    @property
    def directory(self) -> str:
        """Directory the table's files live in."""
        return self._dir

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent acknowledged mutation."""
        return self._last_lsn

    @property
    def snapshot_lsn(self) -> int:
        """LSN covered by the most recent snapshot (0 if none)."""
        return self._snapshot_lsn

    def state(self) -> dict[int, bytes]:
        """A copy of the current vertex -> payload map."""
        return dict(self._state)

    def get(self, vertex: int) -> bytes | None:
        """Payload for ``vertex``, or None when absent."""
        return self._state.get(vertex)

    def vertices(self) -> list[int]:
        """Sorted vertex ids currently present."""
        return sorted(self._state)

    # -- mutations -----------------------------------------------------------

    def put(self, vertex: int, payload: bytes) -> int:
        """Durably store ``payload`` for ``vertex``; returns its LSN.

        The record is appended and fsynced before this returns — the
        return *is* the durability acknowledgement.
        """
        return self._log(encode_record(OP_PUT, vertex, payload), vertex, payload)

    def delete(self, vertex: int) -> int:
        """Durably remove ``vertex``; returns the mutation's LSN."""
        return self._log(encode_record(OP_DELETE, vertex), vertex, None)

    def _log(self, record: bytes, vertex: int, payload: bytes | None) -> int:
        path = wal_path(self._dir)
        frame = encode_frame(record)
        self._fs.append_bytes(path, frame)
        self._fs.fsync(path)
        self._last_lsn += 1
        if payload is None:
            self._state.pop(vertex, None)
        else:
            self._state[vertex] = payload
        if self.obs is not None:
            self.obs.counter(
                "repro_wal_appends_total",
                "WAL records appended (each fsynced before the ack).",
            ).inc()
            self.obs.counter(
                "repro_wal_bytes_total",
                "Framed WAL bytes appended.",
            ).inc(len(frame))
        return self._last_lsn

    def compact(self) -> int:
        """Fold the WAL into a snapshot; returns the snapshot's LSN.

        Two atomic installs, in an order that is safe to interrupt
        anywhere: first the snapshot at ``last_lsn``, then a fresh WAL
        based at the same LSN.  A crash in between leaves the new
        snapshot plus the old WAL — replay skips every record at or
        below the snapshot LSN, so nothing is applied twice.
        """
        folded = self._last_lsn - self._snapshot_lsn
        atomic_write(
            self._fs,
            snapshot_path(self._dir),
            encode_snapshot(self._last_lsn, self._state),
        )
        atomic_write(
            self._fs, wal_path(self._dir), encode_wal_header(self._last_lsn)
        )
        self._snapshot_lsn = self._last_lsn
        if self.obs is not None:
            self.obs.counter(
                "repro_compactions_total",
                "WAL-into-snapshot compactions performed.",
            ).inc()
            self.obs.counter(
                "repro_compaction_records_folded_total",
                "WAL records folded into snapshots by compaction.",
            ).inc(folded)
        return self._snapshot_lsn
