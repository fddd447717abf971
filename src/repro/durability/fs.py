"""Injectable filesystem abstraction with crash simulation.

The durability layer never touches ``open``/``os`` directly (enforced
by lint rule RPL009); every byte goes through a :class:`FileSystem`:

* :class:`RealFS` — the production backend: real files, real
  ``fsync``, real ``os.replace`` (this module is the *single* place in
  the persistence/durability code allowed to perform raw file I/O);
* :class:`SimulatedFS` — an in-memory filesystem with page-cache
  semantics: written bytes are *volatile* until ``fsync`` makes them
  durable, and a **kill-point** is registered at every write / flush /
  rename boundary.  Arming a kill-point makes the corresponding
  operation die mid-flight with :class:`SimulatedCrashError`, after
  applying one of three seeded crash behaviors:

  - ``torn_write`` — only a prefix of the data being written lands on
    durable storage (the classic torn tail);
  - ``partial_flush`` — ``fsync`` persists only a prefix of the
    not-yet-durable bytes before the machine dies;
  - ``lost_rename`` — ``replace`` appears to happen but the directory
    entry never becomes durable: after the crash the old destination
    is back.

  On any *other* operation the armed crash fires *before* the
  operation takes effect (a clean kill at that boundary), so
  enumerating every kill-point index under every mode covers clean
  kills everywhere plus each dirty behavior where it applies.

``SimulatedFS.crash()`` collapses the volatile state: every file
reverts to its durable bytes (never-synced files vanish), exactly what
a recovery path would find after a power loss.
"""

from __future__ import annotations

import os

from repro.exceptions import DurabilityError, SimulatedCrashError
from repro.util.rng import RngLike, make_rng

#: crash behaviors understood by :meth:`SimulatedFS.arm_crash`
CRASH_MODES = ("torn_write", "partial_flush", "lost_rename")

#: operations that register a kill-point (in op-counter order)
KILL_POINT_OPS = ("write", "append", "fsync", "replace")


class FileSystem:
    """Abstract byte-level filesystem used by the durability layer."""

    def exists(self, path: str) -> bool:
        """Whether ``path`` currently names a file."""
        raise NotImplementedError

    def size(self, path: str) -> int:
        """Current byte size of ``path``."""
        raise NotImplementedError

    def read_bytes(self, path: str) -> bytes:
        """The full current content of ``path``."""
        raise NotImplementedError

    def write_bytes(self, path: str, data: bytes) -> None:
        """Create or truncate ``path`` and write ``data`` (volatile)."""
        raise NotImplementedError

    def append_bytes(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path``, creating it if absent (volatile)."""
        raise NotImplementedError

    def fsync(self, path: str) -> None:
        """Force every written byte of ``path`` onto durable storage."""
        raise NotImplementedError

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``."""
        raise NotImplementedError

    def remove(self, path: str) -> None:
        """Delete ``path`` (missing files are ignored)."""
        raise NotImplementedError

    def listdir(self, directory: str) -> list[str]:
        """Sorted file names under ``directory`` (non-recursive)."""
        raise NotImplementedError


class RealFS(FileSystem):
    """The production backend: real files under the real OS.

    ``replace`` additionally fsyncs the parent directory (best effort)
    so the rename itself is durable, not just the renamed bytes.
    """

    def exists(self, path: str) -> bool:
        """Whether ``path`` names an existing file."""
        return os.path.isfile(path)

    def size(self, path: str) -> int:
        """Byte size reported by the OS."""
        return os.path.getsize(path)

    def read_bytes(self, path: str) -> bytes:
        """Read the whole file."""
        with open(path, "rb") as handle:
            return handle.read()

    def write_bytes(self, path: str, data: bytes) -> None:
        """Create/truncate and write (stays in the page cache)."""
        self._ensure_parent(path)
        with open(path, "wb") as handle:
            handle.write(data)

    def append_bytes(self, path: str, data: bytes) -> None:
        """Append to the file (stays in the page cache)."""
        self._ensure_parent(path)
        with open(path, "ab") as handle:
            handle.write(data)

    @staticmethod
    def _ensure_parent(path: str) -> None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def fsync(self, path: str) -> None:
        """``os.fsync`` the file's descriptor."""
        with open(path, "rb") as handle:
            os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        """``os.replace`` then fsync the parent directory (best effort)."""
        os.replace(src, dst)
        parent = os.path.dirname(os.path.abspath(dst))
        try:
            fd = os.open(parent, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; rename still atomic
        try:
            os.fsync(fd)
        except OSError:
            pass  # some filesystems refuse directory fsync; acceptable
        finally:
            os.close(fd)

    def remove(self, path: str) -> None:
        """Delete the file if it exists."""
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def listdir(self, directory: str) -> list[str]:
        """Sorted regular-file names in ``directory`` ([] if absent)."""
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        return sorted(
            name for name in names
            if os.path.isfile(os.path.join(directory, name))
        )


class _SimFile:
    """One simulated file: current (volatile) and durable content."""

    __slots__ = ("content", "durable")

    def __init__(self, content: bytes = b"", durable: bytes | None = None):
        self.content = bytearray(content)
        #: bytes that survive a crash; ``None`` = file never synced
        #: (vanishes on crash)
        self.durable = durable


class SimulatedFS(FileSystem):
    """In-memory filesystem with page-cache semantics and kill-points.

    Deterministic under ``seed``: the torn-write / partial-flush cut
    offsets are drawn from a seeded RNG, so every crash the battery
    finds is replayable from ``(seed, kill_point, mode)``.
    """

    def __init__(self, seed: RngLike = None) -> None:
        self._files: dict[str, _SimFile] = {}
        self._rng = make_rng(seed)
        self.op_count = 0
        self.op_log: list[tuple[str, str]] = []
        self._crash_at: int | None = None
        self._crash_mode: str | None = None
        self.crashes = 0

    # -- crash control -------------------------------------------------------

    def arm_crash(self, at_op: int, mode: str) -> None:
        """Die at kill-point ``at_op`` (0-based op index) with ``mode``."""
        if mode not in CRASH_MODES:
            raise DurabilityError(f"unknown crash mode {mode!r}")
        if at_op < 0:
            raise DurabilityError(f"kill-point index must be >= 0, got {at_op}")
        self._crash_at = at_op
        self._crash_mode = mode

    def disarm(self) -> None:
        """Remove any armed kill-point."""
        self._crash_at = None
        self._crash_mode = None

    def crash(self) -> None:
        """Collapse volatile state: the machine lost power.

        Every file reverts to its durable bytes; files never fsynced
        disappear.  The kill-point is disarmed and the op counter keeps
        counting (recovery I/O is observable but not crash-targeted).
        """
        self.crashes += 1
        survivors: dict[str, _SimFile] = {}
        for path in sorted(self._files):
            sim = self._files[path]
            if sim.durable is None:
                continue
            survivors[path] = _SimFile(sim.durable, durable=sim.durable)
        self._files = survivors
        self.disarm()

    def _cut(self, limit: int, *, allow_full: bool) -> int:
        upper = limit if allow_full else max(0, limit - 1)
        return self._rng.randint(0, upper) if upper > 0 else 0

    def _tick(self, op: str, path: str) -> bool:
        """Count one kill-point; True when the armed crash fires here."""
        index = self.op_count
        self.op_count += 1
        self.op_log.append((op, path))
        return self._crash_at is not None and index == self._crash_at

    # -- filesystem operations ----------------------------------------------

    def exists(self, path: str) -> bool:
        """Whether ``path`` is currently visible."""
        return path in self._files

    def size(self, path: str) -> int:
        """Current (volatile-inclusive) size of ``path``."""
        return len(self._require(path).content)

    def read_bytes(self, path: str) -> bytes:
        """Current (volatile-inclusive) content of ``path``."""
        return bytes(self._require(path).content)

    def write_bytes(self, path: str, data: bytes) -> None:
        """Truncate-and-write; a torn kill leaves a durable prefix."""
        if self._tick("write", path):
            if self._crash_mode == "torn_write":
                torn = bytes(data[: self._cut(len(data), allow_full=False)])
                self._files[path] = _SimFile(torn, durable=torn)
            raise SimulatedCrashError(f"simulated crash during write({path})")
        existing = self._files.get(path)
        durable = existing.durable if existing is not None else None
        sim = _SimFile(data, durable=durable)
        self._files[path] = sim

    def append_bytes(self, path: str, data: bytes) -> None:
        """Append; a torn kill leaves a durable prefix of ``data``."""
        sim = self._files.setdefault(path, _SimFile())
        if self._tick("append", path):
            if self._crash_mode == "torn_write":
                sim.content.extend(data[: self._cut(len(data), allow_full=False)])
                # torn bytes hit the platter before the crash completed
                sim.durable = bytes(sim.content)
            raise SimulatedCrashError(f"simulated crash during append({path})")
        sim.content.extend(data)

    def fsync(self, path: str) -> None:
        """Make content durable; a partial-flush kill persists a prefix."""
        sim = self._require(path)
        if self._tick("fsync", path):
            if self._crash_mode == "partial_flush":
                sim.durable = self._partial_flush(sim)
            raise SimulatedCrashError(f"simulated crash during fsync({path})")
        sim.durable = bytes(sim.content)

    def _partial_flush(self, sim: _SimFile) -> bytes:
        content = bytes(sim.content)
        durable = sim.durable or b""
        if content.startswith(durable):
            # append-style growth: some prefix of the new tail lands
            delta = len(content) - len(durable)
            return content[: len(durable) + self._cut(delta, allow_full=True)]
        # rewrite: an arbitrary prefix of the new content lands
        return content[: self._cut(len(content), allow_full=True)]

    def replace(self, src: str, dst: str) -> None:
        """Atomic rename; a lost-rename kill never lands durably."""
        sim = self._require(src)
        if self._tick("replace", f"{src}->{dst}"):
            if self._crash_mode != "lost_rename":
                # torn/partial modes model the crash striking just
                # *after* the rename landed durably
                del self._files[src]
                self._files[dst] = sim
            # lost_rename: the directory entry was never flushed —
            # after the crash the old destination is back and the
            # source survives with whatever bytes it had synced
            raise SimulatedCrashError(
                f"simulated crash during replace({src} -> {dst})"
            )
        del self._files[src]
        self._files[dst] = sim

    def remove(self, path: str) -> None:
        """Delete ``path`` from both volatile and durable state."""
        self._files.pop(path, None)

    def listdir(self, directory: str) -> list[str]:
        """Sorted names of files directly under ``directory``."""
        prefix = directory.rstrip("/") + "/" if directory else ""
        names = []
        for path in sorted(self._files):
            if not path.startswith(prefix):
                continue
            rest = path[len(prefix):]
            if rest and "/" not in rest:
                names.append(rest)
        return names

    # -- internals -----------------------------------------------------------

    def _require(self, path: str) -> _SimFile:
        sim = self._files.get(path)
        if sim is None:
            raise DurabilityError(f"no such simulated file: {path}")
        return sim
