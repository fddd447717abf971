"""Sharded label storage with injectable shard-level faults.

The paper's oracle is "a table T storing the label of each vertex" —
at serving scale that table is partitioned.  :class:`ShardedLabelStore`
splits the encoded labels across ``num_shards`` shards with
``replication``-way replica placement (vertex ``v`` lives on shards
``(v % N, (v+1) % N, …)``), so the loss of any ``replication - 1``
shards leaves every label reachable.

Each stored record is the encoded label prefixed with its CRC32, and
every fetch re-verifies the checksum — a shard whose bytes rot (see
:meth:`ShardedLabelStore.corrupt`, which reuses the seeded mutators of
:mod:`repro.chaos.corruption`) returns *fetch errors*, never garbage
that could decode into a silently wrong distance.

Fault injection is part of the store's contract: shards can be marked
down, slow (higher response latency), or flaky (seeded probabilistic
failures), and recovered back to pristine health.  With a durability
layer attached (:meth:`ShardedLabelStore.attach_durability`), shards
additionally persist their records through the crash-consistent WAL +
snapshot machinery of :mod:`repro.durability`, and ``shard_crash`` /
``shard_restart`` events model a real process death followed by a real
reload-from-disk through recovery.  All latencies are virtual
milliseconds (see :mod:`repro.service.clock`); nothing sleeps.

The store is **versioned** (MVCC blue/green): label tables live in
*generations* keyed by an integer version.  A rollout installs a new
generation next to the committed one (:meth:`install_generation`),
then flips it live in one step (:meth:`commit_generation`) or drops it
(:meth:`abort_generation`).  In-flight queries :meth:`pin` the
committed version at entry and pass it to every :meth:`fetch`, so a
query that straddles a commit still reads the generation it started
on — never a mix of old and new labels.  With durability attached the
on-disk layout is ``root/gen-<version>/shard-<i>`` plus a ``MANIFEST``
(see :mod:`repro.rollout.manifest`) naming the committed generation;
:meth:`restart` routes recovery through the manifest so a restarted
shard comes back on the durably committed version.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.durability.fs import FileSystem
    from repro.durability.recovery import RecoveryReport
    from repro.obs.registry import Registry
    from repro.scenario.trace import ScenarioEvent

from repro.exceptions import LabelCorruptionError, QueryError, ServiceError
from repro.util.rng import RngLike, make_rng

_U32 = struct.Struct("<I")

#: shard fault kinds understood by :meth:`ShardedLabelStore.apply_event`
SHARD_EVENT_KINDS = frozenset({
    "shard_down",
    "shard_recover",
    "shard_slow",
    "shard_flaky",
    "shard_corrupt",
    "shard_crash",
    "shard_restart",
})


@dataclass(frozen=True)
class FetchResult:
    """Outcome of one shard fetch attempt (never raises; hedging needs
    the latency of failures as much as of successes)."""

    ok: bool
    latency_ms: float
    data: bytes | None = None
    error: str | None = None


@dataclass(frozen=True)
class ShardHealth:
    """Current injected state of one shard."""

    down: bool = False
    latency_ms: float = 1.0
    flaky_probability: float = 0.0
    corrupted_records: int = 0
    crashed: bool = False

    @property
    def healthy(self) -> bool:
        """No outage, crash, flakiness or corruption (slowness not counted)."""
        return (
            not self.down
            and not self.crashed
            and self.flaky_probability == 0.0
            and self.corrupted_records == 0
        )


class ShardedLabelStore:
    """Encoded labels partitioned across shards with replication."""

    def __init__(
        self,
        encoded_labels: Sequence[bytes | None],
        num_shards: int = 4,
        replication: int = 2,
        base_latency_ms: float = 1.0,
        fail_fast_latency_ms: float = 0.2,
        seed: RngLike = None,
        initial_version: int = 0,
    ) -> None:
        if not encoded_labels:
            raise ServiceError("cannot shard an empty label table")
        if num_shards < 1:
            raise ServiceError(f"need at least one shard, got {num_shards}")
        if not 1 <= replication <= num_shards:
            raise ServiceError(
                f"replication {replication} must be in [1, {num_shards}]"
            )
        if initial_version < 0:
            raise ServiceError(
                f"initial_version must be >= 0, got {initial_version}"
            )
        self._num_vertices = len(encoded_labels)
        self._num_shards = num_shards
        self._replication = replication
        self._base_latency_ms = base_latency_ms
        self._fail_fast_latency_ms = fail_fast_latency_ms
        self._rng = make_rng(seed)
        # generations of record tables, keyed by version; exactly one is
        # committed at a time, the rest are staged (newer) or retired
        # but still pinned by in-flight queries (older)
        self._generations: dict[int, list[dict[int, bytes | None]]] = {}
        self._pristine_gens: dict[int, list[dict[int, bytes | None]]] = {}
        self._committed_version = initial_version
        self._pin_counts: dict[int, int] = {}
        self._install_records(initial_version, encoded_labels)
        self._health = [
            ShardHealth(latency_ms=base_latency_ms) for _ in range(num_shards)
        ]
        # crash-consistent persistence: attached via attach_durability();
        # durable tables per generation, parallel to _generations
        self._fs = None
        self._durability_root: str | None = None
        self._gen_tables: dict[int, list] = {}
        # metrics registry: attached via attach_observability()
        self._obs: "Registry | None" = None

    def _install_records(
        self, version: int, encoded_labels: Sequence[bytes | None]
    ) -> None:
        # record = crc32(payload) + payload; None marks a label that was
        # already untrustworthy at ingest (quarantined by the database)
        records: list[dict[int, bytes | None]] = [
            {} for _ in range(self._num_shards)
        ]
        for vertex, payload in enumerate(encoded_labels):
            record = (
                None if payload is None
                else _U32.pack(zlib.crc32(payload)) + payload
            )
            for shard in self.replicas(vertex):
                records[shard][vertex] = record
        self._generations[version] = records
        self._pristine_gens[version] = [dict(shard) for shard in records]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_scheme(cls, scheme, **kwargs) -> "ShardedLabelStore":
        """Encode and shard every label of a labeling scheme."""
        from repro.labeling.encoding import encode_label

        graph = scheme._graph
        return cls(
            [encode_label(scheme.label(v)) for v in graph.vertices()], **kwargs
        )

    @classmethod
    def from_database(cls, db, **kwargs) -> "ShardedLabelStore":
        """Shard a :class:`~repro.oracle.oracle.LabelDatabase`'s stored bytes.

        Labels quarantined by a ``strict=False`` load are ingested as
        *poisoned* records: every fetch of them fails loudly, so the
        serving tier degrades instead of decoding garbage.
        """
        encoded: list[bytes | None] = []
        for vertex in range(db.num_vertices):
            try:
                encoded.append(db.encoded(vertex))
            except LabelCorruptionError:
                encoded.append(None)
        return cls(encoded, **kwargs)

    # -- topology -----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many shards the table is partitioned across."""
        return self._num_shards

    @property
    def num_vertices(self) -> int:
        """How many labels the store serves."""
        return self._num_vertices

    @property
    def replication(self) -> int:
        """How many shards hold a copy of each label."""
        return self._replication

    @property
    def base_latency_ms(self) -> float:
        """The healthy per-fetch virtual latency."""
        return self._base_latency_ms

    def replicas(self, vertex: int) -> tuple[int, ...]:
        """Ordered shard ids holding ``vertex`` (primary first)."""
        if not 0 <= vertex < self._num_vertices:
            raise QueryError(f"vertex {vertex} out of range")
        return tuple(
            (vertex + j) % self._num_shards for j in range(self._replication)
        )

    def health(self, shard: int) -> ShardHealth:
        """The current injected state of ``shard``."""
        self._check_shard(shard)
        return self._health[shard]

    # -- versioning (MVCC blue/green) ---------------------------------------

    @property
    def committed_version(self) -> int:
        """The currently live label-table generation."""
        return self._committed_version

    @property
    def versions(self) -> tuple[int, ...]:
        """All generations the store currently holds (ascending)."""
        return tuple(sorted(self._generations))

    def pin(self) -> int:
        """Pin the committed version for one in-flight query.

        The returned version stays fetchable — even across a
        subsequent commit — until the matching :meth:`unpin`, so a
        query reads one consistent generation end to end.
        """
        version = self._committed_version
        self._pin_counts[version] = self._pin_counts.get(version, 0) + 1
        if self._obs is not None:
            self._obs.counter(
                "repro_version_pins_total",
                "Query-lifetime pins taken on label-table generations.",
                version=version,
            ).inc()
        return version

    def unpin(self, version: int) -> None:
        """Release a pin taken by :meth:`pin`.

        A retired generation whose last pin drops is garbage-collected:
        later fetches at that version fail loudly instead of serving a
        version that is no longer guaranteed consistent.
        """
        count = self._pin_counts.get(version, 0)
        if count <= 0:
            raise ServiceError(f"version {version} is not pinned")
        if count == 1:
            del self._pin_counts[version]
            self._maybe_collect(version)
        else:
            self._pin_counts[version] = count - 1

    def _maybe_collect(self, version: int) -> None:
        if version == self._committed_version:
            return
        if version in self._pin_counts:
            return
        self._generations.pop(version, None)
        self._pristine_gens.pop(version, None)
        self._gen_tables.pop(version, None)

    def install_generation(
        self,
        version: int,
        encoded_labels: Sequence[bytes | None],
        tables: list | None = None,
    ) -> None:
        """Stage a new label-table generation next to the live one.

        The generation serves :meth:`fetch` calls that name it
        explicitly but stays invisible to unversioned traffic until
        :meth:`commit_generation`.  ``tables`` are the generation's
        already-written durable tables (the rollout coordinator
        persists the shards before installing).
        """
        if version in self._generations:
            raise ServiceError(f"generation {version} is already installed")
        if version <= self._committed_version:
            raise ServiceError(
                f"new generation {version} must be newer than the committed "
                f"version {self._committed_version}"
            )
        if len(encoded_labels) != self._num_vertices:
            raise ServiceError(
                f"generation {version} has {len(encoded_labels)} labels, "
                f"store serves {self._num_vertices}"
            )
        self._install_records(version, encoded_labels)
        if tables is not None:
            if len(tables) != self._num_shards:
                raise ServiceError(
                    f"generation {version} has {len(tables)} durable tables, "
                    f"store has {self._num_shards} shards"
                )
            self._gen_tables[version] = tables

    def commit_generation(self, version: int) -> None:
        """Flip a staged generation live (in-memory swap).

        Durable ordering is the coordinator's job: it installs the new
        manifest *before* calling this, so the in-memory flip never
        runs ahead of the durable commit point.  The outgoing
        generation survives while pinned and is collected when its
        last pin drops.
        """
        if version not in self._generations:
            raise ServiceError(f"generation {version} is not installed")
        if version == self._committed_version:
            raise ServiceError(f"generation {version} is already committed")
        previous = self._committed_version
        self._committed_version = version
        if self._obs is not None:
            self._obs.counter(
                "repro_version_commits_total",
                "Label-table generation commits (blue/green flips).",
            ).inc()
        self._maybe_collect(previous)

    def abort_generation(self, version: int) -> None:
        """Drop a staged generation that will never be committed."""
        if version == self._committed_version:
            raise ServiceError(
                f"cannot abort the committed generation {version}"
            )
        if version not in self._generations:
            raise ServiceError(f"generation {version} is not installed")
        del self._generations[version]
        self._pristine_gens.pop(version, None)
        self._gen_tables.pop(version, None)
        self._pin_counts.pop(version, None)

    def _resolve_generation(
        self, version: int | None
    ) -> list[dict[int, bytes | None]]:
        if version is None:
            version = self._committed_version
        try:
            return self._generations[version]
        except KeyError:
            raise QueryError(
                f"label-table version {version} is unknown or retired "
                f"(available: {self.versions})"
            ) from None

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self._num_shards:
            raise QueryError(f"shard {shard} out of range")

    # -- observability -------------------------------------------------------

    def attach_observability(self, obs: "Registry | None") -> None:
        """Mirror fetch outcomes and shard events into ``obs``.

        Idempotent; also threads the registry into any already-attached
        durability tables so WAL appends and compactions are counted.
        """
        self._obs = obs
        for tables in self._gen_tables.values():
            for table in tables:
                table.obs = obs

    def _count_fetch(self, shard: int, outcome: str) -> None:
        if self._obs is not None:
            self._obs.counter(
                "repro_shard_fetch_total",
                "Physical shard fetches by shard and outcome.",
                shard=shard, outcome=outcome,
            ).inc()

    # -- serving ------------------------------------------------------------

    def fetch(
        self, shard: int, vertex: int, version: int | None = None
    ) -> FetchResult:
        """One fetch attempt of ``vertex``'s record from ``shard``.

        ``version`` names the pinned label-table generation to read
        (``None`` reads the committed one).  Returns a
        :class:`FetchResult` carrying the virtual latency the attempt
        took; failures are results, not exceptions, because the client
        needs failure latencies for hedging and failover math.
        """
        self._check_shard(shard)
        result = self._fetch(shard, vertex, version)
        self._count_fetch(shard, "ok" if result.ok else (result.error or "?"))
        return result

    def _fetch(
        self, shard: int, vertex: int, version: int | None = None
    ) -> FetchResult:
        records_by_shard = self._resolve_generation(version)
        health = self._health[shard]
        if health.crashed:
            # process is dead: fails fast until a restart recovers it
            return FetchResult(
                ok=False, latency_ms=self._fail_fast_latency_ms, error="crashed"
            )
        if health.down:
            # connection refused: fails fast, does not burn the deadline
            return FetchResult(
                ok=False, latency_ms=self._fail_fast_latency_ms, error="down"
            )
        latency = health.latency_ms * (0.85 + 0.3 * self._rng.random())
        if health.flaky_probability and (
            self._rng.random() < health.flaky_probability
        ):
            return FetchResult(ok=False, latency_ms=latency, error="flaky")
        records = records_by_shard[shard]
        if vertex not in records:
            raise QueryError(
                f"shard {shard} does not hold vertex {vertex} "
                f"(replicas: {self.replicas(vertex)})"
            )
        record = records[vertex]
        if record is None:
            return FetchResult(ok=False, latency_ms=latency, error="quarantined")
        if len(record) < 5:
            return FetchResult(ok=False, latency_ms=latency, error="corrupt")
        stored_crc = _U32.unpack(record[:4])[0]
        payload = record[4:]
        if zlib.crc32(payload) != stored_crc:
            return FetchResult(ok=False, latency_ms=latency, error="corrupt")
        return FetchResult(ok=True, latency_ms=latency, data=payload)

    # -- durability ---------------------------------------------------------

    @property
    def durable(self) -> bool:
        """Whether shards persist through the durability layer."""
        return self._durability_root is not None

    @property
    def filesystem(self) -> "FileSystem | None":
        """The attached :class:`FileSystem` (None when not durable)."""
        return self._fs

    @property
    def durability_root(self) -> str | None:
        """Root directory of the durable layout (None when not durable)."""
        return self._durability_root

    def attach_durability(self, fs, root: str) -> None:
        """Persist every shard through the crash-consistent layer.

        The on-disk layout is versioned: each generation's shard gets a
        :class:`~repro.durability.table.DurableLabelTable` under
        ``root/gen-<version>/shard-<i>`` seeded with its pristine
        payloads and compacted into a snapshot, and a ``MANIFEST`` at
        the root names the committed generation.  From here on
        ``shard_crash`` / ``shard_restart`` events model a real process
        death and a real reload-from-disk through
        :class:`RecoveryManager` — and :meth:`recover` becomes a
        genuine restart rather than an in-memory flag flip.
        Quarantined labels are *absent* from the durable table and come
        back poisoned, exactly as ingested.
        """
        from repro.rollout.manifest import initial_manifest, store_manifest

        version = self._committed_version
        tables = [
            self._persist_shard_table(fs, root, version, shard)
            for shard in range(self._num_shards)
        ]
        store_manifest(
            fs, root, initial_manifest(version, self._num_shards)
        )
        self._fs = fs
        self._durability_root = root
        self._gen_tables = {version: tables}

    def _persist_shard_table(self, fs, root: str, version: int, shard: int):
        """Write one generation-shard's durable table (WAL + snapshot)."""
        from repro.durability.table import DurableLabelTable
        from repro.rollout.manifest import shard_dir

        table = DurableLabelTable.create(
            fs, shard_dir(root, version, shard), obs=self._obs
        )
        pristine = self._pristine_gens[version][shard]
        for vertex in sorted(pristine):
            record = pristine[vertex]
            if record is not None:
                table.put(vertex, record[4:])
        table.compact()
        return table

    def adopt_durability(
        self, fs, root: str, tables: dict[int, list]
    ) -> None:
        """Wire an already-recovered on-disk layout without rewriting it.

        Used by rollout recovery: the coordinator has already repaired
        the manifest and recovered each generation's shard tables, so
        the store just takes ownership of them.
        """
        for version, shard_tables in tables.items():
            if version not in self._generations:
                raise ServiceError(
                    f"cannot adopt tables for uninstalled generation {version}"
                )
            if len(shard_tables) != self._num_shards:
                raise ServiceError(
                    f"generation {version} has {len(shard_tables)} tables, "
                    f"store has {self._num_shards} shards"
                )
        self._fs = fs
        self._durability_root = root
        self._gen_tables = dict(tables)

    def crash(self, shard: int) -> None:
        """Kill a shard's process: its in-memory records are gone.

        Requires an attached durability layer — a crash only makes
        sense when there is a disk to come back from.  Every
        generation's records vanish (they lived in the same process);
        fetches fail fast with ``"crashed"`` until :meth:`restart`.
        """
        self._check_shard(shard)
        self._require_durability("crash")
        for records in self._generations.values():
            records[shard] = {}
        self._health[shard] = replace(self._health[shard], crashed=True)

    def restart(self, shard: int) -> "RecoveryReport":
        """Restart a shard from disk through the manifest + recovery.

        The restarted process first reads the rollout ``MANIFEST`` to
        learn the durably committed generation (syncing the in-memory
        committed version to it — a crash can land between the durable
        commit point and the in-memory flip), then recovers every
        generation it holds through :class:`RecoveryManager`.  Vertices
        missing from a recovered table come back as poisoned
        (quarantined) records.  Injected faults reset, since the
        restarted process starts with fresh state.  Returns the
        committed generation's
        :class:`~repro.durability.recovery.RecoveryReport`.
        """
        from repro.durability.recovery import RecoveryManager
        from repro.rollout.manifest import load_manifest, shard_dir

        self._check_shard(shard)
        self._require_durability("restart")
        manifest = load_manifest(self._fs, self._durability_root)
        durable_version = manifest.committed_version
        if durable_version not in self._generations:
            raise ServiceError(
                f"manifest commits generation {durable_version}, which this "
                f"store never installed (available: {self.versions})"
            )
        self._committed_version = durable_version
        committed_report: "RecoveryReport | None" = None
        manager = RecoveryManager(self._fs, obs=self._obs)
        for version in sorted(self._gen_tables):
            directory = shard_dir(self._durability_root, version, shard)
            table, report = manager.recover(directory)
            records: dict[int, bytes | None] = {}
            for vertex in sorted(self._pristine_gens[version][shard]):
                payload = table.get(vertex)
                records[vertex] = (
                    None if payload is None
                    else _U32.pack(zlib.crc32(payload)) + payload
                )
            self._generations[version][shard] = records
            self._gen_tables[version][shard] = table
            if version == durable_version:
                committed_report = report
        if committed_report is None:
            raise ServiceError(
                f"no durable tables for committed generation {durable_version}"
            )
        self._health[shard] = ShardHealth(latency_ms=self._base_latency_ms)
        return committed_report

    def _require_durability(self, action: str) -> None:
        if not self.durable:
            raise ServiceError(
                f"cannot {action} a shard without an attached durability "
                f"layer (call attach_durability first)"
            )

    # -- fault injection ----------------------------------------------------

    def set_down(self, shard: int) -> None:
        """Take a shard offline (fetches fail fast)."""
        self._check_shard(shard)
        self._health[shard] = replace(self._health[shard], down=True)

    def set_slow(self, shard: int, latency_ms: float) -> None:
        """Degrade a shard's response latency."""
        self._check_shard(shard)
        if latency_ms <= 0:
            raise QueryError(f"latency must be positive, got {latency_ms}")
        self._health[shard] = replace(
            self._health[shard], latency_ms=latency_ms
        )

    def set_flaky(self, shard: int, probability: float) -> None:
        """Make a shard fail each fetch with the given probability."""
        self._check_shard(shard)
        if not 0.0 <= probability <= 1.0:
            raise QueryError(
                f"flaky probability must be in [0, 1], got {probability}"
            )
        self._health[shard] = replace(
            self._health[shard], flaky_probability=probability
        )

    def corrupt(
        self, shard: int, fraction: float = 0.5, rng: RngLike = None
    ) -> int:
        """Corrupt a seeded sample of the shard's records in place.

        Reuses the mutation kinds of :mod:`repro.chaos.corruption`
        (bit flips, overwritten bytes, truncation, appended garbage), so
        the damage is the realistic storage kind.  The per-record CRC
        catches it at fetch time.  Returns the number of records hit.
        """
        from repro.chaos.corruption import mutate

        self._check_shard(shard)
        if not 0.0 < fraction <= 1.0:
            raise QueryError(f"corrupt fraction must be in (0, 1], got {fraction}")
        rng = make_rng(rng if rng is not None else self._rng)
        records = self._generations[self._committed_version][shard]
        candidates = sorted(v for v, rec in records.items() if rec is not None)
        if not candidates:
            return 0
        count = max(1, int(len(candidates) * fraction))
        hit = rng.sample(candidates, min(count, len(candidates)))
        for vertex in hit:
            # length_lie targets .fsdl framing, meaningless for a bare record
            kind = rng.choice(("bit_flip", "byte_xor", "truncate", "extend"))
            damaged, _ = mutate(records[vertex], rng=rng, kind=kind)
            records[vertex] = damaged
        self._health[shard] = replace(
            self._health[shard],
            corrupted_records=self._health[shard].corrupted_records + len(hit),
        )
        return len(hit)

    def recover(self, shard: int) -> None:
        """Restore a shard to clean health and clean label bytes.

        With a durability layer attached this is a genuine
        :meth:`restart` — the records are reloaded from disk through
        recovery, not flipped back in memory.  Without one it falls
        back to restoring the pristine in-memory copy; either way
        injected corruption, latency and flakiness are all cleared.
        """
        self._check_shard(shard)
        if self.durable:
            self.restart(shard)
            return
        for version, records in self._generations.items():
            records[shard] = dict(self._pristine_gens[version][shard])
        self._health[shard] = ShardHealth(latency_ms=self._base_latency_ms)

    def recover_all(self) -> None:
        """Restore every shard."""
        for shard in range(self._num_shards):
            self.recover(shard)

    def apply_event(self, event: ScenarioEvent, rng: RngLike = None) -> None:
        """Apply one shard row of a scenario trace."""
        kind = event.kind
        if kind not in SHARD_EVENT_KINDS:
            raise QueryError(f"not a shard event: {kind!r}")
        if self._obs is not None:
            self._obs.counter(
                "repro_shard_events_total",
                "Shard-level chaos events applied to the store.",
                kind=kind,
            ).inc()
        if kind == "shard_down":
            self.set_down(event.shard)
        elif kind == "shard_recover":
            self.recover(event.shard)
        elif kind == "shard_slow":
            self.set_slow(event.shard, event.latency_ms)
        elif kind == "shard_flaky":
            self.set_flaky(event.shard, event.probability)
        elif kind == "shard_corrupt":
            self.corrupt(event.shard, fraction=event.fraction, rng=rng)
        elif kind == "shard_crash":
            self.crash(event.shard)
        elif kind == "shard_restart":
            self.restart(event.shard)
