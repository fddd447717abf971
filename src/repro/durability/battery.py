"""Exhaustive kill-point crash battery for the durability layer.

The battery proves the durability invariant *by enumeration* instead
of by sampling:

1. build forbidden-set labels for a graph and derive a deterministic
   write workload (bulk load, delete/re-put churn, periodic
   compaction) over a :class:`DurableLabelTable`;
2. run the workload once uncrashed to count every filesystem
   kill-point it crosses (each write / append / fsync / replace);
3. for every kill-point index and every crash mode (torn write,
   partial flush, lost rename): rerun the workload on a fresh
   :class:`SimulatedFS` armed to die exactly there, collapse the
   volatile state, recover with :class:`RecoveryManager`, and check

   - the recovered table equals the state after *exactly* ``j``
     acknowledged mutations, where ``j`` is either the acknowledged
     count or (when a mutation was in flight) one more — acknowledged
     writes are never lost, unacknowledged ones commit atomically or
     not at all;
   - every recovered payload is byte-identical to the pristine encoded
     label and still decodes;
   - seeded probe queries answered from recovered labels pass the one
     judge (:meth:`Judge.judge_distance
     <repro.service.judge.Judge.judge_distance>`): the scheme's
     ``stretch_bound()`` against BFS ground truth.

One long-lived :class:`~repro.labeling.kernel.KernelDecoder` serves the
whole run: it loads recovered bytes by content, so each distinct
payload is parsed once however many crashes recover it.

Any deviation is recorded as a violation; the battery never stops
early, so one run reports every broken kill-point at once.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.durability.fs import CRASH_MODES, SimulatedFS
from repro.durability.recovery import RecoveryManager
from repro.durability.table import DurableLabelTable
from repro.exceptions import DurabilityError, ReproError, SimulatedCrashError
from repro.graphs.graph import Graph
from repro.labeling.encoding import encode_label
from repro.labeling.kernel import KernelDecoder
from repro.service.judge import Judge
from repro.util.rng import make_rng

#: logical workload operations
_PUT = "put"
_DELETE = "delete"
_COMPACT = "compact"

_TABLE_DIR = "battery/shard-0"


@dataclass(frozen=True)
class WorkloadOp:
    """One logical step of the battery workload."""

    kind: str
    vertex: int = -1


@dataclass
class _Progress:
    """Mutable bookkeeping the workload driver updates as it runs."""

    acked: int = 0
    in_flight_mutation: bool = False


@dataclass(frozen=True)
class CrashBatteryReport:
    """Outcome of one exhaustive battery run."""

    seed: int
    epsilon: float
    vertices: int
    workload_ops: int
    fs_ops: int
    kill_points: int
    crashes_fired: int
    mode_counts: dict[str, int]
    torn_tails_truncated: int
    tmp_files_swept: int
    probe_queries: int
    violations: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        """True when every kill-point upheld the durability invariant."""
        return not self.violations


def build_workload(
    vertices: list[int], seed: int, churn_rounds: int = 3
) -> list[WorkloadOp]:
    """Deterministic op sequence: bulk load, churn, periodic compaction."""
    rng = make_rng(seed)
    ops = [WorkloadOp(_PUT, v) for v in sorted(vertices)]
    ops.append(WorkloadOp(_COMPACT))
    for _ in range(churn_rounds):
        victims = sorted(rng.sample(sorted(vertices), min(4, len(vertices))))
        ops.extend(WorkloadOp(_DELETE, v) for v in victims)
        ops.extend(WorkloadOp(_PUT, v) for v in victims)
        ops.append(WorkloadOp(_COMPACT))
    return ops


def run_workload(
    fs: SimulatedFS,
    ops: list[WorkloadOp],
    payloads: dict[int, bytes],
    progress: _Progress,
) -> DurableLabelTable:
    """Execute ``ops`` against a fresh table, tracking acknowledgements.

    ``progress.acked`` counts completed logical ops; when a crash
    interrupts a state-changing op, ``progress.in_flight_mutation`` is
    True so the checker knows the next prefix state is also legal.
    """
    table = DurableLabelTable.create(fs, _TABLE_DIR)
    for op in ops:
        progress.in_flight_mutation = op.kind != _COMPACT
        if op.kind == _PUT:
            table.put(op.vertex, payloads[op.vertex])
        elif op.kind == _DELETE:
            table.delete(op.vertex)
        elif op.kind == _COMPACT:
            table.compact()
        else:
            raise DurabilityError(f"unknown workload op {op.kind!r}")
        progress.acked += 1
        progress.in_flight_mutation = False
    return table


def prefix_states(
    ops: list[WorkloadOp], payloads: dict[int, bytes]
) -> list[dict[int, bytes]]:
    """``states[j]`` = table content after the first ``j`` logical ops."""
    states: list[dict[int, bytes]] = [{}]
    current: dict[int, bytes] = {}
    for op in ops:
        if op.kind == _PUT:
            current[op.vertex] = payloads[op.vertex]
        elif op.kind == _DELETE:
            current.pop(op.vertex, None)
        states.append(dict(current))
    return states


def _derive_seed(seed: int, kill_point: int, mode: str) -> int:
    """Stable per-run RNG seed (``hash()`` is salted; CRC32 is not)."""
    return zlib.crc32(f"{seed}:{kill_point}:{mode}".encode())


def exhaustive_crash_battery(
    graph: Graph,
    epsilon: float = 1.0,
    seed: int = 0,
    churn_rounds: int = 3,
    probes_per_crash: int = 2,
) -> CrashBatteryReport:
    """Enumerate every kill-point under every crash mode and verify.

    Returns a :class:`CrashBatteryReport`; callers decide whether a
    non-empty violation list is fatal.
    """
    from repro.labeling import ForbiddenSetLabeling

    scheme = ForbiddenSetLabeling(graph, epsilon=epsilon)
    vertices = sorted(graph.vertices())
    payloads = {v: encode_label(scheme.label(v)) for v in vertices}
    judge = Judge(graph, scheme.stretch_bound())
    ops = build_workload(vertices, seed, churn_rounds=churn_rounds)
    states = prefix_states(ops, payloads)

    # profile run: count the filesystem kill-points the workload crosses
    profile_fs = SimulatedFS(seed=_derive_seed(seed, -1, "profile"))
    run_workload(profile_fs, ops, payloads, _Progress())
    fs_ops = profile_fs.op_count

    probe_rng = make_rng(seed)
    decoder = KernelDecoder()
    crashes_fired = 0
    torn_truncated = 0
    tmp_swept = 0
    probe_queries = 0
    mode_counts = {mode: 0 for mode in CRASH_MODES}
    violations: list[str] = []

    for kill_point in range(fs_ops):
        for mode in CRASH_MODES:
            tag = f"kill_point={kill_point} mode={mode}"
            fs = SimulatedFS(seed=_derive_seed(seed, kill_point, mode))
            fs.arm_crash(kill_point, mode)
            progress = _Progress()
            crashed = False
            try:
                run_workload(fs, ops, payloads, progress)
            except SimulatedCrashError:
                crashed = True
            if not crashed:
                violations.append(f"{tag}: armed crash never fired")
                continue
            crashes_fired += 1
            mode_counts[mode] += 1
            fs.crash()
            try:
                table, report = RecoveryManager(fs).recover(_TABLE_DIR)
            except ReproError as exc:
                violations.append(f"{tag}: recovery failed: {exc}")
                continue
            torn_truncated += int(report.torn_bytes_truncated > 0)
            tmp_swept += len(report.swept_tmp)

            acked = progress.acked
            legal = [states[acked]]
            if progress.in_flight_mutation and acked + 1 < len(states):
                legal.append(states[acked + 1])
            recovered = table.state()
            if recovered not in legal:
                violations.append(
                    f"{tag}: recovered state is not a prefix of "
                    f"acknowledged writes (acked={acked}, "
                    f"recovered {len(recovered)} vertices)"
                )
                continue
            problems, probed = _check_recovered_labels(
                recovered, payloads, judge, probe_rng, probes_per_crash,
                decoder,
            )
            violations.extend(f"{tag}: {problem}" for problem in problems)
            probe_queries += probed

    return CrashBatteryReport(
        seed=seed,
        epsilon=epsilon,
        vertices=len(vertices),
        workload_ops=len(ops),
        fs_ops=fs_ops,
        kill_points=fs_ops * len(CRASH_MODES),
        crashes_fired=crashes_fired,
        mode_counts=mode_counts,
        torn_tails_truncated=torn_truncated,
        tmp_files_swept=tmp_swept,
        probe_queries=probe_queries,
        violations=tuple(violations),
    )


def _check_recovered_labels(
    recovered: dict[int, bytes],
    payloads: dict[int, bytes],
    judge: Judge,
    rng,
    probes: int,
    decoder: KernelDecoder,
) -> tuple[list[str], int]:
    """Byte-equality, decodability and query checks on recovered labels.

    Every payload is byte-compared, per crash; ``decoder`` then loads it
    by content, so a payload seen before is not parsed again.  Returns
    ``(problems, probe_queries_run)``.
    """
    problems = []
    labels = {}
    for vertex in sorted(recovered):
        blob = recovered[vertex]
        if blob != payloads[vertex]:
            problems.append(f"vertex {vertex}: recovered bytes differ")
            continue
        try:
            labels[vertex] = decoder.load(blob)
        except ReproError as exc:
            problems.append(f"vertex {vertex}: recovered label broken: {exc}")
    candidates = sorted(labels)
    if len(candidates) < 2:
        return problems, 0
    for _ in range(probes):
        s, t = rng.sample(candidates, 2)
        answer = decoder.decode(labels[s], labels[t]).distance
        problems.extend(judge.judge_distance(answer, s, t).problems)
    return problems, probes
