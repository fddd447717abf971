"""Mid-rollout crash battery: every kill-point, both schedules.

Where :mod:`repro.durability.battery` proves a *single table* survives
any crash, this battery proves the *versioned store* does during a
blue/green rollout:

1. build base labels for a graph, derive a changed graph (one seeded
   edge removed) and its incrementally relabeled generation, and tell
   one :class:`~repro.service.judge.Judge` about **both** graphs
   (generation 0 and generation 1);
2. run the rollout once uncrashed per schedule (``commit`` and
   ``abort``) to count the filesystem kill-points it crosses;
3. for every rollout kill-point × crash mode × schedule: rerun on a
   fresh :class:`SimulatedFS` armed to die exactly there, collapse the
   volatile state, recover through :func:`recover_rollout`, and check

   - recovery lands on **exactly one committed version** — version 1
     only if the commit's manifest replace landed durably, version 0
     otherwise (an aborted schedule must always land on 0);
   - **no mixed-version answers**: every replica of every vertex
     serves bytes from that one committed generation, and seeded probe
     queries decoded from fetched labels pass the judge
     (:meth:`~repro.service.judge.Judge.judge_distance`) *on the
     committed version's graph*;
4. assert the rollout was **incremental**: the plan's labels byte-match
   a full rebuild, and on a non-global change (a pendant removal on a
   long path) ``repro_labels_rebuilt_total`` stays strictly below the
   vertex count.

Any deviation is recorded as a violation; the battery never stops
early, so one run reports every broken kill-point at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durability.battery import _derive_seed
from repro.durability.fs import CRASH_MODES, SimulatedFS
from repro.exceptions import ReproError, SimulatedCrashError
from repro.graphs.graph import Graph
from repro.graphs.traversal import bfs_distances
from repro.labeling.kernel import KernelDecoder
from repro.obs.registry import Registry
from repro.rollout.coordinator import RolloutCoordinator, recover_rollout
from repro.rollout.incremental import GraphChange, IncrementalRelabeler
from repro.service.judge import Judge
from repro.service.store import ShardedLabelStore
from repro.util.rng import make_rng

_ROOT = "rollout-battery"

#: rollout schedules the battery crashes into
SCHEDULES = ("commit", "abort")

#: the non-global locality scenario: a pendant vertex on a long path
#: (diameter >> the schedule's smallest ball radius, so the affected
#: region provably excludes the far ends)
_LOCALITY_PATH = 200
_LOCALITY_EPSILON = 1.5


@dataclass(frozen=True)
class RolloutBatteryReport:
    """Outcome of one exhaustive mid-rollout battery run."""

    seed: int
    epsilon: float
    vertices: int
    removed_edge: tuple[int, int]
    num_shards: int
    replication: int
    baseline_fs_ops: int
    rollout_fs_ops: dict[str, int]
    kill_point_runs: int
    crashes_fired: int
    mode_counts: dict[str, int]
    rollbacks: int
    resumes: int
    label_checks: int
    probe_queries: int
    locality_rebuilt: int
    locality_vertices: int
    violations: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        """True when every kill-point upheld the rollout invariants."""
        return not self.violations


def _pick_removable_edge(graph: Graph, seed: int) -> tuple[int, int]:
    """A seeded edge whose removal keeps the graph connected."""
    edges = sorted(graph.edges())
    rng = make_rng(seed)
    start = rng.randrange(len(edges))
    n = graph.num_vertices
    for offset in range(len(edges)):
        edge = edges[(start + offset) % len(edges)]
        candidate = graph.subgraph_without(removed_edges={edge})
        if len(bfs_distances(candidate, 0)) == n:
            return edge
    raise ReproError("graph has no removable edge that keeps it connected")


def _run_rollout(
    fs: SimulatedFS,
    base: list[bytes],
    new: list[bytes],
    num_shards: int,
    replication: int,
    schedule: str,
    store_seed: int,
) -> tuple[ShardedLabelStore, int]:
    """Attach durably, then stage generation 1 and commit or abort it.

    Returns the store and the fs op count at which the rollout proper
    began (crashes before that point are the plain durability
    battery's territory, not this one's).
    """
    store = ShardedLabelStore(
        base,
        num_shards=num_shards,
        replication=replication,
        seed=store_seed,
    )
    store.attach_durability(fs, _ROOT)
    rollout_start = fs.op_count
    coordinator = RolloutCoordinator(store)
    coordinator.stage(1, new)
    if schedule == "commit":
        coordinator.commit(1)
    else:
        coordinator.abort(1)
    return store, rollout_start


def _check_single_version(
    store: ShardedLabelStore,
    expected: list[bytes],
    tag: str,
) -> tuple[list[str], int]:
    """Every replica of every vertex serves the one expected generation."""
    problems = []
    checks = 0
    if store.num_vertices != len(expected):
        return (
            [f"{tag}: recovered {store.num_vertices} vertices, "
             f"expected {len(expected)}"],
            0,
        )
    for vertex, payload in enumerate(expected):
        for shard in store.replicas(vertex):
            result = store.fetch(shard, vertex)
            checks += 1
            if not result.ok:
                problems.append(
                    f"{tag}: vertex {vertex} shard {shard} failed: "
                    f"{result.error}"
                )
            elif result.data != payload:
                problems.append(
                    f"{tag}: vertex {vertex} shard {shard} serves bytes "
                    f"from the wrong generation"
                )
    return problems, checks


def _probe_queries(
    expected: list[bytes],
    judge: Judge,
    version: int,
    rng,
    probes: int,
    tag: str,
    decoder: KernelDecoder,
) -> tuple[list[str], int]:
    """Seeded decode probes, judged on generation ``version``'s graph.

    ``decoder`` is the battery run's one decoder: it loads label bytes
    by content, so each generation's labels are parsed once.
    """
    problems = []
    candidates = list(range(len(expected)))
    if len(candidates) < 2 or probes <= 0:
        return problems, 0
    labels = {}
    for _ in range(probes):
        s, t = rng.sample(candidates, 2)
        for v in (s, t):
            if v not in labels:
                labels[v] = decoder.load(expected[v])
        answer = decoder.decode(labels[s], labels[t]).distance
        verdict = judge.judge_distance(answer, s, t, version=version)
        problems.extend(f"{tag}: probe {p}" for p in verdict.problems)
    return problems, probes


def _locality_check(obs: Registry) -> tuple[list[str], int, int]:
    """Pendant removal on a long path must rebuild strictly fewer labels."""
    graph = Graph(_LOCALITY_PATH + 1)
    for i in range(_LOCALITY_PATH - 1):
        graph.add_edge(i, i + 1)
    middle = _LOCALITY_PATH // 2
    pendant = _LOCALITY_PATH
    graph.add_edge(middle, pendant)
    before = obs.get_counter_value("repro_labels_rebuilt_total")
    relabeler = IncrementalRelabeler(graph, _LOCALITY_EPSILON, obs=obs)
    plan = relabeler.plan(GraphChange(removed_vertices=(pendant,)))
    counted = obs.get_counter_value("repro_labels_rebuilt_total") - before
    problems = []
    if counted != plan.num_rebuilt:
        problems.append(
            f"locality: counter saw {counted} rebuilds, plan says "
            f"{plan.num_rebuilt}"
        )
    if not 0 < plan.num_rebuilt < graph.num_vertices:
        problems.append(
            f"locality: pendant removal rebuilt {plan.num_rebuilt} of "
            f"{graph.num_vertices} labels — not a strict subset"
        )
    return problems, plan.num_rebuilt, graph.num_vertices


def _mvcc_pin_check(
    base: list[bytes],
    new: list[bytes],
    num_shards: int,
    replication: int,
    seed: int,
) -> list[str]:
    """Uncrashed MVCC semantics: a pin survives a commit unmixed."""
    problems = []
    fs = SimulatedFS(seed=_derive_seed(seed, -2, "pin"))
    # staged by hand (not via _run_rollout) so the pin can straddle the commit
    store = ShardedLabelStore(
        base, num_shards=num_shards, replication=replication, seed=seed
    )
    store.attach_durability(fs, _ROOT)
    coordinator = RolloutCoordinator(store)
    pinned = store.pin()
    probe = len(base) // 2
    shard = store.replicas(probe)[0]
    before = store.fetch(shard, probe, pinned).data
    coordinator.stage(1, new)
    coordinator.commit(1)
    after_pinned = store.fetch(shard, probe, pinned).data
    after_committed = store.fetch(shard, probe).data
    if before != base[probe] or after_pinned != base[probe]:
        problems.append(
            "mvcc: pinned fetch crossed the commit onto new-generation bytes"
        )
    if after_committed != new[probe]:
        problems.append("mvcc: unpinned fetch did not see the new generation")
    store.unpin(pinned)
    try:
        store.fetch(shard, probe, pinned)
        problems.append("mvcc: retired generation still served after unpin")
    except ReproError:
        pass
    return problems


def exhaustive_rollout_battery(
    graph: Graph,
    epsilon: float = 1.0,
    seed: int = 0,
    num_shards: int = 4,
    replication: int = 2,
    probes_per_crash: int = 2,
    limit: int | None = None,
) -> RolloutBatteryReport:
    """Enumerate every mid-rollout kill-point under every crash mode.

    ``limit`` stride-samples the run grid down to at most that many
    crash runs (for smoke jobs); ``None`` runs the full grid.  Returns
    a :class:`RolloutBatteryReport`; callers decide whether a
    non-empty violation list is fatal.
    """
    obs = Registry()
    relabeler = IncrementalRelabeler(graph, epsilon, obs=obs)
    base = relabeler.encoded_labels()
    removed_edge = _pick_removable_edge(graph, seed)
    plan = relabeler.plan(GraphChange(removed_edges=(removed_edge,)))
    relabeler.validate(plan)  # decode-equivalence vs a full rebuild
    new = plan.encoded_labels()
    judge = Judge(graph, relabeler.stretch_bound)
    judge.record(1, plan.new_graph)
    expected = {0: base, 1: new}

    violations: list[str] = []
    violations.extend(
        _mvcc_pin_check(base, new, num_shards, replication, seed)
    )
    locality_problems, locality_rebuilt, locality_total = _locality_check(obs)
    violations.extend(locality_problems)

    # profile runs: count the kill-points each schedule crosses
    rollout_ops: dict[str, int] = {}
    baseline = 0
    for schedule in SCHEDULES:
        profile_fs = SimulatedFS(seed=_derive_seed(seed, -1, schedule))
        _, baseline = _run_rollout(
            profile_fs, base, new, num_shards, replication, schedule, seed
        )
        rollout_ops[schedule] = profile_fs.op_count - baseline

    grid = [
        (schedule, kill_point, mode)
        for schedule in SCHEDULES
        for kill_point in range(
            baseline, baseline + rollout_ops[schedule]
        )
        for mode in CRASH_MODES
    ]
    if limit is not None and limit < len(grid):
        stride = -(-len(grid) // limit)  # ceil division
        grid = grid[::stride]

    probe_rng = make_rng(seed)
    decoder = KernelDecoder()
    crashes_fired = 0
    rollbacks = resumes = 0
    label_checks = probe_queries = 0
    mode_counts = {mode: 0 for mode in CRASH_MODES}

    for schedule, kill_point, mode in grid:
        tag = f"schedule={schedule} kill_point={kill_point} mode={mode}"
        run_seed = _derive_seed(seed, kill_point, f"{schedule}:{mode}")
        fs = SimulatedFS(seed=run_seed)
        fs.arm_crash(kill_point, mode)
        crashed = False
        try:
            _run_rollout(
                fs, base, new, num_shards, replication, schedule, seed
            )
        except SimulatedCrashError:
            crashed = True
        if not crashed:
            violations.append(f"{tag}: armed crash never fired")
            continue
        crashes_fired += 1
        mode_counts[mode] += 1
        fs.crash()
        try:
            recovery = recover_rollout(
                fs, _ROOT, replication=replication, seed=run_seed
            )
        except ReproError as exc:
            violations.append(f"{tag}: recovery failed: {exc}")
            continue
        committed = recovery.committed_version
        if committed not in (0, 1):
            violations.append(
                f"{tag}: recovered onto unknown version {committed}"
            )
            continue
        if schedule == "abort" and committed != 0:
            violations.append(
                f"{tag}: aborted rollout recovered onto version {committed}"
            )
            continue
        if recovery.store.versions != (committed,):
            violations.append(
                f"{tag}: recovery serves versions "
                f"{recovery.store.versions}, expected exactly ({committed},)"
            )
            continue
        if committed == 0:
            rollbacks += 1
        else:
            resumes += 1
        problems, checks = _check_single_version(
            recovery.store, expected[committed], tag
        )
        violations.extend(problems)
        label_checks += checks
        if not problems:
            probe_problems, probed = _probe_queries(
                expected[committed], judge, committed,
                probe_rng, probes_per_crash, tag, decoder,
            )
            violations.extend(probe_problems)
            probe_queries += probed

    return RolloutBatteryReport(
        seed=seed,
        epsilon=epsilon,
        vertices=graph.num_vertices,
        removed_edge=removed_edge,
        num_shards=num_shards,
        replication=replication,
        baseline_fs_ops=baseline,
        rollout_fs_ops=rollout_ops,
        kill_point_runs=len(grid),
        crashes_fired=crashes_fired,
        mode_counts=mode_counts,
        rollbacks=rollbacks,
        resumes=resumes,
        label_checks=label_checks,
        probe_queries=probe_queries,
        locality_rebuilt=locality_rebuilt,
        locality_vertices=locality_total,
        violations=tuple(violations),
    )
