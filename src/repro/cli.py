"""Command-line interface.

Subcommands::

    python -m repro build  GRAPH_SPEC -e 1.0 -o labels.fsdl [--low-level unit]
    python -m repro query  labels.fsdl -s 0 -t 63 [--fail-vertex 5 ...]
    python -m repro info   labels.fsdl
    python -m repro fsck   labels.fsdl
    python -m repro verify GRAPH_SPEC -e 1.0
    python -m repro chaos  GRAPH_SPEC [--schedules 5] [--events 100] [--drop 0.2]
    python -m repro serve-chaos GRAPH_SPEC [--schedules 5] [--events 60] \
        [--shards 4] [--replication 2] [--no-hedging]
    python -m repro crash-battery [GRAPH_SPEC] [--seed 0] [--churn-rounds 3]
    python -m repro rollout [GRAPH_SPEC] [--remove A-B] [--seed 0]
    python -m repro rollout-battery [GRAPH_SPEC] [--seed 0] [--limit N]
    python -m repro experiment [E1 E5 ...] [--full]
    python -m repro lint [PATH ...] [--format text|json] [--select RPL001,...]
    python -m repro metrics [--schedules 20] [--events 60] [--seed 0] \
        [--format prom|json]
    python -m repro trace labels.fsdl -s 0 -t 63 [--fail-vertex 5 ...] \
        [--format text|json]
    python -m repro traffic [--seed 0] [--duration-ms 1000] \
        [--multiplier 4.0] [--format prom|json]
    python -m repro scenario list
    python -m repro scenario validate [FILE ...]
    python -m repro scenario run FILE [--seed N] [--format text|json]
    python -m repro scenario search GRAPH_SPEC [--objective stretch|degraded] \
        [--budget 3] [--seed 0] [--emit FILE.scenario]

``GRAPH_SPEC`` selects a generator: ``path:64``, ``cycle:32``,
``grid:8x8``, ``grid:4x4x4``, ``torus:6x6``, ``tree:50`` (optionally
``tree:50:seed``), ``road:10x10`` (optionally ``road:10x10:seed``),
``cylinder:300x6``, ``king:4x2``, ``halfking:4x2``, ``hypercube:5``,
``sierpinski:4``, ``geometric:100:0.2`` (optionally ``:seed``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any

from repro.exceptions import ReproError
from repro.graphs.graph import Graph


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a ``family:params`` specification string."""
    from repro.graphs import generators as gen

    parts = spec.split(":")
    family, args = parts[0].lower(), parts[1:]

    def dims(text: str) -> list[int]:
        return [int(piece) for piece in text.split("x")]

    try:
        if family == "path":
            return gen.path_graph(int(args[0]))
        if family == "cycle":
            return gen.cycle_graph(int(args[0]))
        if family == "grid":
            return gen.grid_graph(*dims(args[0]))
        if family == "torus":
            return gen.torus_graph(*dims(args[0]))
        if family == "tree":
            seed = int(args[1]) if len(args) > 1 else 0
            return gen.random_tree(int(args[0]), seed=seed)
        if family == "road":
            width, height = dims(args[0])
            seed = int(args[1]) if len(args) > 1 else 0
            return gen.road_like_graph(width, height, seed=seed)
        if family == "cylinder":
            length, circumference = dims(args[0])
            return gen.cylinder_graph(length, circumference)
        if family == "king":
            p, d = dims(args[0])
            return gen.king_grid(p, d)
        if family == "halfking":
            p, d = dims(args[0])
            return gen.half_king_grid(p, d)
        if family == "hypercube":
            return gen.hypercube_graph(int(args[0]))
        if family == "sierpinski":
            return gen.sierpinski_graph(int(args[0]))
        if family == "geometric":
            seed = int(args[2]) if len(args) > 2 else 0
            graph, _ = gen.random_geometric_graph(
                int(args[0]), float(args[1]), seed=seed
            )
            return graph
    except (IndexError, ValueError) as exc:
        raise SystemExit(f"bad graph spec {spec!r}: {exc}")
    raise SystemExit(f"unknown graph family {family!r}")


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        a, b = text.split("-")
        return int(a), int(b)
    except ValueError:
        raise SystemExit(f"bad edge {text!r}; expected 'a-b'")


def cmd_build(args: argparse.Namespace) -> int:
    """``repro build``: construct labels and save a database."""
    from repro.labeling import ForbiddenSetLabeling, LabelingOptions
    from repro.oracle.persistence import save_labels

    graph = parse_graph_spec(args.graph)
    print(f"graph: {graph!r}")
    scheme = ForbiddenSetLabeling(
        graph,
        epsilon=args.epsilon,
        options=LabelingOptions(low_level=args.low_level),
    )
    print(
        f"scheme: eps={args.epsilon} c={scheme.params.c} "
        f"levels={list(scheme.params.levels())}"
    )
    size = save_labels(scheme, args.output, version=args.format_version)
    print(f"wrote {args.output}: {graph.num_vertices} labels, {size} bytes "
          f"(format v{args.format_version})")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: answer a forbidden-set query from a database."""
    from repro.oracle.persistence import LabelDatabase

    db = LabelDatabase.load(args.database)
    edge_faults = [_parse_edge(e) for e in args.fail_edge]
    result = db.query(
        args.source,
        args.target,
        vertex_faults=args.fail_vertex,
        edge_faults=edge_faults,
    )
    if math.isinf(result.distance):
        print(f"d({args.source}, {args.target} | F) = unreachable")
    else:
        print(f"d({args.source}, {args.target} | F) = {result.distance}")
        print(f"sketch path: {' -> '.join(map(str, result.path))}")
    print(
        f"sketch graph: {result.sketch_vertices} vertices, "
        f"{result.sketch_edges} edges"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``repro info``: print database header and size statistics."""
    from repro.oracle.persistence import LabelDatabase

    db = LabelDatabase.load(args.database)
    sizes = [len(db._table[v]) for v in range(db.num_vertices)]
    print(f"format:    v{db.version}")
    print(f"labels:    {db.num_vertices}")
    print(f"epsilon:   {db.epsilon}")
    print(f"c:         {db.c}")
    print(f"top level: {db.top_level}")
    print(f"storage:   {db.size_bits()} bits ({db.size_bits() // 8} bytes)")
    print(f"max label: {8 * max(sizes)} bits")
    print(f"avg label: {8 * sum(sizes) / len(sizes):.0f} bits")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """``repro fsck``: integrity-check a saved label database.

    Exit codes: 0 = clean, 1 = in-place corrupted record(s),
    2 = truncated tail (the file stops before a record does — the
    classic torn-write artifact of a crashed save).
    """
    from repro.exceptions import DatabaseTruncationError
    from repro.oracle.persistence import LabelDatabase

    try:
        db = LabelDatabase.load(args.database, strict=False)
    except DatabaseTruncationError as exc:
        print("integrity: TRUNCATED — the file ends before a record does")
        print(f"  {exc}")
        print("  likely cause: a crash mid-write; restore from the atomic "
              "save path or rebuild")
        return 2
    manifest_status = _fsck_manifest(args.database)
    bad = db.verify()
    print(f"format:    v{db.version}")
    print(f"labels:    {db.num_vertices}")
    if db.version < 2:
        print("warning:   v1 database has no checksums; only decode "
              "failures are detectable")
    if not bad:
        if manifest_status != 0:
            print("integrity: labels OK, but the rollout manifest is corrupt")
            return 1
        print("integrity: OK")
        return 0
    print(f"integrity: {len(bad)} in-place corrupt label(s): "
          f"{', '.join(map(str, bad[:20]))}"
          f"{' ...' if len(bad) > 20 else ''}")
    for vertex, reason in sorted(db.quarantined.items())[:20]:
        print(f"  vertex {vertex}: {reason}")
    return 1


def _fsck_manifest(database: str) -> int:
    """Report the rollout manifest next to ``database``, if one exists.

    A label database living inside a rollout root has a sibling
    ``MANIFEST`` naming the committed label-table generation; surfacing
    it here keeps ``fsck`` the one-stop integrity view.  Returns 0 when
    there is no manifest or it decodes cleanly, 1 when it is corrupt.
    """
    import os

    from repro.durability.fs import RealFS
    from repro.exceptions import StorageCorruptionError
    from repro.rollout.manifest import load_manifest, manifest_path

    root = os.path.dirname(database) or "."
    if not os.path.exists(manifest_path(root)):
        return 0
    try:
        manifest = load_manifest(RealFS(), root)
    except StorageCorruptionError as exc:
        print(f"manifest:  CORRUPT — {exc}")
        return 1
    entry = manifest.committed_entry()
    print(f"manifest:  generation {manifest.committed_version} committed "
          f"({entry.num_shards} shard(s))")
    for other in manifest.entries:
        if other.version != manifest.committed_version:
            print(f"           generation {other.version}: {other.state}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: replay seeded churn traces with invariant checks."""
    from dataclasses import replace

    from repro.chaos import run_plan, standard_suite
    from repro.scenario.generate import churn_trace

    if args.graph is None:
        reports = standard_suite(
            num_schedules=args.schedules,
            num_events=args.events,
            seed=args.seed,
            epsilon=args.epsilon,
        )
    else:
        graph = parse_graph_spec(args.graph)
        reports = []
        for i in range(args.schedules):
            trace = churn_trace(
                args.graph,
                num_events=args.events,
                seed=args.seed + i,
                loss=args.drop,
                name=f"churn-{i}",
            )
            reports.append(replace(
                run_plan(trace, epsilon=args.epsilon),
                name=f"schedule {i} on {graph!r} (loss={args.drop})",
            ))
    violations = 0
    for report in reports:
        print(report.summary())
        for line in report.violations:
            print(f"  ! {line}")
        violations += len(report.violations)
    print(f"\n{len(reports)} schedule(s), {violations} invariant violation(s)")
    return 0 if violations == 0 else 1


def cmd_crash_battery(args: argparse.Namespace) -> int:
    """``repro crash-battery``: exhaustive kill-point durability check.

    Enumerates every filesystem kill-point a seeded write workload
    crosses, crashes at each one under every crash mode (torn write,
    partial flush, lost rename), recovers, and checks the durability
    invariant.  Exit code 0 only when every kill-point passes.
    """
    from repro.durability import CRASH_MODES, exhaustive_crash_battery

    graph = parse_graph_spec(args.graph)
    print(f"graph:        {graph!r}")
    print(f"crash modes:  {', '.join(CRASH_MODES)}")
    report = exhaustive_crash_battery(
        graph,
        epsilon=args.epsilon,
        seed=args.seed,
        churn_rounds=args.churn_rounds,
    )
    print(f"workload:     {report.workload_ops} logical ops over "
          f"{report.vertices} labels (seed {report.seed})")
    print(f"kill-points:  {report.fs_ops} filesystem ops × "
          f"{len(CRASH_MODES)} modes = {report.kill_points} crashes")
    print(f"recoveries:   {report.crashes_fired} "
          f"({report.torn_tails_truncated} torn WAL tails truncated, "
          f"{report.tmp_files_swept} orphaned tmp files swept)")
    print(f"probes:       {report.probe_queries} post-recovery queries "
          f"checked against BFS ground truth")
    if report.passed:
        print("durability:   OK — every kill-point recovered to a prefix "
              "of acknowledged writes")
        return 0
    print(f"durability:   {len(report.violations)} VIOLATION(S)")
    for line in report.violations[:30]:
        print(f"  ! {line}")
    if len(report.violations) > 30:
        print(f"  ... and {len(report.violations) - 30} more")
    return 1


def cmd_rollout(args: argparse.Namespace) -> int:
    """``repro rollout``: demo one incremental blue/green label rollout.

    Plans an incremental relabeling for a single edge removal (seeded
    unless ``--remove`` names the edge), validates it byte-for-byte
    against a full rebuild, then stages and commits it as a new
    generation on a simulated-disk store — spot-checking queries on
    both sides of the commit: ``d(a, b)`` across the removed edge is
    decoded from the store's bytes at generation 0 and again at
    generation 1 (through the serving tier, which stamps the generation
    it read), and the one judge rules on each answer against that
    generation's graph.  Exit code 1 on a violation.
    """
    from repro.durability.fs import SimulatedFS
    from repro.rollout import GraphChange, IncrementalRelabeler, RolloutCoordinator
    from repro.rollout.battery import _pick_removable_edge
    from repro.service import QueryService
    from repro.service.judge import Judge
    from repro.service.store import ShardedLabelStore

    graph = parse_graph_spec(args.graph)
    print(f"graph:     {graph!r}")
    relabeler = IncrementalRelabeler(graph, args.epsilon)
    if args.remove is not None:
        edge = _parse_edge(args.remove)
        edge = (min(edge), max(edge))
    else:
        edge = _pick_removable_edge(graph, args.seed)
    print(f"change:    remove edge {edge}")
    plan = relabeler.plan(GraphChange(removed_edges=(edge,)))
    relabeler.validate(plan)
    print(f"plan:      {plan.num_rebuilt} label(s) rebuilt, "
          f"{plan.num_reused} reused — byte-validated against a full rebuild")

    fs = SimulatedFS(seed=args.seed)
    store = ShardedLabelStore(
        relabeler.encoded_labels(), num_shards=args.shards, seed=args.seed
    )
    store.attach_durability(fs, "rollout-demo")
    service = QueryService(store, relabeler.stretch_bound)
    judge = Judge(graph, relabeler.stretch_bound)
    judge.record(1, plan.new_graph)
    coordinator = RolloutCoordinator(store)
    coordinator.stage(1, plan.encoded_labels())
    print(f"staged:    generation 1 on {args.shards} shard(s) "
          f"(committed is still {store.committed_version})")
    ok = _rollout_spot_check(service, judge, *edge)
    coordinator.commit(1)
    print("committed: generation 1 is live")
    ok = _rollout_spot_check(service, judge, *edge) and ok
    return 0 if ok else 1


def _rollout_spot_check(service, judge, a: int, b: int) -> bool:
    """Serve ``d(a, b)`` from the committed generation's bytes; judge it."""
    outcome = service.query(a, b)
    verdict = judge.judge_answer(outcome, a, b, exact_required=True)
    print(f"check:     generation {outcome.version}: d({a}, {b}) = "
          f"{outcome.distance} decoded from the store — "
          + ("OK" if verdict.ok else "; ".join(verdict.problems)))
    return verdict.ok


def cmd_rollout_battery(args: argparse.Namespace) -> int:
    """``repro rollout-battery``: crash the rollout at every kill-point.

    Stages and commits (resp. aborts) a new label generation on a
    simulated disk, crashing at every filesystem op the rollout
    crosses under every crash mode, and recovers through the manifest
    each time.  Checks: recovery lands on exactly one committed
    generation, every replica serves that generation's bytes (no
    mixed-version answers), probe queries obey the stretch bound
    against the committed graph's BFS truth, and incremental
    relabeling rebuilds strictly fewer labels on a non-global change.
    Exit code 0 only when every kill-point passes.
    """
    from repro.durability import CRASH_MODES
    from repro.rollout.battery import SCHEDULES, exhaustive_rollout_battery

    graph = parse_graph_spec(args.graph)
    print(f"graph:        {graph!r}")
    print(f"crash modes:  {', '.join(CRASH_MODES)}")
    print(f"schedules:    {', '.join(SCHEDULES)}")
    report = exhaustive_rollout_battery(
        graph,
        epsilon=args.epsilon,
        seed=args.seed,
        num_shards=args.shards,
        replication=args.replication,
        limit=args.limit,
    )
    ops = " + ".join(
        f"{count} ({name})" for name, count in report.rollout_fs_ops.items()
    )
    print(f"change:       remove edge {report.removed_edge} "
          f"({report.vertices} labels, {report.num_shards} shards, "
          f"replication {report.replication})")
    print(f"kill-points:  {ops} rollout ops × {len(CRASH_MODES)} modes "
          f"= {report.kill_point_runs} crash runs"
          f"{' (limited)' if args.limit is not None else ''}")
    print(f"recoveries:   {report.crashes_fired} fired — "
          f"{report.rollbacks} rolled back to generation 0, "
          f"{report.resumes} resumed onto generation 1")
    print(f"checks:       {report.label_checks} replica byte-comparisons, "
          f"{report.probe_queries} probe queries vs BFS truth")
    print(f"locality:     pendant removal rebuilt {report.locality_rebuilt}"
          f"/{report.locality_vertices} labels")
    if report.passed:
        print("rollout:      OK — every kill-point recovered onto exactly "
              "one committed generation")
        return 0
    print(f"rollout:      {len(report.violations)} VIOLATION(S)")
    for line in report.violations[:30]:
        print(f"  ! {line}")
    if len(report.violations) > 30:
        print(f"  ... and {len(report.violations) - 30} more")
    return 1


def _serve_chaos_traces(args: argparse.Namespace) -> list:
    """The serve-chaos schedules ``repro serve-chaos`` / ``metrics`` replay."""
    from repro.scenario import random_shard_plan, serve_chaos_suite

    if getattr(args, "graph", None) is None:
        return serve_chaos_suite(
            num_schedules=args.schedules,
            num_events=args.events,
            seed=args.seed,
        )
    return [
        random_shard_plan(
            args.graph,
            num_shards=args.shards,
            replication=args.replication,
            num_events=args.events,
            seed=args.seed + i,
            hedging=not args.no_hedging,
            name=f"schedule-{i}",
        )
        for i in range(args.schedules)
    ]


def cmd_serve_chaos(args: argparse.Namespace) -> int:
    """``repro serve-chaos``: shard-fault schedules against the service.

    Generates the schedules as scenario traces and replays each through
    the code behind ``repro scenario run``.
    """
    from repro.scenario import run_trace

    reports = [
        run_trace(trace, epsilon=args.epsilon)
        for trace in _serve_chaos_traces(args)
    ]
    violations = 0
    totals = dict.fromkeys(("retries", "hedges", "breaker_trips"), 0)
    for report in reports:
        print(report.summary())
        for line in report.violations:
            print(f"  ! {line}")
        violations += len(report.violations)
        for key in totals:
            totals[key] += report.client.get(key, 0)
    queries = sum(report.queries for report in reports)
    exact = sum(report.exact for report in reports)
    degraded = sum(report.degraded for report in reports)
    rate = degraded / queries if queries else 0.0
    print(
        f"\n{len(reports)} schedule(s), {violations} invariant violation(s)\n"
        f"totals: {queries} queries ({exact} exact, {degraded} degraded, "
        f"rate {rate:.2f}), {totals['retries']} retries, "
        f"{totals['hedges']} hedges, {totals['breaker_trips']} breaker trips"
    )
    return 0 if violations == 0 else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: run the contract-enforcing static-analysis pass.

    ``--deep`` stacks the whole-program rules (RPL010–013) on top of
    the per-file pass; ``--changed-only REF`` restricts *reporting*
    (never analysis — interprocedural findings need the whole program)
    to files changed since a git ref.
    """
    from repro.lint import (
        LintResult,
        deep_lint_paths,
        deep_rule_catalogue,
        deep_rule_ids,
        expand_select,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
        rule_catalogue,
    )

    if args.list_rules:
        catalogue = rule_catalogue() + deep_rule_catalogue()
        for rule in catalogue:
            deep = " (--deep)" if rule["id"] in deep_rule_ids() else ""
            print(f"{rule['id']}  [{rule['severity']}]  {rule['summary']}{deep}")
            print(f"        contract: {rule['contract']}")
        return 0
    from pathlib import Path

    for entry in args.paths:
        if not Path(entry).exists():
            raise ReproError(f"no such path: {entry}")
    select = None
    if args.select:
        select = [part.strip() for part in args.select.split(",") if part.strip()]
    local_select, deep_select = _split_lint_select(
        select, deep=args.deep, expand=expand_select
    )
    try:
        result = lint_paths(args.paths, select=local_select)
        if args.deep and deep_select != []:
            deep_result = deep_lint_paths(
                args.paths,
                select=deep_select,
                cache_path=args.cache,
            )
            result = LintResult(
                findings=tuple(sorted(result.findings + deep_result.findings)),
                files_scanned=result.files_scanned,
            )
    except ValueError as exc:  # e.g. --select with an unknown rule id
        raise ReproError(str(exc)) from exc
    if args.changed_only is not None:
        result = _restrict_to_changed(result, args.changed_only)
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def _split_lint_select(
    select: list[str] | None, deep: bool, expand: Any
) -> tuple[list[str] | None, list[str] | None]:
    """Partition ``--select`` tokens into per-file and deep rule sets.

    Without ``--deep``, a token matching only deep rules is an error
    that points at the flag.  Returns ``(local, deep)`` selections;
    ``None`` means "all rules of that tier", ``[]`` means "none".
    """
    from repro.lint.deep_rules import DEEP_RULES
    from repro.lint.engine import META_RULE_ID
    from repro.lint.rules import ALL_RULES

    if select is None:
        return None, None
    local_ids = {rule.rule_id for rule in ALL_RULES} | {META_RULE_ID}
    deep_ids = {rule.rule_id for rule in DEEP_RULES}
    try:
        wanted = expand(select, local_ids | deep_ids)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    deep_wanted = sorted(wanted & deep_ids)
    if deep_wanted and not deep:
        raise ReproError(
            f"rule ids {deep_wanted} are whole-program rules; "
            "run with --deep to enable them"
        )
    return sorted(wanted & local_ids), deep_wanted


def _restrict_to_changed(result: Any, ref: str) -> Any:
    """Keep only findings in files changed since ``ref`` (git diff).

    Analysis already ran over the whole program; this trims the
    *report*, which is the only sound way to scope interprocedural
    findings to a diff.
    """
    import subprocess

    from repro.lint import LintResult

    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", ref, "--"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ReproError(
            f"--changed-only: cannot diff against {ref!r}: {exc}"
        ) from exc
    changed = {
        line.strip().replace("\\", "/")
        for line in proc.stdout.splitlines()
        if line.strip()
    }
    kept = tuple(
        finding
        for finding in result.findings
        if finding.path.replace("\\", "/") in changed
    )
    return LintResult(findings=kept, files_scanned=result.files_scanned)


def cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics``: the standard serve-chaos matrix, exported metrics.

    Replays the seeded schedules through the code behind ``repro
    scenario run`` with one registry shared across them, and prints it
    in Prometheus text format (or canonical JSON).  The same seed
    always prints byte-identical output — that is the property the
    golden-trace test pins down.
    """
    from repro.obs.export import render_metrics_json, render_prometheus
    from repro.obs.registry import Registry
    from repro.scenario import run_trace

    registry = Registry()
    reports = [
        run_trace(trace, epsilon=args.epsilon, obs=registry)
        for trace in _serve_chaos_traces(args)
    ]
    if args.format == "json":
        print(render_metrics_json(registry))
    else:
        print(render_prometheus(registry), end="")
    violations = sum(len(r.violations) for r in reports)
    return 0 if violations == 0 else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: one traced query with its decode span tree."""
    from repro.obs.export import render_trace_json, render_trace_text
    from repro.obs.trace import Tracer
    from repro.oracle.persistence import LabelDatabase

    db = LabelDatabase.load(args.database)
    edge_faults = [_parse_edge(e) for e in args.fail_edge]
    tracer = Tracer()
    result = db.query(
        args.source,
        args.target,
        vertex_faults=args.fail_vertex,
        edge_faults=edge_faults,
        tracer=tracer,
    )
    if args.format == "json":
        print(render_trace_json(tracer))
        return 0
    if math.isinf(result.distance):
        print(f"d({args.source}, {args.target} | F) = unreachable")
    else:
        print(f"d({args.source}, {args.target} | F) = {result.distance}")
    print(render_trace_text(tracer), end="")
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    """``repro traffic``: the overload battery, judged against its SLOs.

    Generates the battery's trace (4x overload mix of three tenants, a
    rush-hour curve, a fault burst, a mid-run shard outage) and replays
    it through the code behind ``repro scenario run``.  Exit status 1
    when any invariant or SLO was violated — the same contract
    ``repro metrics`` has.
    """
    from repro.obs.export import render_prometheus
    from repro.obs.registry import Registry
    from repro.scenario import run_trace, traffic_trace

    registry = Registry()
    report = run_trace(
        traffic_trace(
            seed=args.seed,
            duration_ms=args.duration_ms,
            multiplier=args.multiplier,
        ),
        obs=registry,
    )
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(render_prometheus(registry), end="")
        print(f"# {report.summary()}")
    return _report_status(report)


def _report_status(report) -> int:
    """Exit status of one replay: 1 (violations to stderr) unless clean."""
    if not report.ok:
        for violation in report.violations[:20]:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: check a scheme against the paper's definitions."""
    from repro.labeling import ForbiddenSetLabeling, LabelingOptions
    from repro.labeling.verification import verify_scheme

    graph = parse_graph_spec(args.graph)
    scheme = ForbiddenSetLabeling(
        graph,
        epsilon=args.epsilon,
        options=LabelingOptions(low_level=args.low_level),
    )
    verify_scheme(graph, scheme)
    print(f"OK: {graph!r} at eps={args.epsilon} verifies against the paper's "
          "definitions")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: run experiment tables by id (default: all)."""
    from repro.analysis.experiments import EXPERIMENTS, run_experiment

    names = args.names or sorted(EXPERIMENTS)
    for name in names:
        if name.upper() not in EXPERIMENTS:
            ids = list(EXPERIMENTS)
            raise ReproError(
                f"unknown experiment {name!r}; choose from {ids[0]} … {ids[-1]}"
            )
    for name in names:
        for table in run_experiment(name, quick=not args.full):
            print(table.render())
            print()
    return 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    """``repro scenario list``: the committed scenario library."""
    from repro.scenario import catalogue

    rows = catalogue(args.dir)
    if not rows:
        print("no scenarios found")
        return 0
    width = max(len(name) for name, _, _ in rows)
    for name, path, trace in rows:
        print(
            f"{name:<{width}}  {trace.graph_spec:<12} "
            f"{trace.duration_ms:>7.0f} ms  {len(trace.events):>3} events  "
            f"seed {trace.seed}  ({path.name})"
        )
    return 0


def cmd_scenario_validate(args: argparse.Namespace) -> int:
    """``repro scenario validate``: parse + compile, fail loudly.

    Every file is CRC-verified, round-tripped byte-for-byte through
    the canonical serializer, and compiled against its graph — the
    full strictness of the format, without replaying anything.
    """
    from repro.exceptions import ScenarioError
    from repro.scenario import (
        compile_trace,
        load_scenario,
        scenario_paths,
        serialize_trace,
    )

    paths = args.files or [str(p) for p in scenario_paths(args.dir)]
    if not paths:
        print("no scenario files to validate")
        return 0
    failures = 0
    for path in paths:
        try:
            trace = load_scenario(path)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            canonical = serialize_trace(trace)
            if text != canonical:
                raise ScenarioError(
                    "file is not in canonical form (re-serialize it)"
                )
            compiled = compile_trace(trace)
            print(
                f"OK {path}: {trace.name} on {trace.graph_spec} — "
                f"{len(trace.events)} events, {len(compiled.actions)} "
                f"actions, {len(compiled.probes)} probes, "
                f"{len(compiled.script)} scripted rows"
            )
        except ScenarioError as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
    return 0 if failures == 0 else 1


def cmd_scenario_run(args: argparse.Namespace) -> int:
    """``repro scenario run``: replay one trace through the full stack."""
    from repro.scenario import load_scenario, run_trace

    trace = load_scenario(args.file)
    if args.seed is not None:
        trace = trace.with_seed(args.seed)
    report = run_trace(trace, epsilon=args.epsilon)
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.summary())
        for row in report.windows:
            print(
                f"  [{row.start_ms:>7.1f}, {row.end_ms:>7.1f}) ms: "
                f"{row.submitted:>4} req, availability "
                f"{row.availability:.2f}, degraded {row.degraded_fraction:.2f}, "
                f"worst stretch {row.worst_stretch:.3f}, "
                f"detour {row.worst_detour:.3f}"
            )
    return _report_status(report)


def cmd_scenario_search(args: argparse.Namespace) -> int:
    """``repro scenario search``: adversarial worst-F hunt, emitted as a trace."""
    from repro.scenario import serialize_trace, worst_f_search

    result = worst_f_search(
        args.graph,
        objective=args.objective,
        budget=args.budget,
        seed=args.seed,
        epsilon=args.epsilon,
        restarts=args.restarts,
        baseline_trials=args.baseline_trials,
    )
    print(result.summary())
    for pair in result.worst_pairs:
        print(
            f"  probe {pair.s}->{pair.t}: decoded {pair.decoded:g} vs "
            f"true {pair.true:g}, fault-free {pair.baseline:g} "
            f"(detour {pair.stretch:.4f})"
        )
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(serialize_trace(result.trace))
        print(f"wrote {args.emit} ({result.trace.name})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="forbidden-set distance labels (Abraham-Chechik-"
        "Gavoille-Peleg, PODC 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and save a label database")
    p_build.add_argument("graph", help="graph spec, e.g. grid:8x8")
    p_build.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_build.add_argument("-o", "--output", default="labels.fsdl")
    p_build.add_argument("--low-level", choices=["full", "unit"], default="full")
    p_build.add_argument(
        "--format-version", type=int, choices=[1, 2], default=2,
        help="on-disk format: 2 = checksummed (default), 1 = legacy",
    )
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser("query", help="query a saved label database")
    p_query.add_argument("database")
    p_query.add_argument("-s", "--source", type=int, required=True)
    p_query.add_argument("-t", "--target", type=int, required=True)
    p_query.add_argument("--fail-vertex", type=int, action="append", default=[])
    p_query.add_argument(
        "--fail-edge", action="append", default=[], metavar="A-B"
    )
    p_query.set_defaults(func=cmd_query)

    p_info = sub.add_parser("info", help="inspect a saved label database")
    p_info.add_argument("database")
    p_info.set_defaults(func=cmd_info)

    p_fsck = sub.add_parser(
        "fsck", help="integrity-check a saved label database"
    )
    p_fsck.add_argument("database")
    p_fsck.set_defaults(func=cmd_fsck)

    p_chaos = sub.add_parser(
        "chaos", help="run seeded churn schedules with invariant checks"
    )
    p_chaos.add_argument(
        "graph", nargs="?", default=None,
        help="graph spec (omit to run the standard mixed-graph suite)",
    )
    p_chaos.add_argument("--schedules", type=int, default=5)
    p_chaos.add_argument("--events", type=int, default=100)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--drop", type=float, default=0.0,
                         help="per-link message-drop probability")
    p_chaos.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve-chaos",
        help="run shard-fault schedules against the label-serving runtime",
    )
    p_serve.add_argument(
        "graph", nargs="?", default=None,
        help="graph spec (omit to run the standard service matrix)",
    )
    p_serve.add_argument("--schedules", type=int, default=5)
    p_serve.add_argument("--events", type=int, default=60)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--shards", type=int, default=4)
    p_serve.add_argument("--replication", type=int, default=2)
    p_serve.add_argument("--no-hedging", action="store_true",
                         help="disable hedged reads to replicas")
    p_serve.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_serve.set_defaults(func=cmd_serve_chaos)

    p_battery = sub.add_parser(
        "crash-battery",
        help="exhaustively crash-test the durability layer at every "
        "kill-point",
    )
    p_battery.add_argument(
        "graph", nargs="?", default="grid:4x4",
        help="graph spec for the label workload (default grid:4x4)",
    )
    p_battery.add_argument("--seed", type=int, default=0)
    p_battery.add_argument("--churn-rounds", type=int, default=3,
                           help="delete/re-put churn rounds in the workload")
    p_battery.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_battery.set_defaults(func=cmd_crash_battery)

    p_rollout = sub.add_parser(
        "rollout",
        help="demo an incremental blue/green label rollout on simulated disk",
    )
    p_rollout.add_argument(
        "graph", nargs="?", default="grid:6x6",
        help="graph spec for the rollout demo (default grid:6x6)",
    )
    p_rollout.add_argument("--remove", default=None, metavar="A-B",
                           help="edge to remove (default: seeded choice)")
    p_rollout.add_argument("--seed", type=int, default=0)
    p_rollout.add_argument("--shards", type=int, default=4)
    p_rollout.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_rollout.set_defaults(func=cmd_rollout)

    p_rollout_battery = sub.add_parser(
        "rollout-battery",
        help="crash a blue/green label rollout at every filesystem "
        "kill-point",
    )
    p_rollout_battery.add_argument(
        "graph", nargs="?", default="grid:6x6",
        help="graph spec for the rollout workload (default grid:6x6)",
    )
    p_rollout_battery.add_argument("--seed", type=int, default=0)
    p_rollout_battery.add_argument("--shards", type=int, default=4)
    p_rollout_battery.add_argument("--replication", type=int, default=2)
    p_rollout_battery.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stride-sample the crash grid to at most N runs (CI smoke)",
    )
    p_rollout_battery.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_rollout_battery.set_defaults(func=cmd_rollout_battery)

    p_verify = sub.add_parser(
        "verify", help="check a scheme against the paper's definitions"
    )
    p_verify.add_argument("graph")
    p_verify.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_verify.add_argument("--low-level", choices=["full", "unit"], default="full")
    p_verify.set_defaults(func=cmd_verify)

    p_lint = sub.add_parser(
        "lint", help="run the contract-enforcing static-analysis pass"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src/repro", "tools"],
        help="files/directories to lint (default: src/repro tools)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (json is the stable CI interface; sarif "
             "annotates PR diffs)",
    )
    p_lint.add_argument(
        "--select", default=None, metavar="RPL001,RPL01x",
        help="comma-separated rule ids to run; a trailing 'x' is a "
             "digit wildcard (RPL01x = the whole family)",
    )
    p_lint.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program rules (RPL010-013: call-graph "
             "exception flow, cooperative races, nondeterminism taint, "
             "hot-path allocations)",
    )
    p_lint.add_argument(
        "--changed-only", default=None, metavar="REF",
        help="report only findings in files changed since the git REF "
             "(analysis still covers the whole program)",
    )
    p_lint.add_argument(
        "--cache", default=None, metavar="PATH",
        help="file-hash fact cache for --deep (incremental re-runs)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_exp = sub.add_parser(
        "experiment", help="run experiments E1..E14 (all when none is named)"
    )
    p_exp.add_argument("names", nargs="*")
    p_exp.add_argument("--full", action="store_true")
    p_exp.set_defaults(func=cmd_experiment)

    p_metrics = sub.add_parser(
        "metrics",
        help="run an observed serve-chaos battery and export its metrics",
    )
    p_metrics.add_argument("--schedules", type=int, default=20)
    p_metrics.add_argument("--events", type=int, default=60)
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_metrics.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="prom = Prometheus text exposition, json = canonical JSON",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_trace = sub.add_parser(
        "trace", help="answer one query and print its decode span tree"
    )
    p_trace.add_argument("database")
    p_trace.add_argument("-s", "--source", type=int, required=True)
    p_trace.add_argument("-t", "--target", type=int, required=True)
    p_trace.add_argument("--fail-vertex", type=int, action="append", default=[])
    p_trace.add_argument(
        "--fail-edge", action="append", default=[], metavar="A-B"
    )
    p_trace.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_traffic = sub.add_parser(
        "traffic",
        help="run the seeded overload battery through the async gateway",
    )
    p_traffic.add_argument("--seed", type=int, default=0)
    p_traffic.add_argument(
        "--duration-ms", type=float, default=1000.0,
        help="virtual milliseconds of traffic to replay",
    )
    p_traffic.add_argument(
        "--multiplier", type=float, default=4.0,
        help="offered load relative to what the backend absorbs",
    )
    p_traffic.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="prom = Prometheus text + summary line, json = full report",
    )
    p_traffic.set_defaults(func=cmd_traffic)

    p_scenario = sub.add_parser(
        "scenario",
        help="declarative scenario traces: validate, replay, and attack",
    )
    scenario_sub = p_scenario.add_subparsers(dest="action", required=True)

    p_sc_list = scenario_sub.add_parser(
        "list", help="show the committed scenario library"
    )
    p_sc_list.add_argument(
        "--dir", default=None, metavar="DIR",
        help="scenario directory (default: the repo's scenarios/)",
    )
    p_sc_list.set_defaults(func=cmd_scenario_list)

    p_sc_validate = scenario_sub.add_parser(
        "validate",
        help="parse, CRC-check, canonicality-check and compile scenario "
        "files",
    )
    p_sc_validate.add_argument(
        "files", nargs="*",
        help="scenario files (default: every file in the library)",
    )
    p_sc_validate.add_argument(
        "--dir", default=None, metavar="DIR",
        help="library directory when no files are given",
    )
    p_sc_validate.set_defaults(func=cmd_scenario_validate)

    p_sc_run = scenario_sub.add_parser(
        "run", help="replay one scenario through the full serving stack"
    )
    p_sc_run.add_argument("file", help="the .scenario file to replay")
    p_sc_run.add_argument(
        "--seed", type=int, default=None,
        help="override the trace's seed (default: as committed)",
    )
    p_sc_run.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_sc_run.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="text = summary + per-window table, json = canonical report",
    )
    p_sc_run.set_defaults(func=cmd_scenario_run)

    p_sc_search = scenario_sub.add_parser(
        "search",
        help="adversarial worst-F search; emit the worst trace found",
    )
    p_sc_search.add_argument("graph", help="graph spec, e.g. grid:8x8")
    p_sc_search.add_argument(
        "--objective", choices=["stretch", "degraded"], default="stretch",
    )
    p_sc_search.add_argument("--budget", type=int, default=3,
                             help="fault budget |F| <= k")
    p_sc_search.add_argument("--seed", type=int, default=0)
    p_sc_search.add_argument("--restarts", type=int, default=1)
    p_sc_search.add_argument("--baseline-trials", type=int, default=24)
    p_sc_search.add_argument("-e", "--epsilon", type=float, default=1.0)
    p_sc_search.add_argument(
        "--emit", default=None, metavar="FILE.scenario",
        help="write the worst trace found as a replayable scenario file",
    )
    p_sc_search.set_defaults(func=cmd_scenario_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
