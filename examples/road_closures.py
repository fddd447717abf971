"""Road closures: live distance queries while streets close and reopen.

Replays a seeded churn trace over a road-like network — the scenario
from the paper's applications section: "allowing users to compute
distances in road networks given a set of failures (road closures,
accidents, etc.)".  The trace's fail, recover and partition rows close
and reopen junctions and roads (a partition closes every road around a
district at once); each send row is one distance query.  Its flooding
rows model routers learning of failures and have no part here.

The labels are computed ONCE; every query is answered against the
currently-closed set with no rebuilding whatsoever, and every answer
is judged against exact recomputation by the paper's guarantee
d <= answer <= (1+eps)·d.  The script exits 1 if any answer breaks it.

Run:  python examples/road_closures.py
"""

import math
import sys

from repro import ForbiddenSetLabeling
from repro.baselines import ExactRecomputeOracle
from repro.scenario import churn_trace
from repro.scenario.compile import build_graph
from repro.service.judge import check_guarantee

SPEC = "road:10x10:3"


def main() -> int:
    graph = build_graph(SPEC)
    print(f"road network: {graph.num_vertices} junctions, {graph.num_edges} roads")

    scheme = ForbiddenSetLabeling(graph, epsilon=1.0)  # one-time preprocessing
    exact = ExactRecomputeOracle(graph)                # ground truth for the demo
    bound = scheme.stretch_bound()

    trace = churn_trace(SPEC, num_events=50, seed=11)
    junctions: set[int] = set()
    roads: set[tuple[int, int]] = set()
    queries = reachable = exact_answers = breaches = 0
    worst_stretch = 1.0

    for step, event in enumerate(trace.events):
        kind = event.kind
        if kind == "propagate":
            continue  # routers flooding news of failures: no part here
        if kind != "send":
            changed = event.edges or (event.edge,)
            if kind == "fail_vertex":
                junctions.add(event.vertex)
            elif kind == "recover_vertex":
                junctions.discard(event.vertex)
            elif kind in ("fail_edge", "partition"):
                roads.update(changed)
            else:  # recover_edge, heal_partition
                roads.difference_update(changed)
            closes = kind in ("fail_vertex", "fail_edge", "partition")
            verb = "closure " if closes else "reopened"
            what = (f"junction {event.vertex}" if event.vertex is not None
                    else f"road {changed[0]}" if len(changed) == 1
                    else f"{len(changed)} roads around a district")
            print(f"[{step:2d}] {verb} {what}   "
                  f"({len(junctions)} junctions, {len(roads)} roads closed)")
            continue
        queries += 1
        faults = dict(vertex_faults=sorted(junctions), edge_faults=sorted(roads))
        answer = scheme.query(event.s, event.t, **faults).distance
        truth = exact.query(event.s, event.t, **faults)
        breach, stretch = check_guarantee(answer, truth, bound)
        reachable += not math.isinf(truth)
        if breach is not None:
            breaches += 1
            status = f"BREACH ({breach}): answer {answer}, true {truth}"
        elif math.isinf(truth):
            status = "unreachable (correctly)"
        else:
            exact_answers += answer == truth
            worst_stretch = max(worst_stretch, stretch or 1.0)
            status = f"d = {answer} (true {truth})"
        print(f"[{step:2d}] query    {event.s} -> {event.t}: {status}")

    print(f"\n{queries} queries, {reachable} reachable, "
          f"{exact_answers} answered exactly, worst stretch {worst_stretch:.3f} "
          f"(bound {bound:.2f}), {breaches} breach(es) of the guarantee")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
