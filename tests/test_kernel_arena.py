"""Unit and property tests for the kernel's data-structure layer.

Four contracts beneath the differential harness:

* **interning idempotence** — re-interning a label is a no-op: same
  fragment object, same handle, no arena growth; fragment flat arrays
  faithfully replay the label's (level, edge) scan order in both arena
  modes, and a numpy fragment keeps one compact copy of its edges.
* **CSR round-trip** — the engine's cached CSR sketch, re-expanded to
  an adjacency mapping, equals the reference ``build_sketch_graph``'s
  dict sketch exactly — including per-vertex neighbour order, which
  downstream Dijkstra tie-breaking depends on.
* **indexed-heap property** — the reference ``DenseMinHeap`` (the
  algorithm the engine's Dijkstra inlines) replayed against
  :class:`repro.util.pqueue.IndexedMinHeap` on random
  push/decrease/pop scripts: identical pop sequences,
  identical decrease-key outcomes.
* **numpy == stdlib** — both kernel paths produce byte-equal cache
  entries for the same queries, not merely equal answers.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import parse_graph_spec
from repro.graphs import generators as gen
from repro.labeling import FaultSet, ForbiddenSetLabeling
from repro.labeling.encoding import encode_label
from repro.labeling.kernel import HAVE_NUMPY, KernelDecoder, LabelArena, npops
from repro.labeling.label import LevelLabel, VertexLabel
from repro.labeling.params import lam_for_level
from repro.util.pqueue import IndexedMinHeap
from tests.reference_decoder import DenseMinHeap, build_sketch_graph


@pytest.fixture(scope="module")
def labeled():
    graph = gen.road_like_graph(4, 4, seed=3)
    scheme = ForbiddenSetLabeling(graph, 1.0)
    labels = [scheme.label(v) for v in graph.vertices()]
    return graph, labels


# -- interning ---------------------------------------------------------------


class TestInterning:
    def test_intern_is_idempotent(self, labeled):
        _, labels = labeled
        arena = LabelArena()
        first = arena.intern(labels[0])
        again = arena.intern(labels[0])
        assert again is first
        assert len(arena) == 1
        other = arena.intern(labels[1])
        assert other is not first
        assert other.handle != first.handle
        assert len(arena) == 2

    def test_fragment_replays_label_scan_order(self, labeled):
        _, labels = labeled
        label = labels[3]
        expected = []
        for level in sorted(label.levels):
            level_label = label.levels[level]
            row = level - (label.c + 1)
            for (x, y), w in level_label.graph_edges.items():
                expected.append((x, y, w, row, False))
            for (x, y), w in level_label.edges.items():
                expected.append((x, y, w, row, True))
        for use_numpy in [False] + ([True] if HAVE_NUMPY else []):
            frag = LabelArena(use_numpy).intern(label)
            got = [
                (int(frag.ex[j]), int(frag.ey[j]), int(frag.ew[j]), row,
                 j >= vstart)
                for row, start, vstart, end in frag.segments
                for j in range(start, end)
            ]
            assert got == expected
            assert frag.edges_listed == len(expected)
            assert frag.num_levels == len(label.levels)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_numpy_fragment_is_compact(self, labeled):
        """One compact copy: <= 16 bytes of columns per listed edge and no
        Python list as long as the edge count."""
        import numpy as np

        _, labels = labeled
        arena = LabelArena(use_numpy=True)
        for label in labels:
            frag = arena.intern(label)
            values = [getattr(frag, slot) for slot in type(frag).__slots__]
            column_bytes = sum(
                value.nbytes for value in values
                if isinstance(value, np.ndarray)
            )
            assert column_bytes <= 16 * frag.edges_listed
            assert all(
                len(value) < frag.edges_listed
                for value in values
                if isinstance(value, list)
            )

    def test_scheme_mismatch_raises(self, labeled):
        _, labels = labeled
        other_scheme = ForbiddenSetLabeling(gen.grid_graph(4, 4), 0.5)
        other = other_scheme.label(0)
        arena = LabelArena()
        arena.intern(labels[0])
        if (other.c, other.top_level) != (labels[0].c, labels[0].top_level):
            with pytest.raises(Exception, match="different schemes"):
                arena.intern(other)

    def test_reset_bumps_generation_and_empties(self, labeled):
        _, labels = labeled
        arena = LabelArena()
        arena.intern(labels[0])
        generation = arena.generation
        arena.reset()
        assert arena.generation == generation + 1
        assert len(arena) == 0


# -- CSR round-trip ----------------------------------------------------------


def csr_to_adjacency(vlist, indptr, nbr, wts):
    """Expand the engine's CSR arrays back into the reference dict shape."""
    adjacency = {}
    for i, x in enumerate(vlist):
        adjacency[x] = [
            (vlist[nbr[k]], wts[k]) for k in range(indptr[i], indptr[i + 1])
        ]
    return adjacency


@pytest.mark.parametrize(
    "use_numpy", [False] + ([True] if HAVE_NUMPY else [])
)
class TestCsrRoundTrip:
    def test_matches_dict_sketch_graph(self, labeled, use_numpy):
        _, labels = labeled
        kern = KernelDecoder(use_numpy=use_numpy)
        rng = random.Random(0xC5)
        n = len(labels)
        for _ in range(25):
            s, t = rng.sample(range(n), 2)
            fault_v = rng.sample(
                [v for v in range(n) if v not in (s, t)], rng.randrange(0, 3)
            )
            faults = FaultSet(vertex_labels=[labels[f] for f in fault_v])
            expected = build_sketch_graph(labels[s], labels[t], faults)
            engine = kern._engine
            engine._scache.clear()  # isolate this query's entry
            result = kern.decode(labels[s], labels[t], faults)
            (entry,) = engine._scache.values()
            got = csr_to_adjacency(
                entry.vlist, entry.indptr, entry.nbr, entry.wts
            )
            # a sketch lists the vertices of its merged edges; a label
            # vertex without an edge is the query's, counted per query
            isolated = {s, t, *fault_v} - set(entry.vlist)
            assert result.sketch_vertices == len(entry.vlist) + len(isolated)
            got.update((v, []) for v in isolated)
            assert got == expected


# -- indexed heap ------------------------------------------------------------

heap_scripts = st.lists(
    st.tuples(
        st.sampled_from(["push", "decrease", "pop"]),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=80,
)


@settings(max_examples=120, deadline=None)
@given(script=heap_scripts)
def test_dense_heap_matches_indexed_reference(script):
    dense = DenseMinHeap()
    dense.reset(32)
    reference = IndexedMinHeap()
    for op, item, key in script:
        if op == "push":
            if item not in reference:
                got = dense.push_or_decrease(item, key)
                reference.push(item, key)
                assert got is True
            else:
                assert dense.push_or_decrease(item, key) == (
                    key < reference.key(item)
                )
                reference.push_or_decrease(item, key)
        elif op == "decrease":
            if item in reference and key < reference.key(item):
                dense.decrease_key(item, key)
                reference.decrease_key(item, key)
        else:
            if len(reference):
                assert dense.pop() == reference.pop()
        assert len(dense) == len(reference)
        if item in reference:
            assert dense.key(item) == reference.key(item)
    while len(reference):
        assert dense.pop() == reference.pop()
    assert len(dense) == 0


def test_dense_heap_pop_order_matches_heapq():
    import heapq

    rng = random.Random(0x4EA9)
    for _ in range(20):
        items = rng.sample(range(64), rng.randrange(1, 33))
        keys = [rng.randrange(0, 50) for _ in items]
        dense = DenseMinHeap()
        dense.reset(64)
        reference = []
        for item, key in zip(items, keys):
            dense.push(item, key)
            heapq.heappush(reference, key)
        popped_keys = [dense.pop()[1] for _ in items]
        assert popped_keys == [heapq.heappop(reference) for _ in items]


# -- the Dijkstra scan pre-filter --------------------------------------------


def _random_csr(rng: random.Random, nv: int, density: float):
    """A random weighted graph on local ids as the engine's CSR lists."""
    adjacency = [[] for _ in range(nv)]
    for x in range(nv):
        for y in range(x + 1, nv):
            if rng.random() < density:
                w = rng.randint(1, 12)
                adjacency[x].append((y, w))
                adjacency[y].append((x, w))
    indptr = [0]
    nbr, wts = [], []
    for row in adjacency:
        rng.shuffle(row)
        nbr.extend(v for v, _ in row)
        wts.extend(w for _, w in row)
        indptr.append(len(nbr))
    return list(range(nv)), indptr, nbr, wts


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_scan_prefilter_makes_the_heap_operations_of_a_full_scan():
    """Random weights make decrease-keys common, also by exactly 1."""
    import numpy as np

    from repro.labeling.kernel import engine as engine_module
    from repro.obs.trace import Tracer

    engine = KernelDecoder(use_numpy=True)._engine
    rng = random.Random(0x5CA)
    reached = 0
    for trial in range(40):
        nv = rng.randint(2, 90)
        csr = _random_csr(rng, nv, rng.choice([0.3, 0.7, 1.0]))
        fast = (np.array(csr[2], dtype=np.int64),
                np.array(csr[3], dtype=np.int64))
        runs = []
        for adjacency in (None, fast):
            tracer = Tracer()
            with tracer.span("decode.dijkstra") as span:
                answer = engine._dijkstra(*csr, span, adjacency)
            runs.append((answer, tracer.to_dicts()))
        assert runs[0] == runs[1], trial
        degree = max(b - a for a, b in zip(csr[1], csr[1][1:]))
        reached += degree > engine_module.SCAN_PREFILTER_DEGREE
    assert reached > 10  # most instances reach the pre-filter


# -- numpy path == stdlib path, down to the cache entries --------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_numpy_and_stdlib_cache_entries_byte_equal(labeled):
    _, labels = labeled
    np_kern = KernelDecoder(use_numpy=True)
    py_kern = KernelDecoder(use_numpy=False)
    rng = random.Random(0xB17E)
    n = len(labels)
    for _ in range(20):
        s, t = rng.sample(range(n), 2)
        fault_v = rng.sample(
            [v for v in range(n) if v not in (s, t)], rng.randrange(0, 3)
        )
        faults = FaultSet(vertex_labels=[labels[f] for f in fault_v])
        np_result = np_kern.decode(labels[s], labels[t], faults)
        py_result = py_kern.decode(labels[s], labels[t], faults)
        assert np_result == py_result
    np_entries = sorted(np_kern._engine._scache.items())
    py_entries = sorted(py_kern._engine._scache.items())
    assert repr(np_entries) == repr(py_entries)


# -- level-wide rulings == the per-edge rule ---------------------------------

#: two families in the whole-graph regime, where a fault catches every
#: level whole, and two past r_{c+1}, where it catches some levels
RULING_FAMILIES = ["grid:6x6", "road:7x7", "path:96", "cycle:128"]


def per_edge_record(frag, fault_v, fault_e, stride):
    """A fragment's filter record by the safe-edge rule, edge by edge.

    The protected balls come straight from the fault fragments' points
    (distance at most λ of the level), not from the kernel's bitmaps,
    and no level is ruled on whole.  Returns ``(keys, weights,
    dropped_forbidden, dropped_protected)`` with the kept edges' merge
    keys and weights in scan order.
    """

    def ball(center, row):
        lam = lam_for_level(center.c + 1 + row)
        return {
            x
            for r, ids, dists in center.points if r == row
            for x, d in zip(ids, dists) if d <= lam
        }

    forbidden = {frag_f.vertex for frag_f in fault_v}
    cut = {
        (min(a.vertex, b.vertex), max(a.vertex, b.vertex)) for a, b in fault_e
    }
    owner = frag.vertex
    keys, weights = [], []
    dropped_forbidden = dropped_protected = 0
    for row, start, vstart, end in frag.segments:
        for j in range(start, vstart):
            x, y, w = int(frag.ex[j]), int(frag.ey[j]), int(frag.ew[j])
            if x in forbidden or y in forbidden or (x, y) in cut:
                dropped_forbidden += 1
            else:
                keys.append(x * stride + y)
                weights.append(w)
        balls = [(ball(f, row), None) for f in fault_v] + [
            (ball(a, row), ball(b, row)) for a, b in fault_e
        ]
        for j in range(vstart, end):
            x, y, w = int(frag.ex[j]), int(frag.ey[j]), int(frag.ew[j])
            bx, by = x, y
            if row != 0:
                if x == owner:
                    bx = y
                elif y == owner:
                    by = x
            caught = any(
                (bx in pa and by in pa) if pb is None
                else (bx in pa and by in pb) or (bx in pb and by in pa)
                for pa, pb in balls
            )
            if caught:
                dropped_protected += 1
            else:
                keys.append(x * stride + y)
                weights.append(w)
    return keys, weights, dropped_forbidden, dropped_protected


def kernel_record(kern, frag, fsig, fault_v, fault_e):
    """The engine's filter record of ``frag``, as plain keys and weights."""
    engine = kern._engine
    rec = engine._record(frag, fsig, fault_v, fault_e)
    if kern.use_numpy:
        keys = [int(k) for k in rec[0]]
        weights = [int(w) for w in rec[1]]
    else:
        keys = [x * engine._stride + y for x, y in zip(rec[0], rec[1])]
        weights = list(rec[2])
    return keys, weights, rec[-2], rec[-1]


def caught_levels(kern, frag):
    """Per level with virtual edges, whether the loaded faults catch it whole."""
    engine = kern._engine
    levels = [
        (row, ids)
        for (row, _, vstart, end), (_, ids, _) in zip(frag.segments, frag.points)
        if vstart < end
    ]
    if kern.use_numpy:
        rows = npops.caught_rows(frag, engine._groups, engine._stride)
        return [rows[row] for row, _ in levels]
    return [engine._level_caught(row, ids, frag.vertex) for row, ids in levels]


def ruling_fault_sets(graph, seed, count=14):
    """Seeded ``(s, t, fault vertices, fault edges)`` with |F| of 1-3.

    They cycle through vertex faults only, edge faults only and both.
    """
    rng = random.Random(seed)
    n = graph.num_vertices
    edges = sorted(graph.edges())
    cases = []
    for i in range(count):
        s, t = rng.sample(range(n), 2)
        size = rng.randint(1, 3)
        kind = i % 3
        num_e = 0 if kind == 0 else size if kind == 1 else rng.randint(1, size)
        fault_v = rng.sample(
            [v for v in range(n) if v not in (s, t)], size - num_e
        )
        fault_e = rng.sample(edges, num_e)
        cases.append((s, t, fault_v, fault_e))
    return cases


@pytest.mark.parametrize("spec", RULING_FAMILIES)
def test_level_rulings_keep_the_per_edge_record(spec):
    """Whole-level drops change no filter record, on either path.

    Every fragment a seeded faulted query filters (s, t and each fault
    label), loaded from stored bytes and interned from the label
    object, on the numpy and the stdlib path: kept keys and weights in
    scan order and both drop counts equal the per-edge rule's.  (The
    two doors scan a label's edges in different orders: stored order,
    and the label object's dict order.)
    """
    graph = parse_graph_spec(spec)
    scheme = ForbiddenSetLabeling(graph, 1.0)
    labels = [scheme.label(v) for v in graph.vertices()]
    stored = [encode_label(label) for label in labels]
    kernels = []
    for use_numpy in [False] + ([True] if HAVE_NUMPY else []):
        loaded = KernelDecoder(use_numpy=use_numpy)
        interned = KernelDecoder(use_numpy=use_numpy)
        kernels.append(
            ("load", loaded, [loaded.load(data) for data in stored])
        )
        kernels.append(
            ("intern", interned, [interned.arena.intern(lb) for lb in labels])
        )
    for _, kern, frags in kernels:
        assert all(frag.closed for frag in frags)
        kern._engine._sync()
    whole = partial = mixed = 0
    for fsig, (s, t, fv, fe) in enumerate(ruling_fault_sets(graph, 5), 1):
        expected = {}
        for door, kern, frags in kernels:
            fault_v = [frags[v] for v in fv]
            fault_e = [(frags[a], frags[b]) for a, b in fe]
            for frag_f in fault_v + [f for pair in fault_e for f in pair]:
                kern.arena.ensure_fault_tables(frag_f)
            sources = [s, t] + fv + [v for edge in fe for v in edge]
            for v in sources:
                got = kernel_record(kern, frags[v], fsig, fault_v, fault_e)
                if (door, v) not in expected:
                    expected[door, v] = per_edge_record(
                        frags[v], fault_v, fault_e, kern._engine._stride
                    )
                assert got == expected[door, v], (spec, door, s, t, fv, fe, v)
                caught = caught_levels(kern, frags[v])
                whole += sum(caught)
                partial += len(caught) - sum(caught)
                mixed += any(caught) and not all(caught)
    assert whole, "no level was caught whole"
    if spec in ("path:96", "cycle:128"):
        # past r_{c+1} some levels are caught whole and some are not,
        # within one fragment too
        assert partial and mixed
    else:
        assert not partial


@pytest.mark.parametrize("use_numpy", [False] + ([True] if HAVE_NUMPY else []))
def test_an_open_label_is_filtered_edge_by_edge(use_numpy):
    """A label whose virtual edge leaves its level's points is not closed.

    On path:96, find a fault that catches a level of s whole, then give
    s's label one more virtual edge there, to a vertex outside the
    fault's ball: the per-edge rule keeps it, so the filter must not
    rule on that level.  A loop at the owner above the lowest level
    (which the rule tests on the owner itself) opens a label too, at
    both doors.
    """
    graph = parse_graph_spec("path:96")
    scheme = ForbiddenSetLabeling(graph, 1.0)
    labels = [scheme.label(v) for v in graph.vertices()]
    probe = KernelDecoder(use_numpy=use_numpy)
    frags = [probe.arena.intern(label) for label in labels]
    probe._engine._sync()

    def caught_above_the_lowest_level():
        """``(s, f, row, ids, z)``: fault f catches s's level whole, and
        z is neither listed there nor in f's ball."""
        for s in range(0, 96, 7):
            for f in (s - 2, s + 2):
                if not 0 <= f < 96:
                    continue
                probe.arena.ensure_fault_tables(frags[f])
                probe._engine._load_faults([frags[f]], [])
                probe._engine._loaded = -1
                levels = [
                    (row, ids) for (row, _, vstart, end), (_, ids, _)
                    in zip(frags[s].segments, frags[s].points) if vstart < end
                ]
                caught = caught_levels(probe, frags[s])
                for is_caught, (row, ids) in zip(caught, levels):
                    lam = lam_for_level(frags[f].c + 1 + row)
                    ball = {
                        x for r, pts, dists in frags[f].points if r == row
                        for x, d in zip(pts, dists) if d <= lam
                    }
                    for z in range(96):
                        if is_caught and row and z not in ball and z not in ids:
                            yield s, f, row, ids, z

    found = next(caught_above_the_lowest_level(), None)
    assert found, "no level of path:96 is caught whole"
    s, f, row, ids, z = found
    x = next(p for p in ids if p != s)
    open_label = copy.deepcopy(labels[s])
    level = frags[s].c + 1 + row
    open_label.levels[level].edges[(min(x, z), max(x, z))] = abs(x - z)
    loop_label = copy.deepcopy(labels[s])
    loop_label.levels[level].edges[(s, s)] = 1
    # stored edges name listed points only: only the loop can be stored
    for door, label in [
        ("intern", open_label), ("intern", loop_label), ("load", loop_label)
    ]:
        kern = KernelDecoder(use_numpy=use_numpy)
        frag = (
            kern.arena.intern(label) if door == "intern"
            else kern.load(encode_label(label))
        )
        fault = kern.arena.intern(labels[f])
        for other in labels:
            kern.arena.intern(other)
        assert not frag.closed
        kern._engine._sync()
        kern.arena.ensure_fault_tables(fault)
        got = kernel_record(kern, frag, 1, [fault], [])
        assert got == per_edge_record(frag, [fault], [], kern._engine._stride)
        if label is open_label:
            stride = kern._engine._stride
            assert min(x, z) * stride + max(x, z) in got[0]


def _hand_label(vertex, levels):
    """A label of scheme (c=2, top=5) from ``{level: (points, edges[,
    graph_edges])}``."""
    label = VertexLabel(vertex=vertex, epsilon=1.0, c=2, top_level=5)
    for level, (points, edges, *graph_edges) in levels.items():
        label.levels[level] = LevelLabel(
            level=level, points=dict(points), edges=dict(edges),
            graph_edges=dict(*graph_edges),
        )
    return label


@pytest.mark.parametrize("use_numpy", [False] + ([True] if HAVE_NUMPY else []))
def test_rulings_where_the_rule_holds_back(use_numpy):
    """Hand-built levels where a whole-level drop must not, or may, fire.

    s = 0 lists 0-2 at level 3 (the lowest, row 0) and 0-3 at level 4.
    A vertex fault whose balls hold every point but s catches level 4
    whole (s is not tested there) but not level 3, where s is tested.
    An edge fault one of whose balls holds every tested point of level
    4 and the other not all of them catches neither level whole.  Level
    4 also lists a graph edge, which only the builder's lowest level
    does, so the per-edge pass spans a level's graph edges.  With a
    level 5 that the vertex fault does not catch, the caught level 4
    lies inside that span.
    """
    source = _hand_label(0, {
        3: ({0: 0, 1: 1, 2: 2}, {(0, 1): 1, (1, 2): 1, (0, 2): 2}),
        4: ({0: 0, 1: 1, 2: 2, 3: 3},
            {(0, 1): 1, (0, 3): 3, (1, 2): 1, (2, 3): 1}, {(1, 2): 1}),
    })
    # λ is 16 at level 3 and 32 at level 4: distance 99 is outside
    near = _hand_label(5, {
        3: ({0: 99, 1: 3, 2: 3, 5: 0}, {}),
        4: ({0: 99, 1: 3, 2: 3, 3: 3, 5: 0}, {}),
    })
    wide = _hand_label(6, {3: ({6: 0}, {}), 4: ({1: 3, 2: 3, 3: 3, 6: 0}, {})})
    narrow = _hand_label(7, {3: ({7: 0}, {}), 4: ({1: 3, 2: 3, 7: 0}, {})})
    three = copy.deepcopy(source)
    three.levels[5] = LevelLabel(
        level=5, points={0: 0, 1: 1, 2: 2, 3: 3}, edges={(1, 3): 2, (0, 2): 2}
    )
    near.levels[5] = LevelLabel(level=5, points={1: 3, 2: 3, 3: 99, 5: 0})
    for label, fault_v, fault_e, caught in [
        (source, [near], [], [False, True]),
        (source, [], [(wide, narrow)], [False, False]),
        (three, [near], [], [False, True, False]),
    ]:
        kern = KernelDecoder(use_numpy=use_numpy)
        frag = kern.arena.intern(label)
        fv = [kern.arena.intern(label) for label in fault_v]
        fe = [(kern.arena.intern(a), kern.arena.intern(b)) for a, b in fault_e]
        kern._engine._sync()
        for center in fv + [f for pair in fe for f in pair]:
            kern.arena.ensure_fault_tables(center)
        assert frag.closed
        got = kernel_record(kern, frag, 1, fv, fe)
        assert got == per_edge_record(frag, fv, fe, kern._engine._stride)
        assert caught_levels(kern, frag) == caught
