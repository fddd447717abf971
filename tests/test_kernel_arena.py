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

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.labeling import FaultSet, ForbiddenSetLabeling
from repro.labeling.kernel import HAVE_NUMPY, KernelDecoder, LabelArena
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
            kern.decode(labels[s], labels[t], faults)
            (entry,) = engine._scache.values()
            vlist, indptr, nbr, wts = entry[0], entry[1], entry[2], entry[3]
            got = csr_to_adjacency(vlist, indptr, nbr, wts)
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
