"""Differential harness: the array kernel IS the reference decoder, bit for bit.

The kernel (:class:`repro.labeling.kernel.KernelDecoder`) runs the
object-graph reference decoder of ``tests/reference_decoder.py`` on flat
arrays with cross-query memo caches.  Nothing about it is allowed to
show through: for every query the two decoders must agree on

* the distance, the witness path and the sketch sizes,
* the **entire traced span tree** — names, nesting, and every op-count
  attribute (``nodes_settled``, ``edges_scanned``, ``heap_updates``,
  gather/filter/assembly attrs), byte for byte, and
* every :class:`QueryError` condition (endpoint in ``F``, mixed label
  schemes), message included.

Hypothesis drives (graph family × ε × seeded fault sets); deterministic
cases pin the named edge conditions (``F = ∅``, ``s ∈ F`` / ``t ∈ F``,
disconnected-after-``F``) and the batch API's grouping-order freedom.
Both kernel paths (pure stdlib and numpy) are exercised, and so is the
production entry point :func:`repro.labeling.decoder.decode_distance`
(a fresh kernel per call).

A long-lived kernel per backend serves the whole run on purpose: the
equivalence must survive warm memo caches, arena growth and fault-set
signature reuse, not just a cold first query.
"""

import copy
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import parse_graph_spec
from repro.exceptions import QueryError
from repro.graphs import generators as gen
from repro.labeling import FaultSet, ForbiddenSetLabeling
from repro.labeling.decoder import decode_distance as production_decode
from repro.labeling.encoding import decode_label, encode_label
from repro.labeling.kernel import HAVE_NUMPY, KernelDecoder
from repro.obs.trace import Tracer
from tests.reference_decoder import decode_distance

# -- instances ---------------------------------------------------------------

#: (name, build) graph families × ε — small enough that labeling every
#: instance once at module scope keeps the whole harness under a minute.
INSTANCES = [
    ("grid:4x4/e1", lambda: gen.grid_graph(4, 4), 1.0),
    ("grid:4x4/e0.5", lambda: gen.grid_graph(4, 4), 0.5),
    ("cycle:16/e1", lambda: gen.cycle_graph(16), 1.0),
    ("road:4x4/e1", lambda: gen.road_like_graph(4, 4, seed=3), 1.0),
    ("road:4x4/e0.5", lambda: gen.road_like_graph(4, 4, seed=3), 0.5),
    ("tree:20/e1", lambda: gen.random_tree(20, seed=5), 1.0),
    # diameter 48 > λ = 32 at the lowest level: protected balls no
    # longer cover the whole graph, so each fault drops its own edges
    ("cycle:96/e1", lambda: gen.cycle_graph(96), 1.0),
    # diameter 95 > r_{c+1} = 88: the end labels' lowest level does not
    # cover the whole graph (the regime past the whole-graph one)
    ("path:96/e1", lambda: gen.path_graph(96), 1.0),
]

BACKENDS = ["stdlib"] + (["numpy"] if HAVE_NUMPY else [])

_instance_cache: dict[str, tuple] = {}
_kernel_cache: dict[str, KernelDecoder] = {}


def instance(name):
    """Labels and edge list of a named instance (built once per run)."""
    entry = _instance_cache.get(name)
    if entry is None:
        for iname, build, epsilon in INSTANCES:
            if iname == name:
                graph = build()
                scheme = ForbiddenSetLabeling(graph, epsilon)
                labels = [scheme.label(v) for v in graph.vertices()]
                entry = (labels, sorted(graph.edges()))
                break
        _instance_cache[name] = entry
    return entry


def kernel_for(backend):
    """One long-lived kernel per backend — caches deliberately stay warm."""
    kern = _kernel_cache.get(backend)
    if kern is None:
        kern = _kernel_cache[backend] = KernelDecoder(
            use_numpy=(backend == "numpy")
        )
    return kern


def assert_equivalent(kern, label_s, label_t, faults):
    """One query through both decoders; everything observable must match."""
    legacy_tracer = Tracer()
    kernel_tracer = Tracer()
    try:
        expected = decode_distance(
            label_s, label_t, faults, tracer=legacy_tracer
        )
    except QueryError as exc:
        with pytest.raises(QueryError) as caught:
            kern.decode(label_s, label_t, faults, tracer=kernel_tracer)
        assert str(caught.value) == str(exc)
        return None
    got = kern.decode(label_s, label_t, faults, tracer=kernel_tracer)
    assert got == expected
    assert kernel_tracer.to_dicts() == legacy_tracer.to_dicts()
    return expected


# -- hypothesis-driven sweep -------------------------------------------------


@st.composite
def query_cases(draw):
    """(instance name, s, t, vertex faults, edge faults) over all families."""
    name = draw(st.sampled_from([entry[0] for entry in INSTANCES]))
    labels, edges = instance(name)
    n = len(labels)
    s = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=0, max_value=n - 1))
    # faults may include s or t: QueryError parity is part of the contract
    fault_v = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            max_size=4,
            unique=True,
        )
    )
    fault_e = draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
    return name, s, t, tuple(fault_v), tuple(fault_e)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(case=query_cases())
def test_kernel_matches_legacy(backend, case):
    name, s, t, fault_v, fault_e = case
    labels, _ = instance(name)
    faults = FaultSet(
        vertex_labels=[labels[f] for f in fault_v],
        edge_labels=[(labels[a], labels[b]) for a, b in fault_e],
    )
    assert_equivalent(kernel_for(backend), labels[s], labels[t], faults)


@settings(max_examples=60, deadline=None)
@given(case=query_cases())
def test_one_shot_decode_distance_matches_reference(case):
    name, s, t, fault_v, fault_e = case
    labels, _ = instance(name)
    faults = FaultSet(
        vertex_labels=[labels[f] for f in fault_v],
        edge_labels=[(labels[a], labels[b]) for a, b in fault_e],
    )
    one_shot = SimpleNamespace(decode=production_decode)
    assert_equivalent(one_shot, labels[s], labels[t], faults)


# -- deterministic edge conditions -------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_fault_set_and_trivial_queries(backend):
    labels, _ = instance("grid:4x4/e1")
    kern = kernel_for(backend)
    for s, t in [(0, 15), (3, 12), (7, 7), (0, 0)]:
        assert_equivalent(kern, labels[s], labels[t], FaultSet())


@pytest.mark.parametrize("backend", BACKENDS)
def test_endpoint_inside_forbidden_set_raises_identically(backend):
    labels, _ = instance("cycle:16/e1")
    kern = kernel_for(backend)
    s_faults = FaultSet(vertex_labels=[labels[0], labels[5]])
    t_faults = FaultSet(vertex_labels=[labels[9]])
    both = FaultSet(vertex_labels=[labels[2]])
    assert_equivalent(kern, labels[0], labels[9], s_faults)  # s ∈ F
    assert_equivalent(kern, labels[0], labels[9], t_faults)  # t ∈ F
    assert_equivalent(kern, labels[2], labels[2], both)  # s == t ∈ F


@pytest.mark.parametrize("backend", BACKENDS)
def test_disconnected_after_faults(backend):
    # cutting both neighbours of a cycle vertex strands it: the decoded
    # distance must be inf (with an empty path) from both decoders
    labels, _ = instance("cycle:16/e1")
    kern = kernel_for(backend)
    faults = FaultSet(vertex_labels=[labels[1], labels[15]])
    result = assert_equivalent(kern, labels[0], labels[8], faults)
    assert math.isinf(result.distance)
    assert result.path == ()


@pytest.mark.parametrize("backend", BACKENDS)
def test_faults_with_disjoint_protected_balls(backend):
    # on the small instances the first fault's ball covers the graph and
    # drops every droppable edge; here later faults drop edges of their own
    labels, _ = instance("cycle:96/e1")
    kern = kernel_for(backend)
    faults = FaultSet(vertex_labels=[labels[f] for f in (10, 40, 70)])
    for s, t in [(0, 50), (20, 90), (5, 35), (45, 80)]:
        assert_equivalent(kern, labels[s], labels[t], faults)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_scheme_labels_raise_identically(backend):
    labels, _ = instance("grid:4x4/e1")
    other_labels, _ = instance("grid:4x4/e0.5")
    kern = kernel_for(backend)
    assert_equivalent(kern, labels[0], other_labels[5], FaultSet())


@pytest.mark.parametrize("backend", BACKENDS)
def test_past_the_whole_graph_regime(backend, monkeypatch):
    """Seeded queries on path:96 at ε = 1, numpy on and off.

    Its sketches are large enough that the numpy path's Dijkstra scan
    pre-filter runs (counted here), and its end labels' lowest level
    does not cover the whole graph.
    """
    from repro.labeling.kernel import npops

    scans = []
    real = npops.scan_candidates

    def counting(*args):
        scans.append(1)
        return real(*args)

    monkeypatch.setattr(npops, "scan_candidates", counting)
    labels, edges = instance("path:96/e1")
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    for label_s, label_t, faults in _workload(labels, edges, seed=19):
        assert_equivalent(kern, label_s, label_t, faults)
    assert bool(scans) == (backend == "numpy")


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_hit_traces_its_own_fault_count(backend):
    """A sketch-cache hit reports this query's ``protected_balls``.

    The second query builds a fault-free sketch; the third repeats the
    first and hits its cached sketch, and must still trace two balls.
    """
    labels, _ = instance("cycle:96/e1")
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    faults = FaultSet(vertex_labels=[labels[5], labels[40]])
    for s, t, query_faults in [(0, 10, faults), (3, 20, FaultSet()),
                               (0, 10, faults)]:
        assert_equivalent(kern, labels[s], labels[t], query_faults)


# -- one sketch per (s, F), one paused search per sketch ---------------------

#: two whole-graph instances, two past it
REUSE_INSTANCES = ["grid:4x4/e1", "road:4x4/e1", "cycle:96/e1", "path:96/e1"]


def _reuse_stream(labels, edges, seed):
    """Queries from one fixed ``s`` that share sketches where they can.

    Returns ``(phases, doctored)``.  The phases: every ``t`` with
    ``F = ∅`` in shuffled order; every ``t`` again, in a new order,
    under two fault sets interleaved — ``cut`` (every neighbour of a
    vertex ``u``, which it strands) and ``mixed`` (a vertex and an edge
    fault); then a replay of earlier triples.  ``doctored`` is a copy
    of a target ``t``'s label in which every virtual edge at ``t`` that
    ``s``'s label also lists has weight 1, below the weight ``s`` lists:
    real labels list each key at one weight (exact distances), so only
    such a label reaches the weight clause of the coverage test.
    """
    rng = random.Random(seed)
    n = len(labels)
    adjacent = {v: set() for v in range(n)}
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    s = rng.randrange(n)
    u = min(
        (v for v in range(n) if v != s and s not in adjacent[v]),
        key=lambda v: (len(adjacent[v]), v),
    )
    cut = FaultSet(vertex_labels=[labels[v] for v in sorted(adjacent[u])])
    a, b = rng.choice([e for e in edges if s not in e])
    w = rng.choice([v for v in range(n) if v not in (s, a, b)])
    mixed = FaultSet(
        vertex_labels=[labels[w]], edge_labels=[(labels[a], labels[b])]
    )
    targets = [v for v in range(n) if v != s]
    rng.shuffle(targets)
    fault_free = [(s, t, FaultSet()) for t in targets]
    rng.shuffle(targets)
    faulty = []
    for i, t in enumerate(targets):
        pair = (cut, mixed) if i % 2 else (mixed, cut)
        faulty += [(s, t, pair[0]), (s, t, pair[1])]
    replay = rng.sample(fault_free + faulty, 8)
    label_s = labels[s]
    t = next(
        t for t in targets
        if any(t in key and weight > 1
               for level in label_s.levels.values()
               for key, weight in level.edges.items())
    )
    doctored = copy.deepcopy(labels[t])
    for level in doctored.levels.values():
        for key, weight in level.edges.items():
            if t in key and weight > 1 and any(
                key in other.edges for other in label_s.levels.values()
            ):
                level.edges[key] = 1
    return (fault_free, faulty, replay), (s, doctored)


def _traced(decode, label_s, label_t, faults):
    """One decode's result (or QueryError text) and its span tree."""
    tracer = Tracer()
    try:
        result = decode(label_s, label_t, faults, tracer=tracer)
    except QueryError as exc:
        result = str(exc)
    return result, tracer.to_dicts()


@pytest.mark.parametrize("name", REUSE_INSTANCES)
def test_long_lived_reuse_matches_reference(name):
    """A long-lived decoder answers every target from shared sketches.

    Numpy and stdlib decoders alike take the whole stream of
    :func:`_reuse_stream` — with an ``arena.reset()`` halfway through
    the faulty phase, the doctored label, a stranded (unreachable)
    target and two ``decode_batch`` orders — and every answer and span
    tree must equal the reference's.  On the whole-graph instances the
    fault-free phase must share one sketch, keyed by ``s`` alone, and
    so resume its search from target to target.
    """
    labels, edges = instance(name)
    (fault_free, faulty, replay), (s, doctored) = _reuse_stream(
        labels, edges, seed=23
    )
    whole_graph = name in ("grid:4x4/e1", "road:4x4/e1")
    halfway = len(fault_free) + len(faulty) // 2
    stream = fault_free + faulty + replay
    expected = {}
    for kern in [KernelDecoder(use_numpy=(b == "numpy")) for b in BACKENDS]:
        for i, (qs, qt, faults) in enumerate(stream):
            if i == halfway:
                kern.arena.reset()
            query = (labels[qs], labels[qt], faults)
            if i not in expected:
                expected[i] = _traced(decode_distance, *query)
            assert _traced(kern.decode, *query) == expected[i], (qs, qt)
            if i == len(fault_free) - 1:
                if whole_graph:
                    ((handles, fsig),) = kern._engine._scache
                    assert (len(handles), fsig) == (1, 0)
                # the doctored target may not share the fault-free sketch
                query = (labels[s], doctored, FaultSet())
                assert _traced(kern.decode, *query) == _traced(
                    decode_distance, *query
                )
        batch = [(labels[qs], labels[qt], faults)
                 for qs, qt, faults in fault_free[::3] + faulty[::5]]
        for order in (batch, batch[::-1]):
            kern_tracer = Tracer()
            ref_tracer = Tracer()
            got = kern.decode_batch(order, tracer=kern_tracer)
            want = [decode_distance(*query, tracer=ref_tracer)
                    for query in order]
            assert got == want
            assert kern_tracer.to_dicts() == ref_tracer.to_dicts()


# -- coverage verdicts live and die with their (s, F) sketch ------------------


def _count_coverage_tests(monkeypatch):
    """A list that grows with each step of a coverage test, on either path.

    The numpy path calls ``npops.covers`` once per test; the stdlib path
    bisects the sketch's merge keys once per kept edge it checks.
    """
    from repro.labeling.kernel import engine, npops

    steps = []
    real_covers = npops.covers
    real_bisect = engine.bisect_left

    def covers(*args):
        steps.append("covers")
        return real_covers(*args)

    def bisect_left(*args):
        steps.append("bisect")
        return real_bisect(*args)

    monkeypatch.setattr(npops, "covers", covers)
    monkeypatch.setattr(engine, "bisect_left", bisect_left)
    return steps


def _verdict_probe(kern, steps, labels, faults):
    """``decode(s, t)``: coverage-test steps one query took on ``kern``.

    Each answer, path and span tree must equal a fresh decoder's.
    """

    def decode(s, t):
        before = len(steps)
        got = _traced(kern.decode, labels[s], labels[t], faults)
        taken = len(steps) - before
        fresh = KernelDecoder(use_numpy=kern.use_numpy)
        assert got == _traced(fresh.decode, labels[s], labels[t], faults)
        return taken

    return decode


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_repeated_query_tests_coverage_once(backend, monkeypatch):
    """A repeated (s, t, F) reads t's verdict off the sketch of (s, F).

    On grid:4x4 with one fault, the first query builds the sketch of
    (s, F), and its t's verdict comes with it; a second target is
    tested once, however often it repeats.  An arena reset drops the
    sketch and its verdicts: the second target is tested afresh.
    """
    labels, _ = instance("grid:4x4/e1")
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    steps = _count_coverage_tests(monkeypatch)
    decode = _verdict_probe(
        kern, steps, labels, FaultSet(vertex_labels=[labels[5]])
    )
    s, t1, t2 = 0, 15, 10
    assert decode(s, t1) == 0
    handle = kern.arena.member(labels[s]).handle
    assert any(key[0] == (handle,) for key in kern._engine._scache)
    first = decode(s, t2)
    assert first == 1 if backend == "numpy" else first > 0
    assert decode(s, t2) == 0
    assert decode(s, t1) == 0
    assert decode(s, t2) == 0
    kern.arena.reset()
    assert decode(s, t1) == 0
    assert decode(s, t2) == first
    assert decode(s, t2) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_wider_id_universe_retests_coverage(backend, monkeypatch):
    """A load that widens the id universe drops every kept verdict.

    On path:96 the labels of 1-4 reach vertex 94 at most, and loading
    the label of 95 widens the universe (and every merge key's stride)
    between two runs of the same queries.
    """
    labels, _ = instance("path:96/e1")
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    steps = _count_coverage_tests(monkeypatch)
    decode = _verdict_probe(
        kern, steps, labels, FaultSet(vertex_labels=[labels[1]])
    )
    s, t1, t2 = 4, 2, 3
    assert decode(s, t1) == 0
    first = decode(s, t2)
    assert first > 0
    assert decode(s, t2) == 0
    bound = kern.arena.id_bound
    kern.load(encode_label(labels[95]))
    assert kern.arena.id_bound > bound
    assert decode(s, t1) == 0
    assert decode(s, t2) == first
    assert decode(s, t2) == 0


# -- one sketch graph per shared section -------------------------------------

#: two tables in the whole-graph regime, where every loaded label holds
#: the same lowest section, and two past it
SHARING_SPECS = ["grid:6x6", "road:7x7", "path:96", "cycle:128"]

_table_cache: dict[str, tuple] = {}


def _table(spec):
    """Labels, stored bytes and sorted edges of a graph at ε = 1.

    The labels are those the stored bytes decode to, which list their
    edges in the order a loaded fragment scans them.
    """
    entry = _table_cache.get(spec)
    if entry is None:
        graph = parse_graph_spec(spec)
        scheme = ForbiddenSetLabeling(graph, 1.0)
        stored = [encode_label(scheme.label(v)) for v in graph.vertices()]
        entry = _table_cache[spec] = (
            [decode_label(data) for data in stored], stored,
            sorted(graph.edges()),
        )
    return entry


def _section_keys(kern):
    """The sketch-cache keys whose content is a shared section."""
    return [key for key in kern._engine._scache
            if not isinstance(key[0], tuple)]


def _sharing_stream(labels, edges, seed, count=48):
    """Seeded ``(s, t, fault vertices, fault edges)`` from many sources.

    Fault-free queries interleave with three fault sets (vertices only,
    edges only, both) that recur across sources; the last two queries
    cut every edge at vertex 0, by vertex and by edge faults, so 0 is
    isolated in the sketch they share.
    """
    rng = random.Random(seed)
    n = len(labels)
    pool = [
        (rng.sample(range(n), 2), []),
        ([], rng.sample(edges, 2)),
        (rng.sample(range(n), 1), rng.sample(edges, 1)),
    ]
    cases = []
    for i in range(count):
        s, t = rng.sample(range(n), 2)
        fault_v, fault_e = ([], []) if i % 4 == 0 else pool[i % 4 - 1]
        cases.append((s, t, fault_v, fault_e))
    around = sorted({a + b for a, b in edges if 0 in (a, b)})
    t = n - 1
    cases += [(0, t, around, []), (t // 2, t, around, [])]
    cases += [(0, t, [], [e for e in edges if 0 in e])]
    return cases


@pytest.mark.parametrize("spec", SHARING_SPECS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_sections_match_the_reference(backend, spec):
    """One long-lived decoder over a loaded table, labels in some roles.

    Every answer, path, sketch size and span tree equals the reference
    decoder's, whichever queries shared a graph or a record before.  In
    the whole-graph regime the fault-free and the faulted sketches are
    keyed by the shared section; past it no fragment reduces to one.
    """
    labels, stored, edges = _table(spec)
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    frags = [kern.load(data) for data in stored]
    for i, (s, t, fv, fe) in enumerate(_sharing_stream(labels, edges, 29)):
        # a label object in some roles: the intern door beside the loader
        pick = [frags, labels]
        role_s, role_t, role_f = (
            pick[i % 5 == 1], pick[i % 7 == 2], pick[i % 3 == 1]
        )
        faults = FaultSet(
            vertex_labels=[role_f[v] for v in fv],
            edge_labels=[(role_f[a], role_f[b]) for a, b in fe],
        )
        reference = FaultSet(
            vertex_labels=[labels[v] for v in fv],
            edge_labels=[(labels[a], labels[b]) for a, b in fe],
        )
        got = _traced(kern.decode, role_s[s], role_t[t], faults)
        want = _traced(decode_distance, labels[s], labels[t], reference)
        assert got == want, (spec, i, s, t, fv, fe)
    whole_graph = spec in ("grid:6x6", "road:7x7")
    assert bool(_section_keys(kern)) == whole_graph
    assert all(frag.reduces is not True for frag in frags) != whole_graph


def _hand_table():
    """grid:4x4 labels in which two hold a lowest section missing a key.

    Labels 0 and 5 drop, from their lowest level, a virtual edge that
    their higher levels list: the two share that section (loaded first,
    one after the other), and its later levels add a key to it.
    """
    labels, _ = instance("grid:4x4/e1")
    labels = [copy.deepcopy(label) for label in labels]
    low = min(labels[0].levels)
    higher = [
        set(level.edges) for u in (0, 5)
        for i, level in labels[u].levels.items() if i != low
    ]
    key = sorted(set(labels[0].levels[low].edges).intersection(*higher))[0]
    for u in (0, 5):
        del labels[u].levels[low].edges[key]
    order = [0, 5] + [v for v in range(len(labels)) if v not in (0, 5)]
    return labels, order


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_section_that_adds_a_key_is_not_shared(backend):
    """A source whose higher section adds a key to its lowest one does
    not share that section's sketch, though another fragment holds it."""
    labels, order = _hand_table()
    labels = [decode_label(encode_label(label)) for label in labels]
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    frags = [None] * len(labels)
    for v in order:
        frags[v] = kern.load(encode_label(labels[v]))
    assert frags[0].sections[0] is frags[5].sections[0]
    assert frags[0].sections[0].holders == 2
    faults = [FaultSet(), FaultSet(vertex_labels=[labels[9]])]
    for faulted in (False, True):
        for s, t in [(0, 15), (5, 12), (3, 0), (6, 5), (0, 5), (10, 3)]:
            query = FaultSet(vertex_labels=[frags[9]]) if faulted else FaultSet()
            got = _traced(kern.decode, frags[s], frags[t], query)
            assert got == _traced(
                decode_distance, labels[s], labels[t], faults[faulted]
            )
    assert frags[0].reduces is False and frags[5].reduces is False
    assert frags[3].reduces is True
    keys = kern._engine._scache
    assert ((frags[0].handle,), 0) in keys
    assert (frags[3].sections[0], 0) in keys


def _count_assemblies(monkeypatch):
    """A list that grows with each sketch graph assembled, on either path."""
    from repro.labeling.kernel import engine, npops

    built = []
    real_csr = npops.assemble_csr
    real_py = engine.DecodeEngine._build_csr_py

    def assemble_csr(*args):
        built.append("numpy")
        return real_csr(*args)

    def build_csr_py(self, m):
        built.append("stdlib")
        return real_py(self, m)

    monkeypatch.setattr(npops, "assemble_csr", assemble_csr)
    monkeypatch.setattr(engine.DecodeEngine, "_build_csr_py", build_csr_py)
    return built


def _loaded(backend, spec):
    """A fresh decoder with every label of ``spec`` loaded."""
    labels, stored, edges = _table(spec)
    kern = KernelDecoder(use_numpy=(backend == "numpy"))
    return kern, [kern.load(data) for data in stored], labels, edges


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_free_sources_assemble_one_graph(backend, monkeypatch):
    """Fault-free queries from every source of a loaded grid:6x6 table
    share one sketch graph, each source searching it on its own."""
    kern, frags, labels, _ = _loaded(backend, "grid:6x6")
    built = _count_assemblies(monkeypatch)
    n = len(frags)
    for s in range(n):
        for t in ((s + 1) % n, (s + 17) % n):
            got = kern.decode(frags[s], frags[t])
            if s % 7 == 0:
                assert got == decode_distance(labels[s], labels[t])
    assert len(built) == 1
    ((key, sketch),) = kern._engine._scache.items()
    assert key == (frags[0].sections[0], 0)
    assert sum(search is not None for search in sketch.searches) == n


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_sources_with_one_fault_set_assemble_one_graph(backend, monkeypatch):
    """Sources that share a fault set share its sketch, for vertex and
    for edge faults."""
    kern, frags, labels, _ = _loaded(backend, "grid:6x6")
    built = _count_assemblies(monkeypatch)
    for fv, fe in [([14], []), ([], [(14, 15)])]:
        before = len(built)
        for s, t in [(0, 35), (7, 20), (35, 0)]:
            got = _traced(kern.decode, frags[s], frags[t], FaultSet(
                vertex_labels=[frags[v] for v in fv],
                edge_labels=[(frags[a], frags[b]) for a, b in fe],
            ))
            assert got == _traced(decode_distance, labels[s], labels[t], FaultSet(
                vertex_labels=[labels[v] for v in fv],
                edge_labels=[(labels[a], labels[b]) for a, b in fe],
            ))
        assert len(built) - before == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_shared_section_is_never_coverage_tested(backend, monkeypatch):
    """Each fragment's later levels are tested once against its lowest
    section; the section itself and shared faulted records never are."""
    from repro.labeling.kernel import engine, npops

    kern, frags, labels, _ = _loaded(backend, "grid:6x6")
    tested = []
    real_covers = npops.covers
    real_bisect = engine.bisect_left

    def covers(keys, weights, rec_keys, rec_weights):
        tested.append(len(rec_keys))
        return real_covers(keys, weights, rec_keys, rec_weights)

    def bisect_left(*args):
        tested.append(1)
        return real_bisect(*args)

    monkeypatch.setattr(npops, "covers", covers)
    monkeypatch.setattr(engine, "bisect_left", bisect_left)
    n = len(frags)
    for faults in (FaultSet(), FaultSet(vertex_labels=[frags[14]])):
        for s in range(n):
            for t in range(0, n, 5):
                if t != s and not (faults and 14 in (s, t)):
                    kern.decode(frags[s], frags[t], faults)
    later = [frag.edges_listed - frag.segments[0][3] for frag in frags]
    if backend == "numpy":
        assert sorted(tested) == sorted(later)
    else:
        assert len(tested) == sum(later)


@pytest.mark.parametrize("backend", BACKENDS)
def test_past_the_whole_graph_regime_nothing_is_shared(backend, monkeypatch):
    """On path:96 no fragment reduces to a shared section: every sketch
    is keyed by its source, one graph per key."""
    kern, frags, labels, edges = _loaded(backend, "path:96")
    built = _count_assemblies(monkeypatch)
    for s, t, fv, fe in _sharing_stream(labels, edges, 31):
        kern.decode(frags[s], frags[t], FaultSet(
            vertex_labels=[frags[v] for v in fv],
            edge_labels=[(frags[a], frags[b]) for a, b in fe],
        )) if not {s, t} & set(fv) else None
    assert not _section_keys(kern)
    assert len(built) == len(kern._engine._scache)
    assert not any(frag.reduces for frag in frags)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reset_and_a_wider_universe_rebuild_shared_graphs(backend, monkeypatch):
    """An arena reset, or a load that widens the id universe, drops every
    shared graph and record: the same queries assemble them afresh and
    answer as the reference does."""
    kern, frags, labels, _ = _loaded(backend, "grid:6x6")
    built = _count_assemblies(monkeypatch)
    wide = copy.deepcopy(labels[0])
    wide.vertex = 40

    def run_queries():
        before = len(built)
        for s, t, fv in [(0, 35, []), (9, 20, []), (0, 35, [14]), (9, 20, [14])]:
            got = _traced(kern.decode, frags[s], frags[t], FaultSet(
                vertex_labels=[frags[v] for v in fv]))
            assert got == _traced(decode_distance, labels[s], labels[t], FaultSet(
                vertex_labels=[labels[v] for v in fv]))
        return len(built) - before

    assert run_queries() == 2
    assert run_queries() == 0
    kern.arena.reset()
    assert run_queries() == 2
    bound = kern.arena.id_bound
    kern.load(encode_label(wide))
    assert kern.arena.id_bound > bound
    assert run_queries() == 2


# -- batch API: grouping order never changes an answer -----------------------


def _workload(labels, edges, seed, count=40):
    rng = random.Random(seed)
    n = len(labels)
    queries = []
    for _ in range(count):
        s, t = rng.sample(range(n), 2)
        fault_v = rng.sample(
            [v for v in range(n) if v not in (s, t)], rng.randrange(0, 3)
        )
        fault_e = rng.sample(edges, rng.randrange(0, 2))
        queries.append(
            (
                labels[s],
                labels[t],
                FaultSet(
                    vertex_labels=[labels[f] for f in fault_v],
                    edge_labels=[(labels[a], labels[b]) for a, b in fault_e],
                ),
            )
        )
    return queries


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("order_seed", [0, 1, 2])
def test_batch_matches_sequential_in_any_order(backend, order_seed):
    labels, edges = instance("road:4x4/e1")
    queries = _workload(labels, edges, seed=11)
    rng = random.Random(order_seed)
    rng.shuffle(queries)  # grouping opportunities differ per order
    batch_kern = KernelDecoder(use_numpy=(backend == "numpy"))
    seq_kern = KernelDecoder(use_numpy=(backend == "numpy"))
    batch = batch_kern.decode_batch(queries)
    sequential = [seq_kern.decode(ls, lt, faults) for ls, lt, faults in queries]
    legacy = [decode_distance(ls, lt, faults) for ls, lt, faults in queries]
    assert batch == sequential == legacy


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_traces_match_a_decode_loop(backend):
    labels, edges = instance("grid:4x4/e1")
    queries = _workload(labels, edges, seed=13, count=12)
    batch_kern = KernelDecoder(use_numpy=(backend == "numpy"))
    loop_kern = KernelDecoder(use_numpy=(backend == "numpy"))
    batch_tracer = Tracer()
    loop_tracer = Tracer()
    batch_kern.decode_batch(queries, tracer=batch_tracer)
    for ls, lt, faults in queries:
        loop_kern.decode(ls, lt, faults, tracer=loop_tracer)
    assert batch_tracer.to_dicts() == loop_tracer.to_dicts()


# -- numpy path == stdlib path ----------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_numpy_and_stdlib_paths_agree():
    labels, edges = instance("road:4x4/e0.5")
    queries = _workload(labels, edges, seed=17)
    np_kern = KernelDecoder(use_numpy=True)
    py_kern = KernelDecoder(use_numpy=False)
    np_tracer = Tracer()
    py_tracer = Tracer()
    np_results = np_kern.decode_batch(queries, tracer=np_tracer)
    py_results = py_kern.decode_batch(queries, tracer=py_tracer)
    assert np_results == py_results
    assert np_tracer.to_dicts() == py_tracer.to_dicts()
