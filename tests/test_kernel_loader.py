"""The decode kernel's loader: stored bytes straight into arena fragments.

:meth:`repro.labeling.kernel.KernelDecoder.load` parses a label's bytes
into a fragment without building a ``VertexLabel``, through one
content-keyed cache that reuses whole labels (by their bytes) and level
edge sections (by point order and exact bit text).  Its reference is the
label door it replaces: ``intern(decode_label(data))``.  This module
checks

* real labels — every label of every codec-differential family at
  ε ∈ {1, 0.5, 0.1} loads to the columns, segments, ``edges_listed``,
  ball points, ``closed`` flag, tested points and protected-ball bitmaps
  of the reference, in both arena modes, with the section cache warm
  across each table;
* corrupt input — the codec differential's 1,200 seeded corruptions and
  every prefix of one label get the reference's verdict (equal fragment,
  or a raise within ``DECODE_ERRORS``) from a loader whose cache is warm
  with the clean table, and a failed load leaves no fragment behind;
* the cache — a section that shares only its point order with a held
  one is parsed afresh, a truncated label whose prefix matches held
  sections still raises, two decoders share nothing, and ``reset()``
  drops the cache;
* answers — queries over loaded fragments equal queries over the decoded
  labels, span trees included, also when a reset falls between the loads
  and the decode.
"""

from __future__ import annotations

import random
import struct

import pytest

import repro.labeling.kernel.arena as arena_module
from repro.exceptions import QueryError
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.labeling import FaultSet, ForbiddenSetLabeling
from repro.labeling.encoding import DECODE_ERRORS, decode_label, encode_label
from repro.labeling.kernel import HAVE_NUMPY, KernelDecoder, LabelArena
from repro.obs.trace import Tracer
from repro.util.bitio import BitWriter
from tests.test_codec_differential import (
    CASES,
    MUTATION_CASES,
    _mutate,
    family_labels,
)

MODES = [False] + ([True] if HAVE_NUMPY else [])
MODE_IDS = ["stdlib"] + (["numpy"] if HAVE_NUMPY else [])


def fields(frag) -> tuple:
    """Everything a fragment holds that a query reads, in plain values."""
    dtypes = tuple(
        str(getattr(column, "dtype", "list"))
        for column in (frag.ex, frag.ey, frag.ew)
    )
    return (
        frag.vertex, frag.c, frag.top_level, frag.rows, frag.bound,
        frag.levels_sorted, frag.num_levels, frag.segments,
        frag.edges_listed, [int(x) for x in frag.ex],
        [int(y) for y in frag.ey], [int(w) for w in frag.ew], dtypes,
        frag.points, frag.closed,
        None if frag.pid is None else (frag.pid.tolist(), frag.prow.tolist()),
    )


def balls(arena: LabelArena, frag) -> list:
    """The fragment's protected-ball bitmaps, built on demand."""
    arena.ensure_fault_tables(frag)
    return [bool(b) for b in frag.ball] if arena.use_numpy else [
        bytes(row) for row in frag.ball
    ]


def verdict(load, data: bytes):
    """A door's fragment fields for ``data``, or ``"raises"``."""
    try:
        return fields(load(data))
    except DECODE_ERRORS:
        return "raises"


def reference_door(use_numpy: bool):
    """``intern(decode_label(data))`` on a fresh arena per call."""
    return lambda data: LabelArena(use_numpy).intern(decode_label(data))


# -- real labels ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name,epsilon", CASES, ids=[f"{n}@{e}" for n, e in CASES]
)
def test_every_family_loads_like_decode_label(name, epsilon):
    encodings = [encode_label(label) for label in family_labels(name, epsilon)]
    for use_numpy in MODES:
        loaded = LabelArena(use_numpy)
        interned = LabelArena(use_numpy)
        pairs = [
            (loaded.load(data), interned.intern(decode_label(data)))
            for data in encodings
        ]
        assert loaded.id_bound == interned.id_bound
        for got, want in pairs:
            assert fields(got) == fields(want)
            assert balls(loaded, got) == balls(interned, want)
        assert loaded.parses == len(set(encodings))
        # a second pass over the table is served whole from the cache
        assert [loaded.load(data) for data in encodings] == [
            got for got, _ in pairs
        ]
        assert loaded.hits == len(encodings)


# -- corrupt input -------------------------------------------------------------


def _warm(arena: LabelArena, encodings: list[bytes]) -> LabelArena:
    """Hold the clean table's sections, as a serving arena would."""
    for data in encodings:
        arena.load(data)
    return arena


@pytest.mark.parametrize("use_numpy", MODES, ids=MODE_IDS)
@pytest.mark.parametrize(
    "name,epsilon",
    MUTATION_CASES,
    ids=[f"{n}@{e}" for n, e in MUTATION_CASES],
)
def test_corrupt_encodings_get_the_reference_verdict(name, epsilon, use_numpy):
    encodings = [encode_label(label) for label in family_labels(name, epsilon)]
    rng = random.Random(f"{name}@{epsilon}")
    reference = reference_door(use_numpy)
    arena = _warm(LabelArena(use_numpy), encodings)
    verdicts = {"raises": 0, "decodes": 0}
    for trial in range(400):
        kind = ("flip", "truncate", "append", "overwrite")[trial % 4]
        data = _mutate(rng.choice(encodings), kind, rng)
        if len(arena) == 0:  # a scheme switch started the arena over
            _warm(arena, encodings)
        size = len(arena)
        want = verdict(reference, data)
        assert verdict(arena.load, data) == want, (kind, data.hex())
        if want == "raises":
            assert len(arena) == size and data not in arena._by_bytes
        verdicts["raises" if want == "raises" else "decodes"] += 1
    # the seeds reach both outcomes, so both are compared
    assert min(verdicts.values()) > 50, verdicts


@pytest.mark.parametrize("use_numpy", MODES, ids=MODE_IDS)
def test_every_prefix_of_a_label_gets_the_reference_verdict(use_numpy):
    encodings = [
        encode_label(label)
        for label in family_labels("weighted-road:5x5:4", 1.0)
    ]
    data = encodings[12]
    arena = _warm(LabelArena(use_numpy), encodings)
    reference = reference_door(use_numpy)
    for size in range(len(data) + 1):
        prefix = data[:size]
        assert verdict(arena.load, prefix) == verdict(reference, prefix), size


def test_a_key_listed_twice_keeps_its_first_position_and_last_weight():
    """Only corrupt bytes list a key twice; both doors keep dict semantics."""
    writer = BitWriter()
    for field in (0, 0, 1):  # owner, c, top_level
        writer.write_gamma_nonneg(field)
    writer.write_bits(int.from_bytes(struct.pack(">f", 1.0), "big"), 32)
    writer.write_gamma_nonneg(1)  # one level
    writer.write_gamma_nonneg(1)  # level id
    writer.write_gamma_nonneg(3)  # points 0, 1, 2 at distances 0, 1, 2
    for point in range(3):
        writer.write_gamma(1)
        writer.write_gamma(point + 1)
    # virtual edges (0, 2) w=2, (0, 1) w=5, (0, 2) w=7: out of order,
    # and (0, 2) twice
    writer.write_gamma_nonneg(3)
    for x, y, w in ((0, 2, 2), (0, 1, 5), (0, 2, 7)):
        writer.write_bits(x, 2)
        writer.write_bits(y, 2)
        writer.write_gamma(w)
    writer.write_gamma_nonneg(0)  # no graph edges
    data = writer.getvalue()
    assert decode_label(data).levels[1].edges == {(0, 2): 7, (0, 1): 5}
    for use_numpy in MODES:
        got = LabelArena(use_numpy).load(data)
        want = LabelArena(use_numpy).intern(decode_label(data))
        assert fields(got) == fields(want)
        assert [int(w) for w in got.ew] == [7, 5]


# -- the cache -------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_labels():
    scheme = ForbiddenSetLabeling(gen.grid_graph(5, 5), 1.0)
    return [scheme.label(v) for v in range(25)]


def test_a_section_sharing_only_its_points_is_parsed_afresh(grid_labels):
    """Fails against a section cache keyed on the point order alone."""
    label = grid_labels[7]
    data = encode_label(label)
    level = min(label.levels)
    bent = decode_label(data)
    edges = bent.levels[level].edges
    edge = next(iter(edges))
    edges[edge] += 1  # same points, same edge keys, another weight
    bent_data = encode_label(bent)
    for use_numpy in MODES:
        arena = LabelArena(use_numpy)
        arena.load(data)
        got = arena.load(bent_data)
        want = LabelArena(use_numpy).intern(decode_label(bent_data))
        assert fields(got) == fields(want)


def test_a_truncated_label_matching_held_sections_still_raises(
    grid_labels, monkeypatch
):
    sections = []
    real = arena_module.read_section

    def counting(text, pos, order):
        sections.append(pos)
        return real(text, pos, order)

    monkeypatch.setattr(arena_module, "read_section", counting)
    data = encode_label(grid_labels[3])
    for use_numpy in MODES:
        arena = LabelArena(use_numpy)
        arena.load(data)
        parsed = len(sections)
        with pytest.raises(DECODE_ERRORS):
            arena.load(data[:-1])
        # the truncated copy reused the held sections up to its cut
        assert len(sections) - parsed < parsed
        assert data[:-1] not in arena._by_bytes
        del sections[:]


def test_two_decoders_share_nothing(grid_labels):
    data = [encode_label(label) for label in grid_labels]
    first, second = KernelDecoder(), KernelDecoder()
    frags = [first.load(d) for d in data]
    assert all(second.load(d) is not f for d, f in zip(data, frags))
    assert first.arena._sections is not second.arena._sections
    first.arena.reset()
    assert second.load(data[0]) is second.load(data[0])
    assert second.arena.hits == 2 and second.arena.parses == len(data)
    # a handle means nothing in another decoder's arena
    with pytest.raises(QueryError, match="another decoder"):
        second.decode(second.load(data[0]), frags[24])


def test_reset_drops_the_cache(grid_labels):
    data = encode_label(grid_labels[0])
    for use_numpy in MODES:
        arena = LabelArena(use_numpy)
        frag = arena.load(data)
        arena.reset()
        assert not arena._sections and not arena._by_bytes
        again = arena.load(data)
        assert again is not frag
        assert arena.parses == 2 and arena.hits == 0


# -- answers -------------------------------------------------------------------


def _queries(n: int, seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        s, t = rng.sample(range(n), 2)
        others = [v for v in range(n) if v not in (s, t)]
        yield s, t, rng.sample(others, rng.randrange(0, 3))


@pytest.mark.parametrize("use_numpy", MODES, ids=MODE_IDS)
def test_fragments_answer_like_their_labels(grid_labels, use_numpy):
    """Loaded bytes answer as their decoded labels do, op counts included.

    The decoded labels are the reference, not the builder's: the encoder
    sorts each edge map, and the scan order follows the stored order.
    """
    data = [encode_label(label) for label in grid_labels]
    decoded = [decode_label(d) for d in data]
    by_bytes = KernelDecoder(use_numpy=use_numpy)
    by_label = KernelDecoder(use_numpy=use_numpy)
    for s, t, fault_v in _queries(len(data), 0xF5, 40):
        got_tracer, want_tracer = Tracer(), Tracer()
        got = by_bytes.decode(
            by_bytes.load(data[s]), by_bytes.load(data[t]),
            FaultSet([by_bytes.load(data[f]) for f in fault_v]),
            tracer=got_tracer,
        )
        want = by_label.decode(
            decoded[s], decoded[t],
            FaultSet([decoded[f] for f in fault_v]),
            tracer=want_tracer,
        )
        assert got == want
        assert got_tracer.to_dicts() == want_tracer.to_dicts()


@pytest.mark.parametrize("use_numpy", MODES, ids=MODE_IDS)
def test_held_fragments_survive_a_reset(grid_labels, use_numpy):
    """A reset between a query's loads and its decode changes nothing."""
    data = [encode_label(label) for label in grid_labels]
    decoded = [decode_label(d) for d in data]
    reference = KernelDecoder(use_numpy=use_numpy)
    tight = KernelDecoder(use_numpy=use_numpy, max_labels=2)
    for s, t, fault_v in _queries(len(data), 0x5E7, 30):
        frags = [tight.load(data[v]) for v in [s, t, *fault_v]]
        if s % 3 == 0:
            tight.arena.reset()
        got = tight.decode(frags[0], frags[1], FaultSet(frags[2:]))
        want = reference.decode(
            decoded[s], decoded[t], FaultSet([decoded[f] for f in fault_v])
        )
        assert got == want


@pytest.mark.parametrize("use_numpy", MODES, ids=MODE_IDS)
def test_fault_tables_follow_a_reset_that_narrows_the_id_universe(use_numpy):
    """A held fault's bitmaps, built for ids up to 20, are rebuilt for 10.

    Two 10-cycles: labels of the first reference ids below 10 only, so
    after a reset the re-admitted fragments span a narrower universe.
    """
    graph = Graph(20)
    for base in (0, 10):
        for i in range(10):
            graph.add_edge(base + i, base + (i + 1) % 10)
    scheme = ForbiddenSetLabeling(graph, 1.0)
    data = [encode_label(scheme.label(v)) for v in range(20)]
    decoded = [decode_label(d) for d in data]
    decoder = KernelDecoder(use_numpy=use_numpy)
    s, t, f = (decoder.load(data[v]) for v in (0, 5, 2))
    decoder.load(data[15])  # widens the id universe to 20
    want_tracer = Tracer()
    want = KernelDecoder(use_numpy=use_numpy).decode(
        decoded[0], decoded[5], FaultSet([decoded[2]]), tracer=want_tracer
    )
    assert decoder.decode(s, t, FaultSet([f])) == want
    decoder.arena.reset()
    got_tracer = Tracer()
    assert decoder.decode(s, t, FaultSet([f]), tracer=got_tracer) == want
    assert decoder.arena.id_bound == 10
    assert got_tracer.to_dicts() == want_tracer.to_dicts()
