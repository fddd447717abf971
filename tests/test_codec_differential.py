"""The label codec against its reference and against a pinned format golden.

Production reads and writes labels a field at a time over ``'0'``/``'1'``
text (:mod:`repro.util.bitio`, :mod:`repro.labeling.encoding`).  The
bit-at-a-time codec it replaced lives on in ``tests/reference_codec.py``.
This module checks four things against that reference:

* bit I/O — hypothesis-generated sequences of every ``write_*`` call give
  the same bytes and bit counts, and read back to the same values and
  ``bits_remaining``;
* real labels — every label of six graph families at three ε encodes to
  the same bytes and bit length, through both label codecs, and decodes
  to an equal label; routing headers encode and decode the same;
* the section memo — a repeated edge section is rendered once, and a
  label whose edges changed in place, or that shares only its points
  with an earlier one, still gets the reference's bytes;
* corrupt input — seeded bit flips, truncations and appended or
  overwritten bytes make the production decoder raise (within
  ``DECODE_ERRORS``) exactly when the reference raises, and otherwise
  return an equal label.

The reference can drift together with the code, so the bytes are also
pinned by sha256 in ``tests/golden/label_codec.json``: the concatenated
encodings of every family at every ε, the connectivity codec on
``grid:6x6`` and the ``.fsdl`` that ``repro build`` writes for
``grid:6x6`` and ``path:96`` (past ``r_{c+1}``).
Regenerate that file only for an intentional format change::

    PYTHONPATH=src python -m tests.test_codec_differential \\
        > tests/golden/label_codec.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import struct
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.labeling.encoding as encoding
import repro.routing.header as header_codec
import tests.reference_codec as reference
from repro.exceptions import EncodingError
from repro.graphs import generators as gen
from repro.labeling import ForbiddenSetLabeling
from repro.labeling.encoding import (
    DECODE_ERRORS,
    decode_connectivity_label,
    decode_label,
    encode_connectivity_label,
    encode_label,
    encoded_bit_length,
)
from repro.labeling.weighted import WeightedForbiddenSetLabeling
from repro.routing.header import PacketHeader, decode_header, encode_header
from repro.util.bitio import BitReader, BitWriter
from tests.test_routing_differential import weighted_road

GOLDEN = Path(__file__).resolve().parent / "golden" / "label_codec.json"

#: ``(id, labeling scheme, graph builder)`` of every family the codec is
#: checked on
FAMILIES = [
    ("grid:6x6", ForbiddenSetLabeling, lambda: gen.grid_graph(6, 6)),
    ("grid:8x8", ForbiddenSetLabeling, lambda: gen.grid_graph(8, 8)),
    (
        "road:9x9:1",
        ForbiddenSetLabeling,
        lambda: gen.road_like_graph(9, 9, seed=1),
    ),
    ("tree:40:3", ForbiddenSetLabeling, lambda: gen.random_tree(40, seed=3)),
    # diameter 95 > r_{c+1} = 88 at ε = 1: the only family whose labels
    # do not all cover the whole graph (labels 7-88 do at level c+1, the
    # end labels do not); at ε = 0.5 and 0.1 it is whole-graph again
    ("path:96", ForbiddenSetLabeling, lambda: gen.path_graph(96)),
    (
        "weighted-road:5x5:4",
        WeightedForbiddenSetLabeling,
        lambda: weighted_road(5, 5, seed=4),
    ),
]

EPSILONS = (1.0, 0.5, 0.1)

CASES = [(name, epsilon) for name, _, _ in FAMILIES for epsilon in EPSILONS]

#: the family and ε the connectivity codec and ``repro build`` are pinned at
BUILD_SPEC = "grid:6x6"
BUILD_EPSILON = 1.0

#: every ``(spec, ε)`` whose ``repro build`` output is pinned: the grid in
#: the whole-graph regime and the path past r_{c+1}
BUILDS = [(BUILD_SPEC, BUILD_EPSILON), ("path:96", 1.0)]


def family_labels(name: str, epsilon: float) -> list:
    """Every label of family ``name`` at ``epsilon``, in vertex order."""
    for family, scheme_cls, build in FAMILIES:
        if family == name:
            graph = build()
            scheme = scheme_cls(graph, epsilon=epsilon)
            return [scheme.label(v) for v in range(graph.num_vertices)]
    raise KeyError(name)


@contextlib.contextmanager
def reference_bitio():
    """Run the connectivity and header codecs over the reference bit I/O.

    Both call only the public ``BitWriter``/``BitReader`` methods, so the
    same code over the bit-at-a-time classes is their reference.
    """
    with pytest.MonkeyPatch.context() as patch:
        for module in (encoding, header_codec):
            patch.setattr(module, "BitWriter", reference.BitWriter)
            patch.setattr(module, "BitReader", reference.BitReader)
        yield


def _outcome(call, *args):
    """``("ok", result)``, or ``("error", type)`` for an ``EncodingError``."""
    try:
        return ("ok", call(*args))
    except EncodingError:
        return ("error", EncodingError)


def _label_key(label):
    """A label's fields, with ε by bit pattern so a decoded NaN matches."""
    return (
        label.vertex, label.c, label.top_level,
        struct.pack(">d", label.epsilon), label.levels,
    )


def _verdict(decode, data):
    """What a decoder makes of ``data``: the label's fields, or "raises"."""
    try:
        return _label_key(decode(data))
    except DECODE_ERRORS:
        return "raises"


# -- bit I/O -------------------------------------------------------------------

#: ``(write method, *args)``; ``write_bits`` covers width 0 and values
#: wider than 64 bits
WRITE_OPS = st.one_of(
    st.tuples(st.just("write_bit"), st.integers(0, 1)),
    st.integers(0, 80).flatmap(
        lambda width: st.tuples(
            st.just("write_bits"),
            st.integers(0, (1 << width) - 1),
            st.just(width),
        )
    ),
    st.tuples(st.just("write_unary"), st.integers(0, 70)),
    st.tuples(st.just("write_gamma"), st.integers(1, 1 << 90)),
    st.tuples(st.just("write_gamma_nonneg"), st.integers(0, 1 << 90)),
)

#: the read call that returns each write call's field
READ_FOR = {
    "write_bit": lambda reader, bit: reader.read_bit(),
    "write_bits": lambda reader, value, width: reader.read_bits(width),
    "write_unary": lambda reader, value: reader.read_unary(),
    "write_gamma": lambda reader, value: reader.read_gamma(),
    "write_gamma_nonneg": lambda reader, value: reader.read_gamma_nonneg(),
}


@given(st.lists(WRITE_OPS, max_size=60))
def test_write_sequences_match_the_reference(ops):
    new, ref = BitWriter(), reference.BitWriter()
    for name, *args in ops:
        getattr(new, name)(*args)
        getattr(ref, name)(*args)
        assert new.bit_length == len(new) == ref.bit_length
    data = new.getvalue()
    assert data == ref.getvalue()
    new_reader, ref_reader = BitReader(data), reference.BitReader(data)
    for name, *args in ops:
        value = READ_FOR[name](new_reader, *args)
        assert value == READ_FOR[name](ref_reader, *args)
        assert value == args[0]
        assert new_reader.bits_remaining == ref_reader.bits_remaining


@given(
    st.sampled_from(
        ["write_bits", "write_unary", "write_gamma", "write_gamma_nonneg"]
    ),
    st.integers(-3, 70),
    st.integers(-3, 70),
)
def test_writers_reject_the_same_fields(name, value, width):
    args = (value, width) if name == "write_bits" else (value,)
    new, ref = BitWriter(), reference.BitWriter()
    got = _outcome(getattr(new, name), *args)
    assert got == _outcome(getattr(ref, name), *args)
    assert (new.getvalue(), new.bit_length) == (ref.getvalue(), ref.bit_length)


#: ``(read method, *args)``; negative and zero widths read nothing
READ_OPS = st.one_of(
    st.tuples(st.just("read_bit")),
    st.tuples(st.just("read_bits"), st.integers(-2, 70)),
    st.tuples(st.just("read_unary")),
    st.tuples(st.just("read_gamma")),
    st.tuples(st.just("read_gamma_nonneg")),
)


@given(st.binary(max_size=24), st.lists(READ_OPS, max_size=40))
def test_reads_of_arbitrary_bytes_match_the_reference(data, ops):
    """Same values, same ``bits_remaining``, same first read past the end."""
    new, ref = BitReader(data), reference.BitReader(data)
    for name, *args in ops:
        got = _outcome(getattr(new, name), *args)
        assert got == _outcome(getattr(ref, name), *args)
        if got[0] == "error":
            break
        assert new.bits_remaining == ref.bits_remaining


# -- real labels ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name,epsilon", CASES, ids=[f"{n}@{e}" for n, e in CASES]
)
def test_label_codec_matches_the_reference(name, epsilon):
    for label in family_labels(name, epsilon):
        writer = reference.BitWriter()
        reference._write_label(writer, label)
        data = writer.getvalue()
        assert encode_label(label) == data, label.vertex
        assert encoded_bit_length(label) == writer.bit_length, label.vertex
        decoded = decode_label(data)
        assert decoded == reference.decode_label(data), label.vertex
        assert decoded.levels == label.levels


@pytest.mark.parametrize(
    "name,epsilon", CASES, ids=[f"{n}@{e}" for n, e in CASES]
)
def test_connectivity_codec_matches_the_reference(name, epsilon):
    labels = family_labels(name, epsilon)
    with reference_bitio():
        expected = [encode_connectivity_label(label) for label in labels]
        restored = [decode_connectivity_label(data) for data in expected]
    for label, data, want in zip(labels, expected, restored):
        assert encode_connectivity_label(label) == data, label.vertex
        assert decode_connectivity_label(data) == want, label.vertex


def _random_header(rng: random.Random) -> PacketHeader:
    def vertex() -> int:
        return rng.choice([rng.randrange(64), rng.randrange(1 << 40)])

    return PacketHeader(
        source=vertex(),
        target=vertex(),
        waypoints=tuple(vertex() for _ in range(rng.randrange(12))),
        forbidden_vertices=tuple(vertex() for _ in range(rng.randrange(6))),
        forbidden_edges=tuple(
            (vertex(), vertex()) for _ in range(rng.randrange(6))
        ),
    )


def test_routing_headers_match_the_reference():
    rng = random.Random(7)
    for _ in range(200):
        header = _random_header(rng)
        with reference_bitio():
            data = encode_header(header)
            bits = header.bit_length()
            assert decode_header(data) == header
        assert encode_header(header) == data
        assert header.bit_length() == bits
        assert decode_header(data) == header


# -- corrupt input -------------------------------------------------------------


def _mutate(data: bytes, kind: str, rng: random.Random) -> bytes:
    """One seeded corruption of ``data``."""
    buf = bytearray(data)
    if kind == "flip":
        bit = rng.randrange(8 * len(buf))
        buf[bit >> 3] ^= 0x80 >> (bit & 7)
    elif kind == "truncate":
        # half the cuts land in the last bytes, where a field that runs
        # past the end is the last one read
        cut = rng.randint(1, 3) if rng.random() < 0.5 else rng.randrange(
            1, len(buf) + 1
        )
        del buf[len(buf) - cut:]
    elif kind == "append":
        buf += bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    else:
        buf[rng.randrange(len(buf))] = rng.randrange(256)
    return bytes(buf)


MUTATION_CASES = [
    ("grid:6x6", 1.0),
    ("tree:40:3", 0.5),
    ("weighted-road:5x5:4", 0.1),
]


@pytest.mark.parametrize(
    "name,epsilon",
    MUTATION_CASES,
    ids=[f"{n}@{e}" for n, e in MUTATION_CASES],
)
def test_corrupt_encodings_get_the_reference_verdict(name, epsilon):
    encodings = [encode_label(label) for label in family_labels(name, epsilon)]
    rng = random.Random(f"{name}@{epsilon}")
    verdicts = {"raises": 0, "decodes": 0}
    for trial in range(400):
        kind = ("flip", "truncate", "append", "overwrite")[trial % 4]
        data = _mutate(rng.choice(encodings), kind, rng)
        want = _verdict(reference.decode_label, data)
        assert _verdict(decode_label, data) == want, (kind, data.hex())
        verdicts["raises" if want == "raises" else "decodes"] += 1
    # the seeds reach both outcomes, so both are compared
    assert min(verdicts.values()) > 50, verdicts


def test_every_prefix_of_a_label_gets_the_reference_verdict():
    """A field cut anywhere by a short stream raises, never reads short."""
    label = family_labels("weighted-road:5x5:4", 1.0)[12]
    data = encode_label(label)
    for size in range(len(data) + 1):
        prefix = data[:size]
        assert _verdict(decode_label, prefix) == _verdict(
            reference.decode_label, prefix
        ), size


# -- the section memo -----------------------------------------------------------
#
# The encoder renders a level's edge section once and splices the text into
# every label that repeats it.  Each test below fails against a memo keyed
# on the point tuple alone; the first and third also fail against one that
# holds the labels' own dicts instead of snapshots.


def _reference_bytes(label) -> bytes:
    writer = reference.BitWriter()
    reference._write_label(writer, label)
    return writer.getvalue()


def test_reencoding_after_an_in_place_weight_change_matches_the_reference():
    label = family_labels("grid:6x6", 1.0)[14]
    before = encode_label(label)
    level = min(label.levels)
    edge = next(iter(label.levels[level].edges))
    label.levels[level].edges[edge] += 1  # as tests/test_verification.py does
    after = encode_label(label)
    assert after == _reference_bytes(label)
    assert after != before


def test_labels_with_the_same_points_and_other_weights_match_the_reference():
    """G and G minus one edge: same level-(c+1) points, different weights."""
    graph = gen.grid_graph(6, 6)
    smaller = graph.subgraph_without(removed_edges=[(14, 15)])
    full = ForbiddenSetLabeling(graph, epsilon=1.0).label(0)
    cut = ForbiddenSetLabeling(smaller, epsilon=1.0).label(0)
    low = min(full.levels)
    assert sorted(full.levels[low].points) == sorted(cut.levels[low].points)
    assert full.levels[low].edges.keys() == cut.levels[low].edges.keys()
    assert full.levels[low].edges != cut.levels[low].edges
    for label in (full, cut, full, cut):
        assert encode_label(label) == _reference_bytes(label)


def test_a_level_that_raised_raises_again():
    label = family_labels("grid:6x6", 1.0)[3]
    encode_label(label)  # its sections are held now
    level = label.levels[min(label.levels)]
    level.edges[(0, 10**6)] = 1  # an endpoint missing from the points
    with pytest.raises(EncodingError):
        _reference_bytes(label)
    for _ in range(2):
        with pytest.raises(EncodingError):
            encode_label(label)


def test_section_memo_evicts_the_least_recent_within_its_record_bound():
    memo = encoding._SectionMemo(capacity=7)
    edge_maps = {
        key: ({(key, key + 1): 1, (key, key + 2): 2}, {(key, key + 1): 1})
        for key in range(3)
    }
    for key in (0, 1):
        memo.put((key,), *edge_maps[key], f"{key}")
    assert memo.get((0,), *edge_maps[0]) == "0"  # 1 is now the oldest
    memo.put((2,), *edge_maps[2], "2")  # three records each: 1 goes
    assert [memo.get((key,), *edge_maps[key]) for key in range(3)] == [
        "0", None, "2",
    ]
    edges, graph_edges = edge_maps[2]
    edges[(2, 9)] = 3  # the held copy is a snapshot
    assert memo.get((2,), edges, graph_edges) is None
    memo.put((2,), edges, graph_edges, "bigger")  # 4 records, replaces "2"
    assert memo.get((2,), edges, graph_edges) == "bigger"
    assert memo.get((0,), *edge_maps[0]) == "0"  # 3 + 4 records fit
    wide = {(9, 10 + k): 1 for k in range(8)}
    memo.put((9,), wide, {}, "too wide")  # 8 records > capacity: not held
    assert memo.get((9,), wide, {}) is None
    assert memo.get((2,), edges, graph_edges) == "bigger"


def test_threads_sharing_the_memo_get_the_reference_bytes(monkeypatch):
    """Threads that fight over the same point tuples keep the memo whole."""
    graph = gen.grid_graph(5, 5)
    smaller = graph.subgraph_without(removed_edges=[(6, 7)])
    labels = [
        ForbiddenSetLabeling(g, epsilon=1.0).label(v)
        for g in (graph, smaller)
        for v in (0, 12)
    ]
    expected = [_reference_bytes(label) for label in labels]
    # room for about one label's sections, so puts evict all the time
    memo = encoding._SectionMemo(capacity=500)
    monkeypatch.setattr(encoding, "_SECTIONS", memo)
    problems: list = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(60):
                k = rng.randrange(len(labels))
                if encode_label(labels[k]) != expected[k]:
                    problems.append(k)
        # what unguarded bookkeeping raises when threads interleave
        except (EncodingError, KeyError, RuntimeError, StopIteration) as exc:
            problems.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not problems
    held = sum(len(entry[0]) + len(entry[1]) for entry in memo._entries.values())
    assert memo._records == held <= 500


# -- the format golden ---------------------------------------------------------


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def cli_build_digest(directory: Path, spec: str, epsilon: float) -> str:
    """sha256 of the ``.fsdl`` that ``repro build spec -e epsilon`` writes."""
    from repro.cli import main

    path = directory / "golden.fsdl"
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(["build", spec, "-e", str(epsilon), "-o", str(path)])
    assert status == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compute_golden(directory: Path) -> dict:
    """Every digest ``tests/golden/label_codec.json`` pins."""
    labels = {
        f"{name}@{epsilon}": _sha256(
            encode_label(label) for label in family_labels(name, epsilon)
        )
        for name, epsilon in CASES
    }
    connectivity = {
        f"{BUILD_SPEC}@{BUILD_EPSILON}": _sha256(
            encode_connectivity_label(label)
            for label in family_labels(BUILD_SPEC, BUILD_EPSILON)
        )
    }
    return {
        "encode_label": labels,
        "encode_connectivity_label": connectivity,
        "repro build": {
            f"{spec} -e {epsilon}": cli_build_digest(directory, spec, epsilon)
            for spec, epsilon in BUILDS
        },
    }


def test_encodings_match_the_format_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert compute_golden(tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        golden = compute_golden(Path(scratch))
    sys.stdout.write(json.dumps(golden, indent=2, sort_keys=True) + "\n")
