"""Bit-exact label serialization.

The paper's headline bound is on label length **in bits**
(``O(1+ε^{-1})^{2α} log² n``), so experiments must measure real encoded
sizes.  The format is a compact, self-delimiting bit stream:

* header — owner vertex, ``c``, ``top_level`` (Elias gamma), ε (32-bit
  IEEE 754);
* per level — the sorted point ids as gamma-coded gaps with gamma-coded
  distances, then the edges as (point-index, point-index, weight) triples
  using fixed-width indices into the point list and gamma-coded weights.

``decode_label`` restores every field exactly except ε, which comes back
rounded to float32: the decoded label compares equal to the original
whenever ε is a float32 value (1.0, 0.5, 0.25, ...), while ε = 0.1
returns as 0.10000000149011612 with every level equal.  The decoder never
reads ε, so it can run entirely from transmitted bytes, matching the
distributed model.

The codec works a field at a time: :func:`_write_level` renders each
point and edge record of a level as ``'0'``/``'1'`` text and appends the
level in one call, and :func:`read_label` parses each record from the
reader's text in one bounds-checked step (see :mod:`repro.util.bitio`).
:func:`read_label` is the one parser of the format: :func:`decode_label`
builds its dicts from its columns, and the decode kernel's loader
(:meth:`repro.labeling.kernel.arena.LabelArena.load`) builds flat edge
columns from them without a label object.

A level's edge section — both edge maps as index/index/γ(weight)
records — depends only on the sorted point ids and the edges, and in the
whole-graph regime every label of a graph repeats it.  The writer renders
each distinct section once and splices the text into every label that
repeats it (:class:`_SectionMemo`, bounded by
:data:`SECTION_MEMO_RECORDS`); a hit must equal a snapshot of what was
rendered, so the bytes are exactly those of rendering every section.
"""

from __future__ import annotations

import math
import struct
import threading

from repro.exceptions import EncodingError
from repro.labeling.label import LevelLabel, VertexLabel
from repro.labeling.params import lam_for_level
from repro.util.bitio import PAST_END, BitReader, BitWriter, gamma_bits

#: everything a corrupt-but-CRC-valid bitstream can raise out of
#: :func:`decode_label`: framing errors (``EncodingError``), bad index
#: arithmetic (``IndexError``/``KeyError``/``ValueError``), and
#: pathological gamma widths (``OverflowError``/``MemoryError``).
#: Callers that must translate decode failures into
#: :class:`~repro.exceptions.LabelCorruptionError` (or quarantine them)
#: catch exactly this tuple — never a broad ``except Exception``, which
#: lint rule RPL003 forbids.
DECODE_ERRORS: tuple[type[Exception], ...] = (
    EncodingError,
    ValueError,
    IndexError,
    KeyError,
    OverflowError,
    MemoryError,
    struct.error,
)


def encode_label(label: VertexLabel) -> bytes:
    """Serialize a label to bytes."""
    writer = BitWriter()
    _write_label(writer, label)
    return writer.getvalue()


def encoded_bit_length(label: VertexLabel) -> int:
    """Exact bit length of the serialized label (without byte padding)."""
    writer = BitWriter()
    _write_label(writer, label)
    return writer.bit_length


def encode_connectivity_label(label: VertexLabel) -> bytes:
    """Serialize a label for *connectivity-only* use.

    Connectivity queries never read distances or weights — the decoder
    only needs which points exist, which pairs are joined, and the
    protected-ball membership, i.e. for each point whether it lies within
    ``λ_i`` of the owner.  This codec therefore stores one *bit* per
    point (inside/outside ``PB_i(owner)``) instead of a gamma-coded
    distance, and drops edge weights entirely — a large constant-factor
    saving measured by experiment E9.

    Decode with :func:`decode_connectivity_label`; the reconstructed
    label answers ``decode_distance``-based *connectivity* exactly like
    the original (distances are replaced by coarse stand-ins).
    """
    writer = BitWriter()
    writer.write_gamma_nonneg(label.vertex)
    writer.write_gamma_nonneg(label.c)
    writer.write_gamma_nonneg(label.top_level)
    writer.write_gamma_nonneg(len(label.levels))
    for level in sorted(label.levels):
        level_label = label.levels[level]
        lam = lam_for_level(level)
        points = sorted(level_label.points)
        writer.write_gamma_nonneg(level)
        writer.write_gamma_nonneg(len(points))
        previous = -1
        for point in points:
            writer.write_gamma(point - previous)
            writer.write_bit(1 if level_label.points[point] <= lam else 0)
            previous = point
        index_of = {point: idx for idx, point in enumerate(points)}
        index_width = max(1, (len(points) - 1).bit_length()) if points else 1
        for edge_map in (level_label.edges, level_label.graph_edges):
            edges = sorted(edge_map)
            writer.write_gamma_nonneg(len(edges))
            for x, y in edges:
                if x not in index_of or y not in index_of:
                    raise EncodingError(
                        f"edge ({x}, {y}) endpoint missing from level point set"
                    )
                writer.write_bits(index_of[x], index_width)
                writer.write_bits(index_of[y], index_width)
    return writer.getvalue()


def decode_connectivity_label(data: bytes) -> VertexLabel:
    """Restore a connectivity-only label from :func:`encode_connectivity_label`.

    Distances are reconstructed as coarse stand-ins that preserve the
    decoder's *connectivity* behavior: in-ball points get distance
    ``λ_i`` (so protected-ball tests fire exactly as before), out-of-ball
    points ``λ_i + 1``; all edge weights become 1.  The resulting labels
    must only be used for connectivity queries.
    """
    reader = BitReader(data)
    vertex = reader.read_gamma_nonneg()
    c = reader.read_gamma_nonneg()
    top_level = reader.read_gamma_nonneg()
    label = VertexLabel(vertex=vertex, epsilon=math.inf, c=c, top_level=top_level)
    num_levels = reader.read_gamma_nonneg()
    for _ in range(num_levels):
        level = reader.read_gamma_nonneg()
        lam = lam_for_level(level)
        num_points = reader.read_gamma_nonneg()
        points: dict[int, int] = {}
        order: list[int] = []
        previous = -1
        for _ in range(num_points):
            point = previous + reader.read_gamma()
            in_ball = reader.read_bit()
            points[point] = lam if in_ball else lam + 1
            order.append(point)
            previous = point
        points[vertex] = 0
        index_width = max(1, (num_points - 1).bit_length()) if num_points else 1
        edge_maps: list[dict[tuple[int, int], int]] = []
        for _ in range(2):
            count = reader.read_gamma_nonneg()
            edge_map: dict[tuple[int, int], int] = {}
            for _ in range(count):
                x = order[reader.read_bits(index_width)]
                y = order[reader.read_bits(index_width)]
                edge_map[(x, y)] = 1
            edge_maps.append(edge_map)
        label.levels[level] = LevelLabel(
            level=level,
            points=points,
            edges=edge_maps[0],
            graph_edges=edge_maps[1],
        )
    return label


def decode_label(data: bytes) -> VertexLabel:
    """Restore a label serialized by :func:`encode_label`.

    Built from the columns of :func:`read_label`, the parser the decode
    kernel's loader shares: each edge map is ``dict(zip(keys, weights))``,
    so a key listed twice (only corrupt bytes do that) keeps its first
    position and takes its last weight.
    """
    (vertex, c, top_level, epsilon), levels = read_label(data)
    label = VertexLabel(vertex=vertex, epsilon=epsilon, c=c, top_level=top_level)
    for level, order, dists, ((vx, vy, vw, _), (gx, gy, gw, _)) in levels:
        label.levels[level] = LevelLabel(
            level=level,
            points=dict(zip(order, dists)),
            edges=dict(zip(zip(vx, vy), vw)),
            graph_edges=dict(zip(zip(gx, gy), gw)),
        )
    return label


def read_label(data: bytes, read_edges=None) -> tuple[tuple, list]:
    """Parse stored label bytes into columns: the one parser of the format.

    Returns ``((vertex, c, top_level, epsilon), levels)`` with one
    ``(level, order, dists, edges)`` entry per stored level, in stream
    order: ``order`` lists the level's point ids ascending and ``dists``
    their distances from the owner.  ``edges`` is what
    ``read_edges(text, pos, order)`` returns next to the position after
    the level's edge section — :func:`read_section` itself by default,
    so ``edges`` holds the virtual then the graph edge map as
    :func:`read_section` describes.  The decode kernel's loader passes a
    reader that reuses sections it has parsed before.  Raises only
    :data:`DECODE_ERRORS`.
    """
    reader = BitReader(data)
    vertex = reader.read_gamma_nonneg()
    c = reader.read_gamma_nonneg()
    top_level = reader.read_gamma_nonneg()
    (epsilon,) = struct.unpack(">f", reader.read_bits(32).to_bytes(4, "big"))
    num_levels = reader.read_gamma_nonneg()
    text, pos = reader.cursor()
    limit = len(text)
    if read_edges is None:
        read_edges = read_section
    levels = []
    for _ in range(num_levels):
        level, pos = _read_gamma(text, pos, limit)
        num_points, pos = _read_gamma(text, pos, limit)
        order, dists, pos = _read_points(text, pos, limit, num_points - 1)
        edges, pos = read_edges(text, pos, order)
        levels.append((level - 1, order, dists, edges))
    return (vertex, c, top_level, epsilon), levels


def _write_label(writer: BitWriter, label: VertexLabel) -> None:
    writer.write_gamma_nonneg(label.vertex)
    writer.write_gamma_nonneg(label.c)
    writer.write_gamma_nonneg(label.top_level)
    writer.write_bits(
        int.from_bytes(struct.pack(">f", label.epsilon), "big"), 32
    )
    writer.write_gamma_nonneg(len(label.levels))
    for level in sorted(label.levels):
        writer.write_gamma_nonneg(level)
        _write_level(writer, label.levels[level])


def _write_level(writer: BitWriter, level_label: LevelLabel) -> None:
    distances = level_label.points
    points = tuple(sorted(distances))
    parts = [gamma_bits(len(points) + 1)]
    previous = -1
    for point in points:
        gap = gamma_bits(point - previous)  # >= 1
        parts.append(gap + gamma_bits(distances[point] + 1))
        previous = point
    edges, graph_edges = level_label.edges, level_label.graph_edges
    section = _SECTIONS.get(points, edges, graph_edges)
    if section is None:
        section = _render_section(points, edges, graph_edges)
        _SECTIONS.put(points, edges, graph_edges, section)
    parts.append(section)
    writer.write_text("".join(parts))


def _render_section(
    points: tuple[int, ...],
    edges: dict[tuple[int, int], int],
    graph_edges: dict[tuple[int, int], int],
) -> str:
    """Both edge maps of a level as count-prefixed index/index/γ records."""
    index_width = max(1, (len(points) - 1).bit_length()) if points else 1
    index_spec = f"0{index_width}b"
    index_bits = {
        point: format(index, index_spec) for index, point in enumerate(points)
    }
    parts: list[str] = []
    weight_bits: dict[int, str] = {}
    for edge_map in (edges, graph_edges):
        parts.append(gamma_bits(len(edge_map) + 1))
        for edge in sorted(edge_map):
            x, y = edge
            x_bits = index_bits.get(x)
            y_bits = index_bits.get(y)
            if x_bits is None or y_bits is None:
                raise EncodingError(
                    f"edge ({x}, {y}) endpoint missing from level point set"
                )
            weight = edge_map[edge]
            w_bits = weight_bits.get(weight)
            if w_bits is None:
                w_bits = weight_bits[weight] = gamma_bits(weight)
            parts.append(x_bits + y_bits + w_bits)
    return "".join(parts)


#: the most edge records the section memo holds at once: room for the
#: sections that every label of a whole-graph table repeats (one per
#: level; 3,376 records at level c+1 on road:9x9:1) next to the
#: per-owner sections passing through.  A held record costs one slot of
#: a snapshot dict (40-46 bytes on CPython 3.11; the key tuples are the
#: labels' own) plus its text, ``2⌈log₂ |points|⌉ + 2⌊log₂ w⌋ + 1``
#: characters: at most about 1.8 MB in all for levels of fewer than 2^16
#: points and weights below 2^16.  A larger section is rendered and not
#: held.
SECTION_MEMO_RECORDS = 1 << 14


class _SectionMemo:
    """Rendered edge sections by sorted point tuple, least recently used out.

    In the whole-graph regime every label of a graph repeats each level's
    edge section (same points, same edges), so it is rendered once and
    its text spliced into every label after.  An entry keeps a snapshot
    of the content it rendered, and a hit must equal it: a different or
    since-mutated edge map misses and is rendered afresh.  A section that
    raises while rendering is never stored.  The memo is bounded by the
    records it holds, and a table scan larger than that bound evicts its
    one-off sections before a later scan reaches them, so a second build
    of such a table starts as cold as the first.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._records = 0
        self._entries: dict[tuple[int, ...], tuple[dict, dict, str]] = {}
        # encode_label may run on several threads; the LRU move and the
        # record count are read-modify-write steps
        self._lock = threading.Lock()

    def get(
        self,
        points: tuple[int, ...],
        edges: dict[tuple[int, int], int],
        graph_edges: dict[tuple[int, int], int],
    ) -> str | None:
        """The held text of this exact section, or ``None``."""
        entries = self._entries
        with self._lock:
            entry = entries.get(points)
            if entry is None or entry[0] != edges or entry[1] != graph_edges:
                return None
            entries[points] = entries.pop(points)  # now the most recent
        return entry[2]

    def put(
        self,
        points: tuple[int, ...],
        edges: dict[tuple[int, int], int],
        graph_edges: dict[tuple[int, int], int],
        text: str,
    ) -> None:
        """Hold ``text`` with snapshots of the maps it was rendered from."""
        size = len(edges) + len(graph_edges)
        if size > self._capacity:
            return
        entry = (dict(edges), dict(graph_edges), text)
        size = len(entry[0]) + len(entry[1])
        entries = self._entries
        with self._lock:
            old = entries.pop(points, None)
            if old is not None:
                self._records -= len(old[0]) + len(old[1])
            while self._records + size > self._capacity:
                evicted = entries.pop(next(iter(entries)))
                self._records -= len(evicted[0]) + len(evicted[1])
            entries[points] = entry
            self._records += size


_SECTIONS = _SectionMemo(SECTION_MEMO_RECORDS)


# Each record is parsed straight off the bit text: a gamma code is the run
# of zeros up to the next "1" (found by str.find) and a payload as wide as
# that run, so every field ends at a computed offset that is checked
# against the stream end before it is read.


def _read_gamma(text: str, pos: int, limit: int) -> tuple[int, int]:
    """The gamma-coded value at ``pos`` and the position after it."""
    one = text.find("1", pos)
    end = 2 * one - pos + 1
    if one < 0 or end > limit:
        raise EncodingError(PAST_END)
    return int(text[one:end], 2), end


def _read_points(
    text: str, pos: int, limit: int, count: int
) -> tuple[list[int], list[int], int]:
    """``count`` gap/distance point records: ids ascending, distances."""
    find = text.find
    order: list[int] = []
    dists: list[int] = []
    point = -1
    for _ in range(count):
        one = find("1", pos)
        end = 2 * one - pos + 1
        if one < 0 or end > limit:
            raise EncodingError(PAST_END)
        point += int(text[one:end], 2)  # gap >= 1
        one = find("1", end)
        pos = 2 * one - end + 1
        if one < 0 or pos > limit:
            raise EncodingError(PAST_END)
        order.append(point)
        dists.append(int(text[one:pos], 2) - 1)
    return order, dists, pos


def read_section(text: str, pos: int, order: list[int]) -> tuple[tuple, int]:
    """A level's edge section at ``pos``, and the position after it.

    The section is both edge maps, virtual then graph, each a count and
    index/index/γ(weight) records with indices into ``order``.  Each map
    comes back as ``(xs, ys, ws, ordered)``: endpoint ids and weights in
    stream order, and whether the index pairs strictly ascend, as every
    valid encoding lists them — so ``ordered`` means no key repeats.
    What it reads depends only on ``order`` and the bits it consumes.
    """
    limit = len(text)
    find = text.find
    width = max(1, (len(order) - 1).bit_length()) if order else 1
    span = 2 * width
    mask = (1 << width) - 1
    maps = []
    for _ in range(2):
        count, pos = _read_gamma(text, pos, limit)
        xs: list[int] = []
        ys: list[int] = []
        ws: list[int] = []
        ordered = True
        last = -1
        for _ in range(count - 1):
            stop = pos + span
            one = find("1", stop)  # -1 as well when stop is past the end
            end = 2 * one - stop + 1
            if one < 0 or end > limit:
                raise EncodingError(PAST_END)
            pair = int(text[pos:stop], 2)
            if pair <= last:
                ordered = False
            last = pair
            xs.append(order[pair >> width])
            ys.append(order[pair & mask])
            ws.append(int(text[one:end], 2))
            pos = end
        maps.append((xs, ys, ws, ordered))
    return tuple(maps), pos
