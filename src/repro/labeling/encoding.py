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
level in one call, and :func:`_read_level` parses each record from the
reader's text in one bounds-checked step (see :mod:`repro.util.bitio`).
"""

from __future__ import annotations

import math
import struct

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
    """Restore a label serialized by :func:`encode_label`."""
    reader = BitReader(data)
    vertex = reader.read_gamma_nonneg()
    c = reader.read_gamma_nonneg()
    top_level = reader.read_gamma_nonneg()
    (epsilon,) = struct.unpack(">f", reader.read_bits(32).to_bytes(4, "big"))
    num_levels = reader.read_gamma_nonneg()
    label = VertexLabel(vertex=vertex, epsilon=epsilon, c=c, top_level=top_level)
    for _ in range(num_levels):
        level = reader.read_gamma_nonneg()
        label.levels[level] = _read_level(reader, level)
    return label


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
    points = sorted(distances)
    index_width = max(1, (len(points) - 1).bit_length()) if points else 1
    index_spec = f"0{index_width}b"
    parts = [gamma_bits(len(points) + 1)]
    index_bits: dict[int, str] = {}
    previous = -1
    for index, point in enumerate(points):
        gap = gamma_bits(point - previous)  # >= 1
        parts.append(gap + gamma_bits(distances[point] + 1))
        index_bits[point] = format(index, index_spec)
        previous = point
    weight_bits: dict[int, str] = {}
    for edge_map in (level_label.edges, level_label.graph_edges):
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
    writer.write_text("".join(parts))


def _read_level(reader: BitReader, level: int) -> LevelLabel:
    # Each record is parsed straight off the reader's text: a gamma code
    # is the run of zeros up to the next "1" (found by str.find) and a
    # payload as wide as that run, so every field ends at a computed
    # offset that is checked against the stream end before it is read.
    num_points = reader.read_gamma_nonneg()
    text, pos = reader.cursor()
    limit = len(text)
    find = text.find
    points: dict[int, int] = {}
    order: list[int] = []
    point = -1
    for _ in range(num_points):
        one = find("1", pos)
        end = 2 * one - pos + 1
        if one < 0 or end > limit:
            raise EncodingError(PAST_END)
        point += int(text[one:end], 2)  # gap >= 1
        one = find("1", end)
        pos = 2 * one - end + 1
        if one < 0 or pos > limit:
            raise EncodingError(PAST_END)
        points[point] = int(text[one:pos], 2) - 1
        order.append(point)
    reader.seek(pos)
    index_width = max(1, (num_points - 1).bit_length()) if num_points else 1
    edge_maps: list[dict[tuple[int, int], int]] = []
    for _ in range(2):
        num_edges = reader.read_gamma_nonneg()
        pos = reader.cursor()[1]
        edge_map: dict[tuple[int, int], int] = {}
        for _ in range(num_edges):
            mid = pos + index_width
            stop = mid + index_width
            one = find("1", stop)  # -1 as well when stop is past the end
            end = 2 * one - stop + 1
            if one < 0 or end > limit:
                raise EncodingError(PAST_END)
            x = order[int(text[pos:mid], 2)]
            y = order[int(text[mid:stop], 2)]
            edge_map[(x, y)] = int(text[one:end], 2)
            pos = end
        reader.seek(pos)
        edge_maps.append(edge_map)
    return LevelLabel(
        level=level, points=points, edges=edge_maps[0], graph_edges=edge_maps[1]
    )
