"""Reference codec: the bit-at-a-time label codec production must match.

This is the original statement of the label format: a bit writer that
keeps one list entry per bit, a bit reader that extracts one bit per
Python step, and the label codec built on them with three method calls
per record.  Production reads and writes the same bytes a field at a
time (:mod:`repro.util.bitio`, :mod:`repro.labeling.encoding`); this
module exists only so ``tests/test_codec_differential.py`` can check it
against an independent, readable implementation:

* :class:`BitWriter` / :class:`BitReader` — the per-bit I/O;
* :func:`encode_label`, :func:`encoded_bit_length`, :func:`decode_label`
  — the label codec, with its level writer and reader
  (:func:`_write_level`, :func:`_read_level`).

The connectivity codec and the routing header call only the public bit
I/O methods; the differential test runs them over these classes to get
their reference output.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct

from repro.exceptions import EncodingError
from repro.labeling.label import LevelLabel, VertexLabel


class BitWriter:
    """Accumulates bits MSB-first and renders them to :class:`bytes`."""

    def __init__(self) -> None:
        self._chunks: list[int] = []  # individual bits (0/1)

    def __len__(self) -> int:
        """Number of bits written so far."""
        return len(self._chunks)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (same as ``len``)."""
        return len(self._chunks)

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._chunks.append(1 if bit else 0)

    def write_bits(self, value: int, width: int) -> None:
        """Append ``value`` as a big-endian ``width``-bit integer."""
        if value < 0:
            raise EncodingError(f"cannot write negative value {value}")
        if width < 0:
            raise EncodingError(f"negative width {width}")
        if value >> width:
            raise EncodingError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self._chunks.append((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        """Append ``value`` zeros followed by a terminating one."""
        if value < 0:
            raise EncodingError(f"cannot unary-encode negative value {value}")
        self._chunks.extend([0] * value)
        self._chunks.append(1)

    def write_gamma(self, value: int) -> None:
        """Append a positive integer using the Elias gamma code."""
        if value < 1:
            raise EncodingError(f"gamma code requires value >= 1, got {value}")
        width = value.bit_length()
        self.write_unary(width - 1)
        self.write_bits(value - (1 << (width - 1)), width - 1)

    def write_gamma_nonneg(self, value: int) -> None:
        """Gamma-encode a non-negative integer (shifted by one)."""
        self.write_gamma(value + 1)

    def getvalue(self) -> bytes:
        """Render the written bits as bytes, zero-padded to a byte boundary."""
        out = bytearray((len(self._chunks) + 7) // 8)
        for index, bit in enumerate(self._chunks):
            if bit:
                out[index >> 3] |= 0x80 >> (index & 7)
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a :class:`bytes` buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._limit = len(data) * 8

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits (including any trailing padding)."""
        return self._limit - self._pos

    def read_bit(self) -> int:
        """Read a single bit."""
        if self._pos >= self._limit:
            raise EncodingError("read past end of bit stream")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read a big-endian ``width``-bit integer."""
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        """Read a unary code; returns the number of leading zeros."""
        count = 0
        while self.read_bit() == 0:
            count += 1
        return count

    def read_gamma(self) -> int:
        """Read an Elias-gamma-coded positive integer."""
        width = self.read_unary()
        return (1 << width) | self.read_bits(width)

    def read_gamma_nonneg(self) -> int:
        """Read a gamma-coded non-negative integer (shifted by one)."""
        return self.read_gamma() - 1


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
    points = sorted(level_label.points)
    writer.write_gamma_nonneg(len(points))
    previous = -1
    for point in points:
        writer.write_gamma(point - previous)  # gap >= 1
        writer.write_gamma_nonneg(level_label.points[point])
        previous = point
    index_of = {point: idx for idx, point in enumerate(points)}
    index_width = max(1, (len(points) - 1).bit_length()) if points else 1
    for edge_map in (level_label.edges, level_label.graph_edges):
        edges = sorted(edge_map.items())
        writer.write_gamma_nonneg(len(edges))
        for (x, y), weight in edges:
            if x not in index_of or y not in index_of:
                raise EncodingError(
                    f"edge ({x}, {y}) endpoint missing from level point set"
                )
            writer.write_bits(index_of[x], index_width)
            writer.write_bits(index_of[y], index_width)
            writer.write_gamma(weight)


def _read_level(reader: BitReader, level: int) -> LevelLabel:
    num_points = reader.read_gamma_nonneg()
    points: dict[int, int] = {}
    order: list[int] = []
    previous = -1
    for _ in range(num_points):
        point = previous + reader.read_gamma()
        points[point] = reader.read_gamma_nonneg()
        order.append(point)
        previous = point
    index_width = max(1, (num_points - 1).bit_length()) if num_points else 1
    edge_maps: list[dict[tuple[int, int], int]] = []
    for _ in range(2):
        num_edges = reader.read_gamma_nonneg()
        edge_map: dict[tuple[int, int], int] = {}
        for _ in range(num_edges):
            x = order[reader.read_bits(index_width)]
            y = order[reader.read_bits(index_width)]
            edge_map[(x, y)] = reader.read_gamma()
        edge_maps.append(edge_map)
    return LevelLabel(
        level=level, points=points, edges=edge_maps[0], graph_edges=edge_maps[1]
    )
