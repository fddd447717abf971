"""Bit-level writer/reader used to serialize labels.

The paper's headline result is a bound on label length *in bits*, so the
library measures real encoded sizes rather than Python object sizes.  The
codes implemented here are classic self-delimiting integer codes:

* **unary** — ``n`` zeros followed by a one;
* **Elias gamma** — unary length prefix plus binary payload, for positive
  integers of unknown magnitude;
* **fixed-width** — plain ``k``-bit big-endian integers.

The label codec (:mod:`repro.labeling.encoding`) composes them: gamma
codes for counts, gap-coded point ids, distances and weights, and
fixed-width indices for edge endpoints.

Both classes operate most-significant-bit first so encoded labels are
byte-order independent.  They hold the stream as ``'0'``/``'1'`` text and
move a whole field per C-level string operation — ``format``/``int`` in
base 2 and ``str.find`` — instead of one bit per Python step.  Base-2
conversions are exempt from CPython's int/str digit limit, so a label of
any size converts in one call.
"""

from __future__ import annotations

from repro.exceptions import EncodingError

#: the message of every read that runs off the end of the stream
PAST_END = "read past end of bit stream"

#: ``str.translate`` table that deletes ``'0'`` and ``'1'``: bit text
#: translates to ``""``
_DROP_BITS = str.maketrans("", "", "01")


def gamma_bits(value: int) -> str:
    """The Elias gamma code of ``value >= 1`` as ``'0'``/``'1'`` text.

    ``k - 1`` zeros for ``k = value.bit_length()``, then ``value`` in
    binary (whose leading one ends the unary prefix).

    >>> gamma_bits(1), gamma_bits(9)
    ('1', '0001001')
    """
    if value < 1:
        raise EncodingError(f"gamma code requires value >= 1, got {value}")
    return "0" * (value.bit_length() - 1) + bin(value)[2:]


class BitWriter:
    """Accumulates bits MSB-first and renders them to :class:`bytes`.

    Example
    -------
    >>> w = BitWriter()
    >>> w.write_bits(0b101, 3)
    >>> w.write_gamma(9)
    >>> data = w.getvalue()
    >>> r = BitReader(data)
    >>> r.read_bits(3), r.read_gamma()
    (5, 9)
    """

    def __init__(self) -> None:
        self._parts: list[str] = []  # '0'/'1' text, one entry per field
        self._length = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._length

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (same as ``len``)."""
        return self._length

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._parts.append("1" if bit else "0")
        self._length += 1

    def write_bits(self, value: int, width: int) -> None:
        """Append ``value`` as a big-endian ``width``-bit integer."""
        if value < 0:
            raise EncodingError(f"cannot write negative value {value}")
        if width < 0:
            raise EncodingError(f"negative width {width}")
        if value >> width:
            raise EncodingError(f"value {value} does not fit in {width} bits")
        if width:
            self._parts.append(format(value, f"0{width}b"))
            self._length += width

    def write_unary(self, value: int) -> None:
        """Append ``value`` zeros followed by a terminating one."""
        if value < 0:
            raise EncodingError(f"cannot unary-encode negative value {value}")
        self._parts.append("0" * value + "1")
        self._length += value + 1

    def write_gamma(self, value: int) -> None:
        """Append a positive integer using the Elias gamma code."""
        bits = gamma_bits(value)
        self._parts.append(bits)
        self._length += len(bits)

    def write_gamma_nonneg(self, value: int) -> None:
        """Gamma-encode a non-negative integer (shifted by one)."""
        self.write_gamma(value + 1)

    def write_text(self, bits: str) -> None:
        """Append pre-rendered ``'0'``/``'1'`` text in one call.

        The label codec renders a whole level this way (fields from
        :func:`gamma_bits` and ``format(index, "0{w}b")``); any other
        character is an :class:`EncodingError`.  The check is one
        ``str.translate`` that deletes every ``'0'`` and ``'1'``.
        """
        if bits.translate(_DROP_BITS):
            raise EncodingError("bit text may hold only '0' and '1'")
        self._parts.append(bits)
        self._length += len(bits)

    def getvalue(self) -> bytes:
        """Render the written bits as bytes, zero-padded to a byte boundary."""
        if not self._length:
            return b""
        size = (self._length + 7) // 8
        text = "".join(self._parts) + "0" * (8 * size - self._length)
        return int(text, 2).to_bytes(size, "big")


class BitReader:
    """Reads bits MSB-first from a :class:`bytes` buffer."""

    def __init__(self, data: bytes) -> None:
        self._limit = len(data) * 8
        self._text = (
            format(int.from_bytes(data, "big"), f"0{self._limit}b")
            if data else ""
        )
        self._pos = 0

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits (including any trailing padding)."""
        return self._limit - self._pos

    def read_bit(self) -> int:
        """Read a single bit."""
        pos = self._pos
        if pos >= self._limit:
            raise EncodingError(PAST_END)
        self._pos = pos + 1
        return 1 if self._text[pos] == "1" else 0

    def read_bits(self, width: int) -> int:
        """Read a big-endian ``width``-bit integer."""
        if width <= 0:
            return 0
        start = self._pos
        end = start + width
        if end > self._limit:
            raise EncodingError(PAST_END)
        self._pos = end
        return int(self._text[start:end], 2)

    def read_unary(self) -> int:
        """Read a unary code; returns the number of leading zeros."""
        start = self._pos
        one = self._text.find("1", start)
        if one < 0:
            raise EncodingError(PAST_END)
        self._pos = one + 1
        return one - start

    def read_gamma(self) -> int:
        """Read an Elias-gamma-coded positive integer."""
        start = self._pos
        one = self._text.find("1", start)
        end = 2 * one - start + 1  # the payload is as wide as the prefix
        if one < 0 or end > self._limit:
            raise EncodingError(PAST_END)
        self._pos = end
        return int(self._text[one:end], 2)

    def read_gamma_nonneg(self) -> int:
        """Read a gamma-coded non-negative integer (shifted by one)."""
        return self.read_gamma() - 1

    def cursor(self) -> tuple[str, int]:
        """The whole stream as ``'0'``/``'1'`` text and the read position.

        A parser that walks many fields (the label codec's level reader)
        takes both, reads ``text`` directly — checking every field's end
        against ``len(text)`` itself — and hands back its final position
        with :meth:`seek`.
        """
        return self._text, self._pos

    def seek(self, position: int) -> None:
        """Move the read position to ``position`` (at most the stream end)."""
        if not 0 <= position <= self._limit:
            raise EncodingError(PAST_END)
        self._pos = position
