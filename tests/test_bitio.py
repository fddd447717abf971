"""Unit tests for the bit-level I/O used by label encoding."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import EncodingError
from repro.util.bitio import BitReader, BitWriter, gamma_bits


class TestBitWriter:
    def test_empty_writer_produces_no_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_bit_padding(self):
        w = BitWriter()
        w.write_bit(1)
        assert w.getvalue() == b"\x80"
        assert w.bit_length == 1

    def test_write_bits_msb_first(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        assert w.getvalue() == b"\xb0"

    def test_write_bits_rejects_overflow(self):
        w = BitWriter()
        with pytest.raises(EncodingError):
            w.write_bits(16, 4)

    def test_write_bits_rejects_negative(self):
        w = BitWriter()
        with pytest.raises(EncodingError):
            w.write_bits(-1, 4)

    def test_zero_width_zero_value_ok(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert w.bit_length == 0

    def test_gamma_rejects_nonpositive(self):
        w = BitWriter()
        with pytest.raises(EncodingError):
            w.write_gamma(0)

    def test_unary_roundtrip(self):
        w = BitWriter()
        for value in (0, 1, 5, 13):
            w.write_unary(value)
        r = BitReader(w.getvalue())
        assert [r.read_unary() for _ in range(4)] == [0, 1, 5, 13]


class TestBitReader:
    def test_read_past_end_raises(self):
        r = BitReader(b"")
        with pytest.raises(EncodingError):
            r.read_bit()
        # an all-zero tail holds no unary terminator
        r = BitReader(b"\x80\x00")
        assert r.read_bit() == 1
        with pytest.raises(EncodingError):
            r.read_unary()
        with pytest.raises(EncodingError):
            r.read_gamma()
        # the prefix "0...01" fits, its equally wide payload does not
        with pytest.raises(EncodingError):
            BitReader(b"\x00\x00\x00\x01").read_gamma()
        with pytest.raises(EncodingError):
            BitReader(b"\xff").read_bits(9)

    def test_fixed_width_roundtrip(self):
        w = BitWriter()
        w.write_bits(12345, 20)
        w.write_bits(7, 3)
        r = BitReader(w.getvalue())
        assert r.read_bits(20) == 12345
        assert r.read_bits(3) == 7

    def test_gamma_small_values(self):
        w = BitWriter()
        for value in range(1, 50):
            w.write_gamma(value)
        r = BitReader(w.getvalue())
        assert [r.read_gamma() for _ in range(49)] == list(range(1, 50))


@given(st.lists(st.integers(min_value=1, max_value=10**9), max_size=200))
def test_gamma_roundtrip_property(values):
    w = BitWriter()
    for value in values:
        w.write_gamma(value)
    r = BitReader(w.getvalue())
    assert [r.read_gamma() for _ in values] == values


@given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=200))
def test_gamma_nonneg_roundtrip_property(values):
    w = BitWriter()
    for value in values:
        w.write_gamma_nonneg(value)
    r = BitReader(w.getvalue())
    assert [r.read_gamma_nonneg() for _ in values] == values


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.integers(6, 12)),
        max_size=100,
    )
)
def test_mixed_fixed_width_roundtrip_property(pairs):
    w = BitWriter()
    for value, width in pairs:
        w.write_bits(value, width)
    r = BitReader(w.getvalue())
    assert [r.read_bits(width) for _, width in pairs] == [v for v, _ in pairs]


def test_gamma_code_length_is_logarithmic():
    # gamma(v) takes 2*floor(log2 v) + 1 bits
    for value in (1, 2, 3, 7, 8, 1023, 1024):
        w = BitWriter()
        w.write_gamma(value)
        assert w.bit_length == 2 * (value.bit_length() - 1) + 1


class TestFieldText:
    """The text-level helpers the label codec writes and parses with."""

    def test_gamma_bits_is_the_written_gamma_code(self):
        for value in (1, 2, 3, 9, 1023, 1 << 70):
            w = BitWriter()
            w.write_gamma(value)
            text = gamma_bits(value)
            assert len(text) == w.bit_length
            assert int(text, 2) == value
            assert BitReader(w.getvalue()).read_gamma() == value

    def test_gamma_bits_rejects_nonpositive(self):
        with pytest.raises(EncodingError):
            gamma_bits(0)

    def test_write_text_appends_bits(self):
        w = BitWriter()
        w.write_bit(1)
        w.write_text("0001001")
        w.write_text("")
        assert w.bit_length == 8
        assert w.getvalue() == bytes([0b10001001])

    @pytest.mark.parametrize("text", ["012", "1 0", " 1", "1_0", "0b1"])
    def test_write_text_rejects_other_characters(self, text):
        w = BitWriter()
        with pytest.raises(EncodingError):
            w.write_text(text)
        assert w.bit_length == 0

    def test_cursor_and_seek(self):
        w = BitWriter()
        w.write_bits(0b101, 3)
        w.write_gamma(9)
        r = BitReader(w.getvalue())
        assert r.read_bits(3) == 5
        text, pos = r.cursor()
        assert text == "1010001001000000" and pos == 3
        r.seek(10)
        assert r.bits_remaining == 6
        r.seek(16)
        assert r.bits_remaining == 0
        with pytest.raises(EncodingError):
            r.seek(17)
        with pytest.raises(EncodingError):
            r.seek(-1)

    def test_long_fields_ignore_the_int_str_digit_limit(self):
        """Base-2 conversions are exempt from CPython's 4300-digit limit."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int/str digit limit before CPython 3.11")
        value = (1 << 100_000) - 12345
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit allowed
        try:
            w = BitWriter()
            w.write_gamma(value)
            w.write_bits(value, 100_001)
            r = BitReader(w.getvalue())
            assert r.read_gamma() == value
            assert r.read_bits(100_001) == value
        finally:
            sys.set_int_max_str_digits(previous)
