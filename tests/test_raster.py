import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MUTATION, mutate, pgm_streams
from emmatch import (GrayImage, PnmFormatError, load_pgm, save_pgm, save_ppm,
                     shift_image, synth_shape)


def test_gray_image_is_not_equal_to_other_types():
    assert (GrayImage(1, 1, np.zeros((1, 1), dtype=np.uint8)) == 3) is False
    img = GrayImage(2, 1, np.zeros((1, 2), dtype=np.uint8))
    assert img != GrayImage(2, 2, np.zeros((2, 2), dtype=np.uint8))  # same width
    assert img != GrayImage(2, 1, np.array([[0, 1]], dtype=np.uint8))  # same size


def test_save_pgm_canonical_bytes():
    img = GrayImage(1, 1, np.array([[0]], dtype=np.uint8))
    assert save_pgm(img) == b"P5\n1 1\n255\n\x00"


def test_save_ppm_canonical_bytes():
    rgb = np.array([[[64, 64, 64]]], dtype=np.uint8)
    assert save_ppm(rgb) == b"P6\n1 1\n255\n\x40\x40\x40"


def test_save_ppm_writes_in_range_int64_as_uint8():
    rgb = np.arange(24, dtype=np.int64).reshape(2, 4, 3) * 11
    assert rgb.max() == 253
    assert save_ppm(rgb) == save_ppm(rgb.astype(np.uint8))


def test_binary_round_trip():
    img = synth_shape("ellipse", 32, 32)
    assert load_pgm(save_pgm(img)) == img


def test_load_resaves_to_canonical_form():
    # same raster, scruffier header
    raw = b"P5 # binary\n# shape\n 3\t2 \n255\n" + bytes(6)
    img = load_pgm(raw)
    assert save_pgm(img) == b"P5\n3 2\n255\n" + bytes(6)
    assert load_pgm(save_pgm(img)) == img


def test_ascii_pgm_parses_with_comments():
    img = load_pgm(b"P2\n# a comment\n3 2\n255\n0 10 20\n30 40 255\n")
    assert img.pixels.tolist() == [[0, 10, 20], [30, 40, 255]]


def test_maxval_below_255_keeps_exact_values():
    img = load_pgm(b"P2\n2 1\n100\n0 100\n")
    assert img.pixels.tolist() == [[0, 100]]


def test_trailing_bytes_after_raster_ignored():
    img = load_pgm(b"P5\n2 1\n255\n\x01\x02\n")
    assert img.pixels.tolist() == [[1, 2]]


@pytest.mark.parametrize("raw, offset_at_least", [
    (b"P6\n1 1\n255\n\x00\x00\x00", 0),       # color stream
    (b"P4\n1 1\n", 0),                         # unknown magic
    (b"P5\n2 2\n255\n\x00\x00", 12),           # truncated raster
    (b"P5\n2 2\n300\n" + bytes(4), 7),         # maxval too large
    (b"P5\n-2 2\n255\n", 3),                   # negative width
    (b"P5\n2\n", 5),                           # header ends early
    (b"P2\n2 1\n255\n0\n", 13),                # too few ASCII samples
])
def test_malformed_streams_report_byte_offset(raw, offset_at_least):
    with pytest.raises(PnmFormatError) as exc:
        load_pgm(raw)
    assert exc.value.offset >= offset_at_least
    assert "byte offset" in str(exc.value)


@pytest.mark.parametrize("raw, message, offset", [
    (b"P2\n2 1\n255\n0 x\n", "expected ASCII sample, got b'x'", 13),
    (b"P2\n2 1\n100\n101 0\n", "sample 101 exceeds maxval 100", 11),
    # A binary sample above maxval is rejected at its byte, as a plain one is.
    (b"P5\n2 1\n100\n" + bytes([200, 50]), "sample 200 exceeds maxval 100", 11),
    (b"P5\n3 1\n100\n" + bytes([0, 101, 255]), "sample 101 exceeds maxval 100", 12),
    (b"P5\n1 1\n255#c\n\x00", "expected single whitespace byte after maxval", 10),
    (b"P5\n2 2\n255\n\x00\x00", "truncated raster, expected 4 bytes, got 2", 13),
    # A plain raster that ends early says so, as a binary one does.
    (b"P2\n2 1\n255\n0\n", "truncated raster, expected 2 samples, got 1", 13),
])
def test_malformed_streams_report_message_and_offset(raw, message, offset):
    with pytest.raises(PnmFormatError) as exc:
        load_pgm(raw)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


@pytest.mark.parametrize("raw, message, offset", [
    # A number too long for int() is reported at its token like any other.
    (b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n",
     f"width of 5000 digits exceeds supported maximum {np.iinfo(np.intp).max}", 3),
    (b"P2\n2 1\n255\n0 " + b"7" * 5000 + b"\n", "sample of 5000 digits exceeds maxval 255", 13),
    (b"P2\n1 1\n" + b"0" * 5000 + b"256\n0\n", "maxval 256 exceeds supported maximum 255", 7),
], ids=["width", "sample", "zero-padded maxval"])
def test_overlong_numbers_report_their_offset(raw, message, offset):
    with pytest.raises(PnmFormatError) as exc:
        load_pgm(raw)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


def test_leading_zeros_keep_their_value_at_any_length():
    assert load_pgm(b"P2\n2 1\n255\n007 " + b"0" * 5000 + b"\n").pixels.tolist() == [[7, 0]]


def test_plain_sample_may_touch_a_comment():
    assert load_pgm(b"P2\n2 1\n255\n1#c\n2").pixels.tolist() == [[1, 2]]
    assert load_pgm(b"P2#c\n2#c\r1#c\n255#\n1#c\n2#c").pixels.tolist() == [[1, 2]]


_WS = frozenset(b" \t\n\r\x0b\x0c")


def reference_load_pgm(data):
    """The byte-at-a-time reader from before the token regex.

    It reports a plain raster that ends early as "unexpected end of data in
    header", at the offset where the regex reader reports "truncated raster".
    """
    def next_token(pos):
        n = len(data)
        while pos < n:
            c = data[pos]
            if c == 0x23:  # '#'
                while pos < n and data[pos] not in (0x0A, 0x0D):
                    pos += 1
            elif c in _WS:
                pos += 1
            else:
                break
        if pos >= n:
            raise PnmFormatError("unexpected end of data in header", pos)
        start = pos
        while pos < n and data[pos] not in _WS and data[pos] != 0x23:
            pos += 1
        return data[start:pos], pos

    def header_int(pos, what, upper=None):
        tok, end = next_token(pos)
        if not tok.isdigit():
            raise PnmFormatError(f"expected unsigned integer for {what}, got {tok!r}",
                                 end - len(tok))
        value = int(tok)
        if value <= 0:
            raise PnmFormatError(f"{what} must be positive, got {value}", end - len(tok))
        if upper is not None and value > upper:
            raise PnmFormatError(f"{what} {value} exceeds supported maximum {upper}",
                                 end - len(tok))
        return value, end

    def header_int_sample(pos, maxval):
        tok, end = next_token(pos)
        if not tok.isdigit():
            raise PnmFormatError(f"expected ASCII sample, got {tok!r}", end - len(tok))
        value = int(tok)
        if value > maxval:
            raise PnmFormatError(f"sample {value} exceeds maxval {maxval}", end - len(tok))
        return value, end

    data = bytes(data)
    magic, pos = next_token(0)
    if magic == b"P6":
        raise PnmFormatError("P6 is a color PPM, expected grayscale PGM (P5 or P2)", 0)
    if magic not in (b"P5", b"P2"):
        raise PnmFormatError(f"not a PGM stream, magic {magic!r}", 0)
    width, pos = header_int(pos, "width")
    height, pos = header_int(pos, "height")
    maxval, pos = header_int(pos, "maxval", upper=255)

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS:
            raise PnmFormatError("expected single whitespace byte after maxval", pos)
        pos += 1
        need = width * height
        payload = data[pos:pos + need]
        if len(payload) < need:
            raise PnmFormatError(f"truncated raster, expected {need} bytes, got {len(payload)}",
                                 len(data))
        px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
        return GrayImage(width, height, px)

    values = np.empty(width * height, dtype=np.uint8)
    for i in range(width * height):
        value, pos = header_int_sample(pos, maxval)
        values[i] = value
    return GrayImage(width, height, values.reshape(height, width))


def outcome(load, data):
    """The image a reader returns for data, or its error's offset and message."""
    try:
        return load(data)
    except PnmFormatError as e:
        return e.offset, str(e)


def assert_reads_as_reference(data):
    got, want = outcome(load_pgm, data), outcome(reference_load_pgm, data)
    failed = isinstance(got, tuple)
    over = failed and re.match(r"sample (\d+) exceeds maxval (\d+) ", got[1])
    if failed and re.match(r"truncated raster, expected \d+ samples", got[1]):
        assert want == (got[0], f"unexpected end of data in header (byte offset {got[0]})")
    elif over and isinstance(want, GrayImage):
        # The reference accepts a binary sample above maxval; the reader rejects
        # the first one, at its byte in the raster the reference read.
        sample, maxval = int(over[1]), int(over[2])
        flat = want.pixels.ravel()
        first = int(np.argmax(flat > maxval))
        assert flat[first] == sample > maxval
        start = got[0] - first
        assert data[start:start + flat.size] == flat.tobytes()
    else:
        assert got == want


@given(pgm_streams())
@settings(max_examples=100, deadline=None)
def test_reader_reads_valid_streams_as_reference(stream):
    data, img = stream
    assert load_pgm(data) == img
    assert reference_load_pgm(data) == img


@given(pgm_streams(), st.lists(MUTATION, min_size=1, max_size=3))
@settings(max_examples=250, deadline=None)
def test_reader_matches_reference_on_mutated_streams(stream, mutations):
    assert_reads_as_reference(mutate(stream[0], mutations))


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_round_trip_random_images(w, h, seed):
    rng = np.random.default_rng(seed)
    img = GrayImage(w, h, rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    again = load_pgm(save_pgm(img))
    assert again == img
    assert save_pgm(again) == save_pgm(img)


def test_square_pixel_count():
    img = synth_shape("square", 32, 32, side=12)
    assert int(np.count_nonzero(img.pixels)) == 144
    assert set(np.unique(img.pixels)) == {0, 255}


def test_rectangle_pixel_count():
    img = synth_shape("rectangle", 32, 32, rect=(16, 8))
    assert int(np.count_nonzero(img.pixels)) == 128
    low = synth_shape("rectangle", 8, 8, rect=(4, 2), center=(4.0, 7.0))  # ends on the last row
    assert low.pixels[6:, 2:6].all() and np.count_nonzero(low.pixels) == 8


def test_rectangle_defaults_match_explicit():
    assert synth_shape("rectangle", 32, 32) == synth_shape("rectangle", 32, 32, rect=(16, 8))


def test_ellipse_matches_brute_force_rasterization():
    img = synth_shape("ellipse", 32, 32, semi_axes=(10.0, 6.0))
    # independent per-pixel-center check of the inclusion inequality
    expect = np.zeros((32, 32), dtype=np.uint8)
    for y in range(32):
        for x in range(32):
            dx = (x + 0.5 - 16.0) / 10.0
            dy = (y + 0.5 - 16.0) / 6.0
            if dx * dx + dy * dy <= 1.0:
                expect[y, x] = 255
    assert np.array_equal(img.pixels, expect)
    assert int(np.count_nonzero(expect)) == 192


def test_circle_is_round_ellipse():
    assert synth_shape("circle", 32, 32, radius=7.0) == synth_shape(
        "ellipse", 32, 32, semi_axes=(7.0, 7.0))


@pytest.mark.parametrize("kind, kw", [("circle", {"radius": 1e-200}),
                                      ("ellipse", {"semi_axes": (1e-300, 1e-300)}),
                                      ("circle", {"radius": 5e-324})])
def test_tiny_ellipse_is_blank_without_a_warning(kind, kw):
    # Pixel distances over such semi-axes square to infinity: outside, and
    # no overflow warning (the suite turns RuntimeWarning into an error).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = synth_shape(kind, 32, 32, **kw)
    assert (img.width, img.height) == (32, 32)
    assert not img.pixels.any()


def test_line_kinds():
    h = synth_shape("line", 32, 32, length=16)
    assert int(np.count_nonzero(h.pixels)) == 16
    v = synth_shape("line", 32, 32, length=10, thickness=2, horizontal=False)
    assert int(np.count_nonzero(v.pixels)) == 20


@pytest.mark.parametrize("kind", ["square", "rectangle", "ellipse", "circle"])
def test_centered_shapes_are_mirror_symmetric(kind):
    p = synth_shape(kind, 32, 32).pixels
    assert np.array_equal(p, p[:, ::-1])
    assert np.array_equal(p, p[::-1, :])


def test_shift_image_moves_content():
    img = synth_shape("square", 16, 16, side=4)
    moved = shift_image(img, 3, -2)
    ys, xs = np.nonzero(img.pixels)
    mys, mxs = np.nonzero(moved.pixels)
    assert np.array_equal(np.sort(mxs), np.sort(xs + 3))
    assert np.array_equal(np.sort(mys), np.sort(ys - 2))


def test_shift_image_clips_and_fills_zero():
    img = GrayImage(3, 1, np.array([[10, 20, 30]], dtype=np.uint8))
    assert shift_image(img, 2, 0).pixels.tolist() == [[0, 0, 10]]
    assert shift_image(img, -1, 0).pixels.tolist() == [[20, 30, 0]]
    assert shift_image(img, 0, 5).pixels.tolist() == [[0, 0, 0]]


def test_shift_image_round_trip_without_clipping():
    img = synth_shape("rectangle", 32, 32)
    assert shift_image(shift_image(img, 5, -4), -5, 4) == img
