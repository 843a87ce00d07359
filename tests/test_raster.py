import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MUTATION, mutate, pgm_streams
from emmatch import (GrayImage, PnmFormatError, load_pgm, raster, save_pgm, save_ppm,
                     shift_image, synth_shape)


def test_gray_image_is_not_equal_to_other_types():
    assert (GrayImage(1, 1, np.zeros((1, 1), dtype=np.uint8)) == 3) is False
    img = GrayImage(2, 1, np.zeros((1, 2), dtype=np.uint8))
    assert img != GrayImage(2, 2, np.zeros((2, 2), dtype=np.uint8))  # same width
    assert img != GrayImage(2, 1, np.array([[0, 1]], dtype=np.uint8))  # same size


def test_save_ppm_canonical_bytes():
    rgb = np.array([[[64, 64, 64]]], dtype=np.uint8)
    assert save_ppm(rgb) == b"P6\n1 1\n255\n\x40\x40\x40"


def test_save_ppm_writes_in_range_int64_as_uint8():
    rgb = np.append(np.arange(23, dtype=np.int64) * 11, 255).reshape(2, 4, 3)
    assert (rgb.min(), rgb.max()) == (0, 255)
    assert save_ppm(rgb) == save_ppm(rgb.astype(np.uint8))


INTP_MAX = int(np.iinfo(np.intp).max)

ELLIPSE_ROWS = synth_shape("ellipse", 64, 64).pixels.tolist()
ELLIPSE_SAMPLES = [b"%d" % v for v in sum(ELLIPSE_ROWS, [])]  # 0 and 255 only


def plain_ellipse(samples=ELLIPSE_SAMPLES, tail=b"\n"):
    """The 64 px ellipse as a P2 stream of the given sample tokens, 64 to a line."""
    lines = (b" ".join(samples[i:i + 64]) for i in range(0, len(samples), 64))
    return b"P2\n64 64\n255\n" + b"\n".join(lines) + tail


def with_sample(i, token):
    """The ELLIPSE_SAMPLES with the i-th replaced by token."""
    return ELLIPSE_SAMPLES[:i] + [token] + ELLIPSE_SAMPLES[i + 1:]


OVER_MAXVAL = plain_ellipse(with_sample(2080, b"256"))
TRUNCATED = plain_ellipse(ELLIPSE_SAMPLES[:-1])

# (id, stream, its pixel rows or its error, whether load_pgm reads it on the fast path):
# 64 px plain rasters, one on the fast path, and one for each way off it.
PLAIN_64 = [
    ("fast_path", plain_ellipse(), ELLIPSE_ROWS, True),
    ("comment_after_samples", plain_ellipse(tail=b"\n# end\n"), ELLIPSE_ROWS, False),
    ("four_digit_sample", plain_ellipse(with_sample(ELLIPSE_SAMPLES.index(b"255"), b"0255")),
     ELLIPSE_ROWS, False),
    ("sample_over_maxval", OVER_MAXVAL,
     ("sample 256 exceeds maxval 255", OVER_MAXVAL.index(b"256")), False),
    ("truncated", TRUNCATED,
     ("truncated raster, expected 4096 samples, got 4095", len(TRUNCATED)), False),
]

# (id, stream, its pixel rows, or the (message, offset) of its PnmFormatError); an id
# names the test the row replaces, then its case.
STREAMS = [
    # same raster, scruffier header
    ("load_resaves_to_canonical_form", b"P5 # binary\n# shape\n 3\t2 \n255\n" + bytes(6),
     [[0, 0, 0], [0, 0, 0]]),
    ("ascii_pgm_parses_with_comments", b"P2\n# a comment\n3 2\n255\n0 10 20\n30 40 255\n",
     [[0, 10, 20], [30, 40, 255]]),
    ("maxval_below_255_keeps_exact_values", b"P2\n2 1\n100\n0 100\n", [[0, 100]]),
    ("trailing_bytes_after_raster_ignored", b"P5\n2 1\n255\n\x01\x02\n", [[1, 2]]),
    ("leading_zeros_keep_their_value_at_any_length",
     b"P2\n2 1\n255\n007 " + b"0" * 5000 + b"\n", [[7, 0]]),
    ("plain_sample_may_touch_a_comment-sample", b"P2\n2 1\n255\n1#c\n2", [[1, 2]]),
    ("plain_sample_may_touch_a_comment-every-token", b"P2#c\n2#c\r1#c\n255#\n1#c\n2#c", [[1, 2]]),
    ("ascii_sample_above_maxval_rejected", b"P2\n2 1\n100\n0 101\n",
     ("sample 101 exceeds maxval 100", 13)),
    *[(f"malformed_streams_report_byte_offset-{case}", data, want) for case, data, want in (
        ("color", b"P6\n1 1\n255\n\x00\x00\x00",
         ("P6 is a color PPM, expected grayscale PGM (P5 or P2)", 0)),
        ("magic", b"P4\n1 1\n", ("not a PGM stream, magic b'P4'", 0)),
        ("maxval", b"P5\n2 2\n300\n" + bytes(4), ("maxval 300 exceeds supported maximum 255", 7)),
        ("width", b"P5\n-2 2\n255\n", ("expected unsigned integer for width, got b'-2'", 3)),
        ("header-ends", b"P5\n2\n", ("unexpected end of data in header", 5)))],
    *[(f"malformed_streams_report_message_and_offset-{case}", data, want)
      for case, data, want in (
        ("short-p5", b"P5\n2 2\n255\n\x00\x00", ("truncated raster, expected 4 bytes, got 2", 13)),
        # A plain raster that ends early says so, as a binary one does.
        ("short-p2", b"P2\n2 1\n255\n0\n", ("truncated raster, expected 2 samples, got 1", 13)),
        ("ascii-sample", b"P2\n2 1\n255\n0 x\n", ("expected ASCII sample, got b'x'", 13)),
        ("p2-over-maxval", b"P2\n2 1\n100\n101 0\n", ("sample 101 exceeds maxval 100", 11)),
        # A binary sample above maxval is rejected at its byte, as a plain one is.
        ("p5-over-maxval", b"P5\n2 1\n100\n" + bytes([200, 50]),
         ("sample 200 exceeds maxval 100", 11)),
        ("p5-later-over-maxval", b"P5\n3 1\n100\n" + bytes([0, 101, 255]),
         ("sample 101 exceeds maxval 100", 12)),
        ("maxval-whitespace", b"P5\n1 1\n255#c\n\x00",
         ("expected single whitespace byte after maxval", 10)))],
    # A number too long for int() is reported at its token like any other.
    *[(f"overlong_numbers_report_their_offset-{case}", data, want) for case, data, want in (
        ("width", b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n",
         (f"width of 5000 digits exceeds supported maximum {INTP_MAX}", 3)),
        ("sample", b"P2\n2 1\n255\n0 " + b"7" * 5000 + b"\n",
         ("sample of 5000 digits exceeds maxval 255", 13)),
        ("zero-padded-maxval", b"P2\n1 1\n" + b"0" * 5000 + b"256\n0\n",
         ("maxval 256 exceeds supported maximum 255", 7)),
        # as many digits as the largest intp has: the message still shows the value
        ("sample-of-19-digits", b"P2\n1 1\n255\n1" + b"0" * 18 + b"\n",
         ("sample 1000000000000000000 exceeds maxval 255", 11)))],
    *[(f"plain_64_px-{case}", data, want) for case, data, want, _ in PLAIN_64],
]


@pytest.mark.parametrize("data, want", [row[1:] for row in STREAMS],
                         ids=[row[0] for row in STREAMS])
def test_fixed_streams(data, want):
    if isinstance(want, list):
        img = load_pgm(data)
        assert img.pixels.tolist() == want
        assert save_pgm(img) == b"P5\n%d %d\n255\n" % (img.width, img.height) + bytes(sum(want, []))
    else:
        with pytest.raises(PnmFormatError) as caught:
            load_pgm(data)
        message, offset = want
        assert str(caught.value) == f"{message} (byte offset {offset})"
        assert caught.value.offset == offset
    assert_reads_as_reference(data)


@pytest.mark.parametrize("data, fast", [(row[1], row[3]) for row in PLAIN_64],
                         ids=[row[0] for row in PLAIN_64])
def test_plain_raster_takes_the_fast_path_only_when_it_may(data, fast):
    # The token loop reads each sample through _digits_value; the header takes three calls.
    with mock.patch.object(raster, "_digits_value", wraps=raster._digits_value) as digits:
        outcome(load_pgm, data)
    assert (digits.call_count == 3) is fast


_WS = frozenset(b" \t\n\r\x0b\x0c")


def reference_load_pgm(data):
    """The byte-at-a-time reader from before the token regex.

    It reports a plain raster that ends early as "unexpected end of data in
    header", at the offset where the regex reader reports "truncated raster".
    A number of more digits than the largest intp, leading zeros aside, is
    above every bound and shown by its length: int() refuses the longest.
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

    def number(tok):
        digits = tok.lstrip(b"0") or b"0"
        if len(digits) > len(str(INTP_MAX)):
            return INTP_MAX + 1, f"of {len(digits)} digits"
        return int(digits), digits.decode()

    def header_int(pos, what, upper=INTP_MAX):
        tok, end = next_token(pos)
        if not tok.isdigit():
            raise PnmFormatError(f"expected unsigned integer for {what}, got {tok!r}",
                                 end - len(tok))
        value, shown = number(tok)
        if value <= 0:
            raise PnmFormatError(f"{what} must be positive, got {value}", end - len(tok))
        if value > upper:
            raise PnmFormatError(f"{what} {shown} exceeds supported maximum {upper}",
                                 end - len(tok))
        return value, end

    def header_int_sample(pos, maxval):
        tok, end = next_token(pos)
        if not tok.isdigit():
            raise PnmFormatError(f"expected ASCII sample, got {tok!r}", end - len(tok))
        value, shown = number(tok)
        if value > maxval:
            raise PnmFormatError(f"sample {shown} exceeds maxval {maxval}", end - len(tok))
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


# (id, kind, (width, height), keyword arguments, foreground pixels); an id that
# starts with a folded test's name holds that test's case.
SHAPES = [
    ("square_pixel_count", "square", (32, 32), {"side": 12}, 144),
    ("rectangle_pixel_count", "rectangle", (32, 32), {"rect": (16, 8)}, 128),
    ("rectangle_pixel_count-full-width-on-the-last-row", "rectangle", (32, 32),
     {"rect": (32, 2), "center": (16.0, 31.0)}, 64),
    ("ellipse-touching-every-edge", "ellipse", (32, 32), {"semi_axes": (16.0, 16.0)}, 812),
    # the 29 pixels within 3 of (3, 3), four of them exactly on the rim
    ("circle-centres-on-the-rim-are-inside", "circle", (7, 7),
     {"radius": 3.0, "center": (3.5, 3.5)}, 29),
    ("line_kinds-horizontal", "line", (32, 32), {}, 16),  # half the image side by default
    ("line_kinds-vertical", "line", (32, 32),
     {"length": 32, "thickness": 2, "horizontal": False}, 64),
    ("line-vertical-default-length", "line", (32, 32), {"horizontal": False}, 16),
    ("line-1px-wide", "line", (1, 8), {"horizontal": False}, 4),
    ("line-1px-high", "line", (8, 1), {}, 4),
]


@pytest.mark.parametrize("kind, size, kw, count", [row[1:] for row in SHAPES],
                         ids=[row[0] for row in SHAPES])
def test_shape_pixel_count(kind, size, kw, count):
    img = synth_shape(kind, *size, **kw)
    assert (img.width, img.height) == size
    assert int(np.count_nonzero(img.pixels)) == count
    assert set(np.unique(img.pixels)) == {0, 255}


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
    assert shift_image(img, 4, 0).pixels.tolist() == [[0, 0, 0]]  # not two columns via [0:-1]


def test_shift_image_round_trip_without_clipping():
    img = synth_shape("rectangle", 32, 32)
    assert shift_image(shift_image(img, 5, -4), -5, 4) == img
