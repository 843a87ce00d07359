import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emmatch import (GrayImage, PnmFormatError, load_pgm, save_pgm, save_ppm,
                     shift_image, synth_shape)


def test_gray_image_validates_shape():
    with pytest.raises(ValueError):
        GrayImage(3, 2, np.zeros((3, 3), dtype=np.uint8))


def test_gray_image_rejects_out_of_range():
    with pytest.raises(ValueError):
        GrayImage(2, 1, np.array([[0, 300]]))


def test_gray_image_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        GrayImage(0, 4, np.zeros((4, 0), dtype=np.uint8))


def test_gray_image_pixels_frozen():
    img = GrayImage(2, 2, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


def test_save_pgm_canonical_bytes():
    img = GrayImage(1, 1, np.array([[0]], dtype=np.uint8))
    assert save_pgm(img) == b"P5\n1 1\n255\n\x00"


def test_save_ppm_canonical_bytes():
    rgb = np.array([[[64, 64, 64]]], dtype=np.uint8)
    assert save_ppm(rgb) == b"P6\n1 1\n255\n\x40\x40\x40"


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


def test_ascii_sample_above_maxval_rejected():
    with pytest.raises(PnmFormatError):
        load_pgm(b"P2\n2 1\n100\n0 101\n")


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


def test_shape_exceeding_bounds_rejected():
    with pytest.raises(ValueError):
        synth_shape("square", 16, 16, side=20)
    with pytest.raises(ValueError):
        synth_shape("ellipse", 16, 16, semi_axes=(10.0, 3.0))
    with pytest.raises(ValueError):
        synth_shape("square", 32, 32, side=8, center=(30.0, 16.0))
    # NaN fails every bounds comparison; it must not draw an empty image.
    nan, inf = float("nan"), float("inf")
    for kind, kw in [("circle", {"radius": nan}), ("circle", {"radius": inf}),
                     ("circle", {"center": (nan, nan)}), ("square", {"center": (inf, 16.0)}),
                     ("ellipse", {"semi_axes": (nan, 3.0)})]:
        with pytest.raises(ValueError, match="must be finite"):
            synth_shape(kind, 32, 32, **kw)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        synth_shape("blob", 32, 32)


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
