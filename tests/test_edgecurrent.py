import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emmatch import (SOBEL_X, SOBEL_Y, EdgeCurrent, EdgeMask, EdgeParams, GrayImage, VectorField,
                     build_current, current_tsv, extract_current, mask_image, nms_mask,
                     sobel_field, synth_shape, threshold_mask)
from emmatch import raster
from emmatch.edgecurrent import _least_above


BINOMIAL = np.array([[1, 2, 1],
                     [2, 4, 2],
                     [1, 2, 1]], dtype=np.float64) / 16.0


def correlate_2d(f, kernel):
    """3x3 correlation over f's edge-replicated border, all nine taps at once."""
    p = np.pad(f, 1, mode="edge")
    h, w = f.shape
    return np.sum([kernel[i, j] * p[i:i + h, j:j + w] for i in range(3) for j in range(3)],
                  axis=0)


def reference_sobel(pixels, smooth=False):
    f = pixels.astype(np.float64)
    if smooth:
        f = correlate_2d(f, BINOMIAL)
    return correlate_2d(f, SOBEL_X), correlate_2d(f, SOBEL_Y)


def test_kernels_are_transposes():
    assert np.array_equal(SOBEL_Y, SOBEL_X.T)
    assert SOBEL_X[1, 2] == 2.0 and SOBEL_X[1, 0] == -2.0
    for kernel in (SOBEL_X, SOBEL_Y):
        # an outer product of its 3-tap factors, so the passes can be separable
        assert np.linalg.matrix_rank(kernel) == 1
        with pytest.raises(ValueError, match="read-only"):
            kernel[0, 0] = 5.0


# (id, value, smooth) of a flat 8x5 image; an id after a folded test names it.
FLAT = [
    ("extract_blank_image_yields_empty_current", 0, False), ("0-smooth", 0, True),
    ("all_zero_field_gives_empty_mask", 9, False), ("9-smooth", 9, True),
    ("constant_image_has_zero_gradient", 77, False), ("77-smooth", 77, True),
    ("200-plain", 200, False), ("smoothing_preserves_constant_regions", 200, True),
]


@pytest.mark.parametrize("value, smooth", [row[1:] for row in FLAT], ids=[row[0] for row in FLAT])
def test_flat_image_has_no_edge(value, smooth):
    img = GrayImage(8, 5, np.full((5, 8), value, dtype=np.uint8))
    field = sobel_field(img, smooth)
    assert not field.gx.any() and not field.gy.any() and not field.magnitude.any()
    assert threshold_mask(field).count == 0
    assert len(extract_current(img, smooth=smooth)) == 0


def test_vertical_step_gradient():
    px = np.zeros((6, 8), dtype=np.uint8)
    px[:, 4:] = 255
    field = sobel_field(GrayImage(8, 6, px))
    # both columns touching the step see the full kernel response
    assert np.all(field.gx[:, 3] == 1020.0)
    assert np.all(field.gx[:, 4] == 1020.0)
    assert not field.gx[:, :3].any() and not field.gx[:, 5:].any()
    assert not field.gy.any()


def random_pixels(w, h, seed):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    px[rng.random((h, w)) < 0.3] = 0  # zero regions, where a -0.0 could appear
    return px


def assert_matches_reference(px, smooth):
    # Every term is a multiple of 1/16, so both sums are exact: the bytes,
    # sign of zero included, must agree, with smoothing or without.
    field = sobel_field(GrayImage(px.shape[1], px.shape[0], px), smooth=smooth)
    gx, gy = reference_sobel(px, smooth)
    assert field.gx.tobytes() == gx.tobytes()
    assert field.gy.tobytes() == gy.tobytes()
    # Sixteenths of magnitude at most 1020, so 256 |g|^2 is an integer, summed
    # exactly here; the length is its correctly rounded root, so equal squared
    # lengths give equal lengths, and only a zero vector has length zero.
    ix, iy = (np.asarray(16 * g, dtype=np.int64) for g in (gx, gy))
    assert np.array_equal(ix, 16 * gx) and np.array_equal(iy, 16 * gy)
    want = np.sqrt((ix * ix + iy * iy).astype(np.float64) / 256.0)
    assert field.magnitude.tobytes() == want.tobytes()


@given(st.builds(random_pixels, st.integers(3, 9), st.integers(3, 9),
                 st.integers(0, 2 ** 32 - 1)), st.booleans())
@settings(max_examples=80, deadline=None)
def test_matches_brute_force_on_random_images(px, smooth):
    assert_matches_reference(px, smooth)


# (id, pixels): one bright pixel, the test shapes at 32 and 64 px, and random images
# of 3 to 64 px a side.
IMAGES = [("bright-pixel", np.pad(np.array([[200]], dtype=np.uint8), 2))]
IMAGES += [(f"{kind}-{n}", synth_shape(kind, n, n).pixels)
           for kind in ("square", "rectangle", "ellipse", "circle", "line") for n in (32, 64)]
IMAGES += [(f"random-{i}", random_pixels(w, h, i))
           for i, (w, h) in enumerate(np.random.default_rng(5).integers(3, 65, size=(20, 2)))]


@pytest.mark.parametrize("smooth", [False, True], ids=["plain", "smooth"])
@pytest.mark.parametrize("px", [row[1] for row in IMAGES], ids=[row[0] for row in IMAGES])
def test_separable_passes_equal_the_2d_correlation(px, smooth):
    assert_matches_reference(px, smooth)


@given(st.integers(3, 9), st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_transpose_swaps_components(w, h, seed):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    a = sobel_field(GrayImage(w, h, px))
    b = sobel_field(GrayImage(h, w, px.T.copy()))
    assert np.array_equal(a.gx, b.gy.T)
    assert np.array_equal(a.gy, b.gx.T)


def test_length_just_below_the_root_of_float_max_is_finite():
    assert np.isfinite(VectorField(2, 1, [[1.0, 1.3e154]], [[0.0, 0.0]]).magnitude).all()


def test_smoothing_lowers_peak_response():
    img = synth_shape("square", 32, 32)
    raw = sobel_field(img)
    soft = sobel_field(img, smooth=True)
    assert float(soft.magnitude.max()) < float(raw.magnitude.max())
    # default stays unsmoothed
    assert np.array_equal(sobel_field(img).gx, raw.gx)


def tied_image() -> GrayImage:
    """Full-height steps 0 -> 255 -> 204: lengths 1,020 and 204 (765 and 153
    smoothed), and 0.2 times the first is the second exactly."""
    px = np.full((5, 12), 204, dtype=np.uint8)
    px[:, :4] = 0
    px[:, 4:8] = 255
    return GrayImage(12, 5, px)


def test_threshold_is_strict():
    for smooth in (False, True):
        field = sobel_field(tied_image(), smooth)
        mask = threshold_mask(field, EdgeParams(threshold_pct=0.20))
        cut = 0.20 * float(field.magnitude.max())
        assert np.array_equal(mask.mask, field.magnitude > cut)
        # pixels exactly at the cut are excluded
        at_cut = field.magnitude == cut
        assert at_cut.any() and mask.count > 0
        assert not (mask.mask & at_cut).any()


def brute_nms(mag, inmask, strict):
    h, w = mag.shape
    out = np.zeros((h, w), dtype=bool)
    pairs = (((0, -1), (0, 1)), ((-1, 0), (1, 0)),
             ((-1, -1), (1, 1)), ((-1, 1), (1, -1)))

    def val(y, x):
        return mag[y, x] if 0 <= y < h and 0 <= x < w else 0.0

    for y in range(h):
        for x in range(w):
            wins = 0
            for (ady, adx), (bdy, bdx) in pairs:
                a, b = val(y + ady, x + adx), val(y + bdy, x + bdx)
                if strict:
                    ok = mag[y, x] > a and mag[y, x] > b
                else:
                    ok = mag[y, x] >= a and mag[y, x] >= b
                wins += ok
            out[y, x] = inmask[y, x] and wins >= 2
    return out


@st.composite
def thinning_inputs(draw):
    """A field and a candidate mask: an image's Sobel field and its threshold
    mask, or a VectorField of small integer components, which tie often,
    with a random mask, a 1-row or 1-column grid among them, or a mask of
    every pixel, so that candidates sit on every border."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        w, h = draw(st.integers(3, 8)), draw(st.integers(3, 8))
        field = sobel_field(GrayImage(w, h, rng.integers(0, 256, size=(h, w), dtype=np.uint8)))
        return field, threshold_mask(field, EdgeParams(threshold_pct=0.10))
    w, h = draw(st.sampled_from([(1, 20), (20, 1), (1, 1)]) | st.tuples(st.integers(1, 20),
                                                                         st.integers(1, 20)))
    gx, gy = rng.integers(-3, 4, size=(2, h, w)).astype(np.float64)
    field = VectorField(w, h, gx, gy)
    share = draw(st.sampled_from([0.3, 0.7, 1.0]))
    return field, EdgeMask(w, h, rng.random((h, w)) < share)


ELLIPSE_FIELD = sobel_field(synth_shape("ellipse", 32, 32))
DOT_FIELD = sobel_field(GrayImage(7, 7, np.pad(np.array([[255]], dtype=np.uint8), 3)))


@given(thinning_inputs(), st.booleans())
@example((ELLIPSE_FIELD, threshold_mask(ELLIPSE_FIELD)), False)  # keeps only masked pixels
# one bright pixel: its zero-gradient center is no candidate, and some of its halo survives
@example((DOT_FIELD, threshold_mask(DOT_FIELD, EdgeParams(threshold_pct=0.05))), False)
@settings(max_examples=120, deadline=None)
def test_nms_matches_brute_force(inputs, strict):
    field, tm = inputs
    params = EdgeParams(threshold_pct=0.10, strict_nms=strict)
    got = nms_mask(field, tm, params)
    assert np.array_equal(got.mask,
                          brute_nms(field.magnitude, tm.mask, strict))


@pytest.mark.parametrize("strict", [False, True])
def test_equal_squared_lengths_tie(strict):
    # 52^2 + 17^2 == 47^2 + 28^2 == 2993, but np.hypot rounds the two lengths
    # one ulp apart.  The center of this 3x3 field wins north/south (zeros)
    # and loses both diagonals (larger neighbors), so its west/east pair,
    # which ties against its west neighbor and beats the zero east of it,
    # decides: a tie is >= but not >, whichever of the two is the center.
    a, b = (52.0, 17.0), (47.0, 28.0)
    for center, west in ((a, b), (b, a)):
        gx, gy = np.zeros((2, 3, 3))
        (gx[1, 1], gy[1, 1]), (gx[1, 0], gy[1, 0]) = center, west
        gx[0, 0] = gx[0, 2] = 100.0  # northwest and northeast
        field = VectorField(3, 3, gx, gy)
        assert field.magnitude[1, 1] == field.magnitude[1, 0]
        only_center = np.zeros((3, 3), dtype=bool)
        only_center[1, 1] = True
        thinned = nms_mask(field, EdgeMask(3, 3, only_center), EdgeParams(strict_nms=strict))
        assert thinned.mask[1, 1] == (not strict)
        assert thinned.count == (0 if strict else 1)


def test_strict_nms_is_subset_of_lenient():
    assert EdgeParams() == EdgeParams(threshold_pct=0.20, strict_nms=False)
    field = sobel_field(synth_shape("rectangle", 32, 32))
    tm = threshold_mask(field)
    lenient = nms_mask(field, tm, EdgeParams(strict_nms=False))
    strict = nms_mask(field, tm, EdgeParams(strict_nms=True))
    assert np.array_equal(strict.mask & lenient.mask, strict.mask)
    # the two-pixel-wide plateau around a binary edge survives only leniently
    assert strict.count < lenient.count


def test_square_current_circulates_one_way(square_current):
    # cross product of position-offset-from-center with tangent keeps one sign
    cx = (31 - 0) / 2.0
    cy = cx
    cross = ((square_current.xs - cx) * square_current.ty
             - (square_current.ys - cy) * square_current.tx)
    assert np.all(cross > 0) or np.all(cross < 0)


def test_zero_gradient_points_dropped():
    field = sobel_field(synth_shape("square", 16, 16, side=6))
    full = EdgeMask(16, 16, np.ones((16, 16), dtype=bool))
    current = build_current(field, full)
    assert current.dropped == 256 - len(current)
    assert current.dropped > 0
    assert not ((current.tx == 0.0) & (current.ty == 0.0)).any()


def test_element_accessor(square_current):
    el = square_current.element(0)
    assert (el.x, el.y) == (int(square_current.xs[0]), int(square_current.ys[0]))
    assert list(square_current)[0] == el


def test_mask_image_round_trip():
    field = sobel_field(synth_shape("circle", 32, 32))
    mask = nms_mask(field, threshold_mask(field))
    img = mask_image(mask)
    assert np.array_equal(img.pixels == 255, mask.mask)
    assert set(np.unique(img.pixels)) <= {0, 255}


@pytest.mark.parametrize("chunk", [1, 5], ids=["one-row-chunks", "partial-last-chunk"])
def test_current_tsv_layout(square_current, monkeypatch, chunk):
    text = current_tsv(square_current)
    # 84 elements: 64 + 20 at the default chunk size, 84 of 1 row, or 16 of 5 + 4
    monkeypatch.setattr(raster, "_TSV_ROWS", chunk)
    assert current_tsv(square_current) == text
    z = np.array([], dtype=np.int64)
    assert current_tsv(EdgeCurrent(8, 8, z, z, [], [])) == "x\ty\ttx\tty\n"
    lines = text.splitlines()
    assert lines[0] == "x\ty\ttx\tty"
    assert len(lines) == len(square_current) + 1
    assert text.endswith("\n")
    x, y, tx, ty = lines[1].split("\t")
    el = square_current.element(0)
    assert (int(x), int(y)) == (el.x, el.y)
    assert (float(tx), float(ty)) == (el.tx, el.ty)


def test_higher_threshold_never_adds_points():
    img = synth_shape("ellipse", 32, 32)
    low = extract_current(img, EdgeParams(threshold_pct=0.10))
    high = extract_current(img, EdgeParams(threshold_pct=0.60))
    low_set = set(zip(low.xs.tolist(), low.ys.tolist()))
    high_set = set(zip(high.xs.tolist(), high.ys.tolist()))
    assert high_set <= low_set


@st.composite
def edge_images(draw):
    """3 to 70 px a side: uniform noise, binary 0/255, constant, one bright
    pixel or a checkerboard."""
    w, h = draw(st.integers(3, 70)), draw(st.integers(3, 70))
    kind = draw(st.sampled_from(["noise", "binary", "constant", "dot", "checker"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "noise":
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    elif kind == "binary":
        px = rng.integers(0, 2, size=(h, w), dtype=np.uint8) * np.uint8(255)
    elif kind == "constant":
        px = np.full((h, w), draw(st.integers(0, 255)), dtype=np.uint8)
    elif kind == "dot":
        px = np.zeros((h, w), dtype=np.uint8)
        px[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(st.integers(1, 255))
    else:
        px = (np.add.outer(np.arange(h), np.arange(w)) % 2 * 255).astype(np.uint8)
    return GrayImage(w, h, px)


@given(edge_images(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.booleans(), st.booleans())
@example(tied_image(), 0.2, False, False)  # a length equals the cut, which it must not pass
@example(tied_image(), 0.2, True, True)
@example(tied_image(), 0.19999999, False, False)  # a length at the least integer L that passes
@settings(max_examples=150, deadline=None)
def test_extract_current_equals_the_staged_route(img, pct, strict, smooth):
    params = EdgeParams(threshold_pct=pct, strict_nms=strict)
    f = sobel_field(img, smooth)
    want = build_current(f, nms_mask(f, threshold_mask(f, params), params))
    got = extract_current(img, params, smooth)
    assert np.array_equal(got.xs, want.xs) and np.array_equal(got.ys, want.ys)
    assert got.tx.tobytes() == want.tx.tobytes() and got.ty.tobytes() == want.ty.tobytes()
    assert got.dropped == want.dropped == 0
    # One element per pixel, in row-major order, so a field lattice evaluates no point twice.
    assert (np.diff(got.ys * got.width + got.xs) > 0).all()


@pytest.mark.parametrize("smooth", [False, True])
def test_extraction_peak_memory(smooth):
    # The integer route holds no image-sized float array: the staged route
    # peaks at about 0.69 MiB here (0.82 MiB smoothed).
    img = synth_shape("ellipse", 128, 128)
    extract_current(img, smooth=smooth)
    tracemalloc.start()
    try:
        extract_current(img, smooth=smooth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.45 * 2 ** 20


@given(st.integers(0, 2 ** 31 - 1), st.integers(-2, 2), st.sampled_from([1.0, 0.0625]))
@settings(max_examples=300)
def test_least_above_is_the_least_integer_whose_length_passes(m, ulps, scale):
    # cuts at a length sqrt(m) * scale and a few ulps either side, where
    # rounding decides
    cut = math.sqrt(m) * scale
    for _ in range(abs(ulps)):
        cut = math.nextafter(cut, math.copysign(math.inf, ulps))
    cut = max(cut, 0.0)
    n = _least_above(cut, scale)
    assert math.sqrt(n) * scale > cut
    assert not math.sqrt(n - 1) * scale > cut
