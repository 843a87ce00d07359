import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emmatch import (SOBEL_X, SOBEL_Y, EdgeCurrent, EdgeMask, EdgeParams,
                     EmptyCurrentError, GrayImage, VectorField, build_current,
                     current_tsv, extract_current, mask_image, nms_mask,
                     sobel_field, synth_shape, threshold_mask)
from emmatch.edgecurrent import _least_above


BINOMIAL = np.array([[1, 2, 1],
                     [2, 4, 2],
                     [1, 2, 1]], dtype=np.float64) / 16.0


def brute_correlate(f, kernel):
    """Direct 3x3 correlation with edge replication, one pixel at a time."""
    p = np.pad(f, 1, mode="edge")
    out = np.zeros(f.shape)
    for y, x in np.ndindex(f.shape):
        out[y, x] = float(np.sum(p[y:y + 3, x:x + 3] * kernel))
    return out


def brute_sobel(pixels, smooth=False):
    f = pixels.astype(np.float64)
    if smooth:
        f = brute_correlate(f, BINOMIAL)
    return brute_correlate(f, SOBEL_X), brute_correlate(f, SOBEL_Y)


def test_kernels_are_transposes():
    assert np.array_equal(SOBEL_Y, SOBEL_X.T)
    assert SOBEL_X[1, 2] == 2.0 and SOBEL_X[1, 0] == -2.0
    for kernel in (SOBEL_X, SOBEL_Y):
        with pytest.raises(ValueError):
            kernel[0, 0] = 5.0


def test_constant_image_has_zero_gradient():
    img = GrayImage(8, 5, np.full((5, 8), 77, dtype=np.uint8))
    field = sobel_field(img)
    assert not field.gx.any()
    assert not field.gy.any()
    assert not field.magnitude.any()


def test_vertical_step_gradient():
    px = np.zeros((6, 8), dtype=np.uint8)
    px[:, 4:] = 255
    field = sobel_field(GrayImage(8, 6, px))
    # both columns touching the step see the full kernel response
    assert np.all(field.gx[:, 3] == 1020.0)
    assert np.all(field.gx[:, 4] == 1020.0)
    assert not field.gx[:, :3].any() and not field.gx[:, 5:].any()
    assert not field.gy.any()


def test_horizontal_step_is_transposed_vertical_step():
    px = np.zeros((8, 6), dtype=np.uint8)
    px[4:, :] = 255
    field = sobel_field(GrayImage(6, 8, px))
    assert np.all(field.gy[3, :] == 1020.0)
    assert np.all(field.gy[4, :] == 1020.0)
    assert not field.gx.any()


def test_single_bright_pixel_matches_brute_force():
    px = np.zeros((5, 5), dtype=np.uint8)
    px[2, 2] = 200
    field = sobel_field(GrayImage(5, 5, px))
    gx, gy = brute_sobel(px)
    assert np.array_equal(field.gx, gx)
    assert np.array_equal(field.gy, gy)


@given(st.integers(3, 9), st.integers(3, 9), st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=80, deadline=None)
def test_matches_brute_force_on_random_images(w, h, seed, smooth):
    # Every term is a multiple of 1/16, so both sums are exact: the bytes,
    # sign of zero included, must agree, with smoothing or without.
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    px[rng.random((h, w)) < 0.3] = 0  # zero regions, where a -0.0 could appear
    field = sobel_field(GrayImage(w, h, px), smooth=smooth)
    gx, gy = brute_sobel(px, smooth)
    assert field.gx.tobytes() == gx.tobytes()
    assert field.gy.tobytes() == gy.tobytes()


def correlate_2d(f, kernel):
    """3x3 correlation over f's edge-replicated border, all nine taps at once."""
    p = np.pad(f, 1, mode="edge")
    h, w = f.shape
    return np.sum([kernel[i, j] * p[i:i + h, j:j + w] for i in range(3) for j in range(3)],
                  axis=0)


def test_separable_passes_equal_the_2d_correlation():
    # The kernels are outer products of their 3-tap factors, read-only.
    for kernel in (SOBEL_X, SOBEL_Y):
        assert np.linalg.matrix_rank(kernel) == 1
        with pytest.raises(ValueError):
            kernel[1, 1] = 3.0
    images = [synth_shape(kind, n, n).pixels
              for kind in ("square", "rectangle", "ellipse", "circle", "line") for n in (32, 64)]
    rng = np.random.default_rng(5)
    for _ in range(20):
        h, w = rng.integers(3, 65, size=2)
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        px[rng.random((h, w)) < 0.3] = 0
        images.append(px)
    for px in images:
        for smooth in (False, True):
            f = px.astype(np.float64)
            if smooth:
                f = correlate_2d(f, BINOMIAL)
            field = sobel_field(GrayImage(px.shape[1], px.shape[0], px), smooth=smooth)
            assert field.gx.tobytes() == correlate_2d(f, SOBEL_X).tobytes()
            assert field.gy.tobytes() == correlate_2d(f, SOBEL_Y).tobytes()


@given(st.integers(3, 9), st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_transpose_swaps_components(w, h, seed):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    a = sobel_field(GrayImage(w, h, px))
    b = sobel_field(GrayImage(h, w, px.T.copy()))
    assert np.array_equal(a.gx, b.gy.T)
    assert np.array_equal(a.gy, b.gx.T)


def test_magnitude_is_the_root_of_the_exact_squared_length():
    # Image gradients are sixteenths of magnitude at most 1020, so 256 |g|^2
    # is an integer, summed exactly here; the length is its correctly
    # rounded root, so equal squared lengths give equal lengths.
    rng = np.random.default_rng(11)
    images = [synth_shape(kind, n, n).pixels
              for kind in ("square", "rectangle", "ellipse", "circle", "line") for n in (16, 32)]
    images += [rng.integers(0, 256, size=(h, w), dtype=np.uint8)
               for h, w in rng.integers(3, 40, size=(10, 2))]
    for px in images:
        for smooth in (False, True):
            field = sobel_field(GrayImage(px.shape[1], px.shape[0], px), smooth=smooth)
            ix, iy = (np.asarray(16 * g, dtype=np.int64) for g in (field.gx, field.gy))
            assert np.array_equal(ix, 16 * field.gx) and np.array_equal(iy, 16 * field.gy)
            want = np.sqrt((ix * ix + iy * iy).astype(np.float64) / 256.0)
            assert field.magnitude.tobytes() == want.tobytes()
            assert np.array_equal(field.magnitude == 0.0,
                                  (field.gx == 0.0) & (field.gy == 0.0))


def test_smoothing_preserves_constant_regions():
    img = GrayImage(8, 8, np.full((8, 8), 200, dtype=np.uint8))
    field = sobel_field(img, smooth=True)
    assert not field.gx.any()
    assert not field.gy.any()


def test_smoothing_lowers_peak_response():
    img = synth_shape("square", 32, 32)
    raw = sobel_field(img)
    soft = sobel_field(img, smooth=True)
    assert float(soft.magnitude.max()) < float(raw.magnitude.max())
    # default stays unsmoothed
    assert np.array_equal(sobel_field(img).gx, raw.gx)


def test_too_small_image_rejected():
    img = GrayImage(2, 5, np.zeros((5, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        sobel_field(img)


def test_field_arrays_frozen():
    field = sobel_field(synth_shape("square", 16, 16, side=6))
    with pytest.raises(ValueError):
        field.gx[0, 0] = 1.0
    with pytest.raises(ValueError):
        field.magnitude[0, 0] = 1.0


def test_field_shape_validation():
    with pytest.raises(ValueError):
        VectorField(4, 3, np.zeros((4, 4)), np.zeros((3, 4)))


def test_edge_params_validation():
    with pytest.raises(ValueError):
        EdgeParams(threshold_pct=0.0)
    with pytest.raises(ValueError):
        EdgeParams(threshold_pct=1.0)
    assert EdgeParams().threshold_pct == 0.20
    assert EdgeParams().strict_nms is False


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


def test_all_zero_field_gives_empty_mask():
    field = sobel_field(GrayImage(8, 8, np.full((8, 8), 9, dtype=np.uint8)))
    assert threshold_mask(field).count == 0


def test_nms_survivor_beats_two_pairs():
    # single bright pixel: its center beats all four pairs, the halo does not
    px = np.zeros((7, 7), dtype=np.uint8)
    px[3, 3] = 255
    field = sobel_field(GrayImage(7, 7, px))
    mask = nms_mask(field, threshold_mask(field, EdgeParams(threshold_pct=0.05)))
    assert not mask.mask[3, 3]  # gradient at the peak itself is zero
    assert mask.count > 0


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


@given(thinning_inputs(), st.booleans())
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
    field = sobel_field(synth_shape("rectangle", 32, 32))
    tm = threshold_mask(field)
    lenient = nms_mask(field, tm, EdgeParams(strict_nms=False))
    strict = nms_mask(field, tm, EdgeParams(strict_nms=True))
    assert np.array_equal(strict.mask & lenient.mask, strict.mask)
    # the two-pixel-wide plateau around a binary edge survives only leniently
    assert strict.count < lenient.count


def test_nms_output_within_input_mask():
    field = sobel_field(synth_shape("ellipse", 32, 32))
    tm = threshold_mask(field)
    out = nms_mask(field, tm)
    assert np.array_equal(out.mask & tm.mask, out.mask)


def test_square_current_element_count(square_current):
    assert len(square_current) == 84
    assert square_current.dropped == 0


def test_rotation_is_quarter_turn_ccw(square_img):
    field = sobel_field(square_img)
    current = extract_current(square_img)
    for el in current:
        gx = field.gx[el.y, el.x]
        gy = field.gy[el.y, el.x]
        assert (el.tx, el.ty) == (gy, -gx)
        # rotation preserves length and produces a perpendicular vector
        assert el.tx * gx + el.ty * gy == 0.0
        assert np.hypot(el.tx, el.ty) == np.hypot(gx, gy)


def test_square_current_circulates_one_way(square_current):
    # cross product of position-offset-from-center with tangent keeps one sign
    cx = (31 - 0) / 2.0
    cy = cx
    cross = ((square_current.xs - cx) * square_current.ty
             - (square_current.ys - cy) * square_current.tx)
    assert np.all(cross > 0) or np.all(cross < 0)


def test_elements_in_row_major_order(square_current):
    keys = [(int(y), int(x)) for x, y in zip(square_current.xs, square_current.ys)]
    assert keys == sorted(keys)


def test_zero_gradient_points_dropped():
    field = sobel_field(synth_shape("square", 16, 16, side=6))
    full = EdgeMask(16, 16, np.ones((16, 16), dtype=bool))
    current = build_current(field, full)
    assert current.dropped == 256 - len(current)
    assert current.dropped > 0
    assert not ((current.tx == 0.0) & (current.ty == 0.0)).any()


def test_build_current_rejects_dim_mismatch():
    field = sobel_field(synth_shape("square", 16, 16, side=6))
    with pytest.raises(ValueError):
        build_current(field, EdgeMask(8, 8, np.zeros((8, 8), dtype=bool)))


def test_extract_blank_image_yields_empty_current():
    blank = GrayImage(16, 16, np.zeros((16, 16), dtype=np.uint8))
    assert len(extract_current(blank)) == 0


def test_current_arrays_frozen(square_current):
    with pytest.raises(ValueError):
        square_current.xs[0] = 5
    with pytest.raises(ValueError):
        square_current.tx[0] = 1.0


def test_edge_current_length_validation():
    with pytest.raises(ValueError):
        EdgeCurrent(8, 8, np.array([1, 2]), np.array([1]),
                    np.array([1.0]), np.array([1.0]))


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


def test_current_tsv_layout(square_current):
    text = current_tsv(square_current)
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
