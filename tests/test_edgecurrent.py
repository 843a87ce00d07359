import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emmatch import (EdgeCurrent, EdgeMask, EdgeParams, EmptyCurrentError,
                     GrayImage, VectorField, build_current, current_tsv,
                     extract_current, mask_image, nms_mask, sobel_field,
                     synth_shape, threshold_mask)


def test_edge_params_validation():
    with pytest.raises(ValueError):
        EdgeParams(threshold_pct=0.0)
    with pytest.raises(ValueError):
        EdgeParams(threshold_pct=1.0)
    assert EdgeParams().threshold_pct == 0.20
    assert EdgeParams().strict_nms is False


def test_threshold_is_strict():
    field = sobel_field(synth_shape("square", 32, 32))
    mask = threshold_mask(field, EdgeParams(threshold_pct=0.20))
    cut = 0.20 * float(field.magnitude.max())
    assert np.array_equal(mask.mask, field.magnitude > cut)
    # pixels exactly at the cut are excluded
    at_cut = field.magnitude == cut
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
