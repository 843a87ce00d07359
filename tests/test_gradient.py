import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emmatch import SOBEL_X, SOBEL_Y, GrayImage, VectorField, sobel_field, synth_shape


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
