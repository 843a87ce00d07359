"""The construction rule shared by the six array-backed value types.

Each stores a read-only, C-contiguous copy of its arrays, so the caller's
arrays stay the caller's, and it rejects a cast that would lose information.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emmatch import (ClassificationMap, EdgeCurrent, EdgeMask, EmptyCurrentError, ForceMap,
                     GrayImage, PathStatus, Vec2, VectorField, build_current,
                     classification_rgb, classify_map, current_tsv, extract_current,
                     follow_path, force_map, force_map_fast, force_map_tsv, load_pgm,
                     mask_image, match_images, nms_mask, save_pgm, shift_image,
                     sobel_field, summarize_map, threshold_mask, total_force)
from emmatch.cli import (render_classification_ppm, render_current_glyphs,
                         render_direction_glyphs)

# Grid arguments and a fresh set of valid arrays for each type, on a 3x2 grid.
# The first two elements of every array differ, so copying one over the
# other is a visible write.
GRID = {GrayImage: (3, 2), VectorField: (3, 2), EdgeMask: (3, 2), EdgeCurrent: (3, 2),
        ForceMap: (3, 2, 1, 1), ClassificationMap: (3, 2, 1, 1)}
ARRAYS = {
    # int16, not uint8: GrayImage narrows other integer dtypes itself.
    GrayImage: lambda: {"pixels": np.array([[0, 9, 2], [3, 255, 5]], dtype=np.int16)},
    VectorField: lambda: {"gx": np.arange(6.0).reshape(2, 3),
                          "gy": -np.arange(1.0, 7.0).reshape(2, 3)},
    EdgeMask: lambda: {"mask": np.array([[True, False, True], [False, False, True]])},
    EdgeCurrent: lambda: {"xs": np.array([0, 2]), "ys": np.array([1, 0]),
                          "tx": np.array([1.0, -2.0]), "ty": np.array([0.5, 3.0])},
    ForceMap: lambda: {"fx": np.arange(6.0).reshape(2, 3),
                       "fy": np.array([[1.0, -1.0, 2.0], [0.0, 4.0, 5.0]])},
    ClassificationMap: lambda: {"codes": np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)},
}


def build(cls, arrays):
    return cls(*GRID[cls], **arrays)


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda cls: cls.__name__)
def test_value_keeps_its_own_read_only_copy(cls):
    arrays = ARRAYS[cls]()
    value = build(cls, arrays)
    for name, arr in arrays.items():
        stored = getattr(value, name)
        want = stored.copy()
        assert arr.flags.writeable
        assert not stored.flags.writeable and stored.flags.c_contiguous
        arr.flat[0] = arr.flat[1]
        assert np.array_equal(stored, want)

    # A transposed view of a C-ordered base: writing the base leaves the value alone.
    bases = {name: np.array([arr.T, arr.T]) for name, arr in ARRAYS[cls]().items()}
    value = build(cls, {name: base[0].T for name, base in bases.items()})
    for name, base in bases.items():
        stored = getattr(value, name)
        want = stored.copy()
        assert not stored.flags.writeable and stored.flags.c_contiguous
        base.flat[0] = base.flat[1]
        assert np.array_equal(stored, want)

    arrays = ARRAYS[cls]()
    name = next(iter(arrays))
    with pytest.raises(ValueError, match="shape"):
        build(cls, dict(arrays, **{name: arrays[name][..., :-1]}))


def test_edge_current_rejects_float_positions():
    with pytest.raises(ValueError, match="xs dtype float64"):
        EdgeCurrent(4, 4, [1.7, 2.2], [0.9, 3.99], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="ys dtype float64"):
        EdgeCurrent(4, 4, [1, 2], np.array([1.0, 2.0]), [1.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("x, y", [(-1, 0), (4, 0), (0, -1), (0, 3)])
def test_edge_current_rejects_positions_off_the_grid(x, y):
    with pytest.raises(ValueError, match="4x3 grid"):
        EdgeCurrent(4, 3, [1, x], [1, y], [1.0, 1.0], [0.0, 0.0])


def test_complex_arrays_are_rejected():
    z = np.zeros((2, 3)) + 1j
    with pytest.raises(ValueError, match="fx dtype complex128"):
        ForceMap(3, 2, 1, 1, z, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="gy dtype complex128"):
        VectorField(3, 2, np.zeros((2, 3)), z)
    with pytest.raises(ValueError, match="tx dtype complex128"):
        EdgeCurrent(3, 2, [0], [0], [1j], [0.0])


@pytest.mark.parametrize("tx, ty", [(math.inf, 1.0), (1.0, math.nan), (-math.inf, math.nan)])
def test_edge_current_rejects_non_finite_tangents(tx, ty):
    # a non-finite tangent used to surface later, as a numpy warning in total_force
    with pytest.raises(ValueError, match="tangents tx and ty must be finite"):
        EdgeCurrent(4, 4, [0, 2], [0, 1], [tx, 1.0], [ty, 1.0])


@pytest.mark.parametrize("gx, gy", [(math.nan, 0.0), (0.0, math.inf), (1.7e308, 1.7e308)])
def test_vector_field_rejects_non_finite_vectors_and_lengths(gx, gy):
    # such a field thresholds to an empty mask, or builds a non-finite current
    with pytest.raises(ValueError, match="lengths must be finite"):
        VectorField(2, 1, [[1.0, gx]], [[0.0, gy]])


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
def test_edge_mask_rejects_numeric_masks(dtype):
    with pytest.raises(ValueError, match="mask dtype"):
        EdgeMask(3, 1, np.array([[0, 2, 1]], dtype=dtype))


@pytest.mark.parametrize("code, dtype", [(3, np.uint8), (7, np.uint8), (256, np.uint16),
                                         (256, np.int64), (1.0, np.float64)])
def test_classification_map_rejects_non_label_codes(code, dtype):
    codes = np.zeros((2, 3), dtype=dtype)
    codes[1, 2] = code
    with pytest.raises(ValueError, match="codes"):
        ClassificationMap(3, 2, 1, 1, codes)


@pytest.mark.parametrize("cls", [ForceMap, ClassificationMap], ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("ox, oy", [(7, 7), (3, 1), (1, 2), (-1, 1), (1, -1)])
def test_map_rejects_an_origin_off_the_grid(cls, ox, oy):
    with pytest.raises(ValueError, match=rf"origin \({ox}, {oy}\) outside 3x2 map"):
        cls(3, 2, ox, oy, **ARRAYS[cls]())


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda cls: cls.__name__)
def test_size_must_be_integers_of_at_least_one(cls):
    # (2, 3.0) == (2, 3), so the shape check alone lets a float size through
    # to save_pgm's header and classify_map's grid.
    width, height, *origin = GRID[cls]
    for bad in ((float(width), height), (width, height + 0.5), (width, 0), (-width, height)):
        with pytest.raises(ValueError, match=rf"{cls.__name__} size .* must be two integers"):
            cls(*bad, *origin, **ARRAYS[cls]())
    value = cls(np.int64(width), np.uint8(height), *origin, **ARRAYS[cls]())
    assert type(value.width) is int and type(value.height) is int


# The contract of the six constructors: any input either raises ValueError or
# TypeError at construction, or gives a value every downstream function takes.

DTYPES = [np.float64, np.float32, np.int64, np.int16, np.uint8, np.bool_, np.complex128]


def mostly(valid, anything):
    """Draws from valid nine times in ten, from anything otherwise."""
    return st.integers(0, 9).flatmap(lambda k: anything if k == 0 else valid)


def any_array(shape):
    """An array of any dtype, values and shape."""
    return hnp.arrays(st.sampled_from(DTYPES),
                      st.just(shape) | hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                        max_side=5))


def floats(shape, elements=None):
    return mostly(hnp.arrays(np.float64, shape, elements=elements), any_array(shape))


def ints(shape, dtypes, low, high):
    return mostly(hnp.arrays(st.sampled_from(dtypes), shape, elements=st.integers(low, high)),
                  any_array(shape))


@st.composite
def values(draw, cls):
    """cls built from drawn arguments; None when the constructor refuses them."""
    w = draw(mostly(st.integers(1, 5), st.sampled_from([0, -2, 3.0, 2.5, None, "3"])))
    h = draw(mostly(st.integers(1, 5), st.sampled_from([0, -2, 3.0, 2.5, None, "3"])))
    valid = all(isinstance(n, int) and n >= 1 for n in (w, h))
    grid = (h, w) if valid else (1, 1)
    side = max(w, h) if valid else 1
    cells = mostly(st.integers(0, side - 1), st.sampled_from([-1, side, 1.0, None]))
    if cls is GrayImage:
        args = (draw(ints(grid, [np.uint8, np.int16, np.int64], 0, 255)),)
    elif cls is VectorField:
        args = (draw(floats(grid)), draw(floats(grid)))
    elif cls is EdgeMask:
        args = (draw(mostly(hnp.arrays(np.bool_, grid), any_array(grid))),)
    elif cls is EdgeCurrent:
        n = (draw(st.integers(0, 4)),)
        args = (draw(ints(n, [np.int64], 0, side - 1)), draw(ints(n, [np.int64], 0, side - 1)),
                draw(floats(n)), draw(floats(n)))
    elif cls is ForceMap:
        g = draw(st.none() | floats(grid, st.floats(min_value=0.0)))
        args = (draw(cells), draw(cells), draw(floats(grid)), draw(floats(grid)), g)
    else:
        args = (draw(cells), draw(cells), draw(ints(grid, [np.uint8], 0, 2)))
    try:
        return cls(w, h, *args)
    except (ValueError, TypeError):
        return None


def forces_or_overflow(compute, current):
    """compute(), or None when it reports an overflow that current's tangents can cause.

    At integer shifts and height 0 every pair of distinct points is at least
    1 apart, so no sum over at most 4 x 4 pairs overflows while every tangent
    component stays within 1e150.
    """
    try:
        return compute()
    except ValueError as e:
        tangents = np.concatenate((current.tx, current.ty))
        assert "not finite" in str(e)
        assert np.isfinite(tangents).all() and np.abs(tangents).max() > 1e150
        return None


def use(value):
    """Call every downstream function that takes the value."""
    if isinstance(value, GrayImage):
        assert load_pgm(save_pgm(value)) == value
        assert shift_image(value, 1, -1).pixels.shape == value.pixels.shape
        if min(value.width, value.height) >= 3:  # sobel_field's stencil
            for smooth in (False, True):
                use(sobel_field(value, smooth=smooth))
                use(extract_current(value, smooth=smooth))
            try:
                match_images(value, value)
            except EmptyCurrentError:  # a flat image has no edge points
                pass
    elif isinstance(value, VectorField):
        mask = threshold_mask(value)
        use(mask)
        use(nms_mask(value, mask))
        use(build_current(value, EdgeMask(value.width, value.height,
                                          np.ones((value.height, value.width), bool))))
    elif isinstance(value, EdgeMask):
        assert 0 <= value.count <= value.width * value.height
        save_pgm(mask_image(value))
    elif isinstance(value, EdgeCurrent):
        current_tsv(value)
        render_current_glyphs(value)
        assert len(list(value)) == len(value)
        if len(value):
            forces_or_overflow(lambda: total_force(value, value, Vec2(1.0, -1.0)), value)
            for build in (force_map, force_map_fast):
                fmap = forces_or_overflow(lambda: build(value, value), value)
                if fmap is not None:
                    use(fmap)
    elif isinstance(value, ForceMap):
        force_map_tsv(value)
        render_direction_glyphs(value)
        use(classify_map(value))
        for y in range(value.height):
            for x in range(value.width):
                value.cell(x, y)
                for stop in (True, False):
                    assert follow_path(value, (x, y), stop).status in PathStatus
    elif isinstance(value, ClassificationMap):
        assert sum(summarize_map(value).values()) == value.width * value.height
        render_classification_ppm(value)
        classification_rgb(value)
        for y in range(value.height):
            for x in range(value.width):
                value.label(x, y)


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_constructed_values_work_downstream(cls, data):
    value = data.draw(values(cls))
    if value is not None:
        use(value)
