"""The construction rule shared by the six array-backed value types.

Each stores a read-only, C-contiguous copy of its arrays, so the caller's
arrays stay the caller's, and it rejects a cast that would lose information.
"""

import numpy as np
import pytest

from emmatch import (ClassificationMap, EdgeCurrent, EdgeMask, ForceMap, GrayImage,
                     VectorField)

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
