"""Edge extraction: Sobel gradients, threshold, thinning, and the virtual current.

The Sobel kernels and the optional binomial blur are separable: each runs
through one 3x3 correlation, a 3-tap pass along rows and then one along
columns, over the image's edge-replicated border, which slicing fills.

An edge pixel with gradient (gx, gy) carries a tangential current vector
(tx, ty) = (gy, -gx), the gradient rotated a quarter turn counterclockwise.
The rotation keeps the magnitude, so strong edges carry strong currents.
Thinning and building a current read only the pixels a mask keeps, by
their row-major indices; thinning gathers each with its eight neighbors
from a zero-bordered copy of the compared values.  A thresholded pixel's
length exceeds a cut that is never negative, so EdgeCurrent.dropped can be
nonzero only for a mask passed to build_current directly.

The gradients are exact integers.  The passes run in int16: 8-bit pixels
give integral gradients, and the blur is carried as 16 times its value, so
a smoothed gradient is a count of sixteenths.  Every partial sum, like each
gradient, is at most 1,020 in magnitude, or 16,320 sixteenths, and each
gradient equals the float64 correlation's once scaled back by _gradients'
scale.  A gradient's length is sqrt(gx^2 + gy^2).  Its squared length L, in
units or in 1/256 when smoothed, is an integer below 2**31 (at most
532,684,800), exact in int32 and float64 alike, and each length is
correctly rounded.  Distinct integers below 2**31 have distinct correctly
rounded roots (they differ by at least 1e-5, an ulp there by at most
8e-12), so lengths compare exactly as their L do, and a length beats the
threshold exactly when its L reaches the least integer whose length does.

extract_current runs on the integers L and makes no image-sized float
array.  The staged route, sobel_field's float64 VectorField through
threshold_mask, nms_mask and build_current, is its reference: both share
the gradients (_gradients), the cut (_cut), the thinning rule (_thin) and
the builder (_current), and give the same current byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator

import numpy as np

from .raster import GrayImage, _frozen_copy, _store_grid_size, _tsv

# The 3-tap factors of the kernels: a smoothing and a central difference.
# The binomial blur is outer(_SMOOTH, _SMOOTH) / 16.
_SMOOTH = (1, 2, 1)
_DIFF = (-1, 0, 1)

# Horizontal kernel, outer(_SMOOTH, _DIFF); the vertical one is its
# transpose.  Applied as a correlation, so gx is positive where intensity
# increases to the right and gy is positive where intensity increases
# downward (y grows down).  Both are read-only, since every gradient reads
# them.
SOBEL_X = _frozen_copy(np.outer(_SMOOTH, _DIFF), np.float64, (3, 3), "SOBEL_X")
SOBEL_Y = SOBEL_X.T


@dataclass(frozen=True, eq=False)
class VectorField:
    """Per-pixel 2D gradient vectors on the source image grid, as read-only float64 copies.

    magnitude is each vector's Euclidean length, sqrt(gx^2 + gy^2), zero
    exactly where gx == gy == 0.  Every vector and its squared length must be
    finite, so no length may reach about 1.34e154.
    """

    width: int
    height: int
    gx: np.ndarray  # (height, width) float64
    gy: np.ndarray
    magnitude: np.ndarray = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        _store_grid_size(self)
        for name in ("gx", "gy"):
            arr = _frozen_copy(getattr(self, name), np.float64, (self.height, self.width), name)
            object.__setattr__(self, name, arr)
        with np.errstate(over="ignore", invalid="ignore"):
            length = self.gx * self.gx
            length += self.gy * self.gy
        if not np.isfinite(length).all():
            overflow = np.isfinite(self.gx).all() and np.isfinite(self.gy).all()
            raise ValueError("gradient vectors and their lengths must be finite"
                             + (": a squared length overflows" if overflow else ""))
        np.sqrt(length, out=length)
        length.flags.writeable = False  # a fresh array, read-only as gx and gy are
        object.__setattr__(self, "magnitude", length)


def _taps(a: np.ndarray, b: np.ndarray, c: np.ndarray, taps) -> np.ndarray:
    """a + 2 b + c for _SMOOTH, c - a for _DIFF."""
    if taps == _DIFF:
        return np.subtract(c, a)
    total = np.add(a, c)
    total += b
    total += b
    return total


def _correlate3(p: np.ndarray, col, row) -> np.ndarray:
    """3x3 correlation with kernel outer(col, row) of the image that p pads.

    p is the integer image with a one-pixel edge-replicated border
    (_edge_padded); the row taps run along x, then the col taps along y.
    """
    h, w = p.shape[0] - 2, p.shape[1] - 2
    across = _taps(p[:, :w], p[:, 1:w + 1], p[:, 2:], row)
    return _taps(across[:h], across[1:h + 1], across[2:], col)


def _edge_padded(f: np.ndarray) -> np.ndarray:
    """f as int16 with a one-pixel border that repeats its edge, as np.pad's "edge" mode."""
    h, w = f.shape
    p = np.empty((h + 2, w + 2), dtype=np.int16)
    p[1:-1, 1:-1] = f
    p[0, 1:-1], p[-1, 1:-1] = f[0], f[-1]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    return p


def _gradients(img: GrayImage, smooth: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """The Sobel gradients (gx, gy) of img as int16 images, and the scale of their unit.

    The unit is 1, or 1/16 (a sixteenth) when smooth is set.
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image must be at least 3x3 for Sobel, got {img.width}x{img.height}")
    p = _edge_padded(img.pixels)
    scale = 1.0
    if smooth:
        p = _edge_padded(_correlate3(p, _SMOOTH, _SMOOTH))  # 16 times the blur, at most 4080
        scale = 0.0625
    return _correlate3(p, _SMOOTH, _DIFF), _correlate3(p, _DIFF, _SMOOTH), scale


def sobel_field(img: GrayImage, smooth: bool = False) -> VectorField:
    """Estimate the intensity gradient of every pixel with 3x3 Sobel kernels.

    Border pixels see the image extended by edge replication.  When smooth
    is set, a 3x3 binomial blur runs first (off by default).
    """
    gx, gy, scale = _gradients(img, smooth)
    return VectorField(img.width, img.height, np.multiply(gx, scale, dtype=np.float64),
                       np.multiply(gy, scale, dtype=np.float64))


class EmptyCurrentError(ValueError):
    """No edge points survived extraction."""


@dataclass(frozen=True)
class EdgeParams:
    """Knobs for the edge extraction stage.

    threshold_pct keeps only pixels whose gradient magnitude is strictly
    above that fraction of the field maximum.  strict_nms switches the
    thinning comparison from >= to >, which suppresses two-pixel-wide
    plateau edges entirely instead of keeping both sides.
    """

    threshold_pct: float = 0.20
    strict_nms: bool = False

    def __post_init__(self):
        if not 0.0 < self.threshold_pct < 1.0:
            raise ValueError(f"threshold_pct must lie in (0, 1), got {self.threshold_pct}")


@dataclass(frozen=True, eq=False)
class EdgeMask:
    """Boolean per-pixel mask of edge points, stored as a read-only copy; non-bool raises."""

    width: int
    height: int
    mask: np.ndarray  # (height, width) bool

    def __post_init__(self):
        _store_grid_size(self)
        object.__setattr__(self, "mask",
                           _frozen_copy(self.mask, bool, (self.height, self.width), "mask"))

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def threshold_mask(field: VectorField, params: EdgeParams = EdgeParams()) -> EdgeMask:
    """Mark pixels with gradient magnitude strictly above pct * field maximum.

    An all-zero field has maximum 0, so nothing beats it and the mask is empty.
    """
    m = field.magnitude
    return EdgeMask(field.width, field.height, m > _cut(params, float(m.max())))


def _cut(params: EdgeParams, max_length: float) -> float:
    """The magnitude a pixel must exceed to pass the threshold, as a Python float."""
    return float(params.threshold_pct * max_length)


def nms_mask(field: VectorField, mask: EdgeMask,
             params: EdgeParams = EdgeParams()) -> EdgeMask:
    """Thin a thresholded mask by a directionless non-maximum rule.

    Each masked pixel is compared against its neighbors along four opposite
    pairs: west/east, north/south, northwest/southeast, and northeast/
    southwest.  It survives when it beats both neighbors of at least two
    pairs.  Beating means >= by default, > under strict_nms.  Neighbors
    outside the image count as magnitude zero.  Only the masked pixels are
    compared, each with its eight neighbors in one zero-bordered copy of the
    magnitudes.
    """
    w, h = field.width, field.height
    border = np.zeros((h + 2, w + 2))
    border[1:-1, 1:-1] = field.magnitude
    out = np.zeros(h * w, dtype=bool)
    out[_thin(border, np.flatnonzero(mask.mask), params.strict_nms)] = True
    return EdgeMask(w, h, out.reshape(h, w))


# Steps (dx, dy) to a pixel, its W, N, NW and NE neighbors, then E, S, SE and SW.
_NEIGHBORS = np.array([[0, -1, 0, -1, 1, 1, 0, 1, -1], [0, 0, -1, -1, -1, 0, 1, 1, 1]])


def _thin(bordered: np.ndarray, k: np.ndarray, strict: bool) -> np.ndarray:
    """The candidates of k, row-major pixel indices, that nms_mask's rule keeps.

    bordered is the compared quantity on the (height, width) grid inside a
    one-pixel border of zeros.
    """
    stride = bordered.shape[1]
    at = k + 2 * (k // (stride - 2)) + (stride + 1)  # flat indices into bordered
    v = bordered.ravel()[(_NEIGHBORS[0] + stride * _NEIGHBORS[1])[:, None] + at]  # (9, len(k))
    beats = (np.greater if strict else np.greater_equal)(v[0], v[1:])
    return k[(beats[:4] & beats[4:]).sum(axis=0) >= 2]  # rows j and j + 4 hold a pair


@dataclass(frozen=True)
class CurrentElement:
    """One current-carrying pixel: integer position plus tangent vector."""

    x: int
    y: int
    tx: float
    ty: float


@dataclass(frozen=True, eq=False)
class EdgeCurrent:
    """The full set of current elements extracted from one image.

    Elements are stored in row-major pixel order (the extraction order),
    which fixes the summation order of every force computation downstream.
    dropped counts the masked pixels build_current drops for a zero
    gradient.  The arrays are stored as read-only copies; float positions,
    complex or non-finite tangents and positions off the width x height
    grid raise ValueError.
    """

    width: int
    height: int
    xs: np.ndarray  # (n,) int64 pixel x
    ys: np.ndarray  # (n,) int64 pixel y
    tx: np.ndarray  # (n,) float64 tangent x
    ty: np.ndarray  # (n,) float64 tangent y
    dropped: int = 0

    def __post_init__(self):
        _store_grid_size(self)
        shape = (np.size(self.xs),)
        for name, dtype in (("xs", np.int64), ("ys", np.int64),
                            ("tx", np.float64), ("ty", np.float64)):
            object.__setattr__(self, name, _frozen_copy(getattr(self, name), dtype, shape, name))
        inside = (0 <= self.xs) & (self.xs < self.width) & (0 <= self.ys) & (self.ys < self.height)
        if not inside.all():
            raise ValueError(f"element positions must lie on the {self.width}x{self.height} grid")
        if not (np.isfinite(self.tx).all() and np.isfinite(self.ty).all()):
            raise ValueError("element tangents tx and ty must be finite")

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    def __iter__(self) -> Iterator[CurrentElement]:
        for i in range(len(self)):
            yield self.element(i)

    def element(self, i: int) -> CurrentElement:
        return CurrentElement(int(self.xs[i]), int(self.ys[i]),
                              float(self.tx[i]), float(self.ty[i]))


def build_current(field: VectorField, mask: EdgeMask) -> EdgeCurrent:
    """Turn masked gradient vectors into current elements.

    Rotates each gradient 90 degrees counterclockwise: (tx, ty) = (gy, -gx).
    Masked pixels whose gradient is exactly zero carry no current; they are
    dropped and tallied.  A thresholded mask keeps none of them.
    """
    if (field.width, field.height) != (mask.width, mask.height):
        raise ValueError("field and mask dimensions differ")
    k = np.flatnonzero(mask.mask & ((field.gx != 0.0) | (field.gy != 0.0)))  # row-major
    return _current(field.width, field.height, k, field.gx.ravel()[k], field.gy.ravel()[k],
                    dropped=mask.count - len(k))


def _current(width: int, height: int, k: np.ndarray, gx: np.ndarray, gy: np.ndarray,
             dropped: int = 0) -> EdgeCurrent:
    """The elements at the row-major pixel indices k, whose gradients are gx, gy, rotated."""
    ys, xs = np.divmod(k, width)
    return EdgeCurrent(width, height, xs, ys, gy, -gx, dropped=dropped)


def _least_above(cut: float, scale: float) -> int:
    """The least integer n whose correctly rounded square root, times scale, exceeds cut.

    The search starts from the floor of (cut / scale)**2, which is never
    above n for 0 <= cut / scale < 2**16: the root of every integer below
    that floor lies more than 7e-6 under cut / scale, far beyond rounding.
    """
    n = int((cut / scale) ** 2)
    while not math.sqrt(n) * scale > cut:
        n += 1
    return n


def extract_current(img: GrayImage, params: EdgeParams = EdgeParams(),
                    smooth: bool = False) -> EdgeCurrent:
    """Full pipeline: Sobel gradients, magnitude threshold, thinning, rotation.

    Equal by bytes to build_current(f, nms_mask(f, threshold_mask(f, params),
    params)) with f = sobel_field(img, smooth), the staged route, but run on
    the integer squared lengths L (see the module docstring): the threshold
    keeps the L that reach the least integer whose length beats the cut,
    thinning compares them, and only the survivors' gradients become floats.
    """
    gx, gy, scale = _gradients(img, smooth)
    w, h = img.width, img.height
    lengths = np.zeros((h + 2, w + 2), dtype=np.int32)  # L, with a border of zeros
    inner = lengths[1:-1, 1:-1]
    np.multiply(gx, gx, out=inner, dtype=np.int32)
    inner += np.multiply(gy, gy, dtype=np.int32)
    cut = _cut(params, math.sqrt(int(lengths.max())) * scale)  # lengths are sqrt(L) * scale
    k = np.flatnonzero(inner >= _least_above(cut, scale))  # each L >= 1, as the cut >= 0
    k = _thin(lengths, k, params.strict_nms)
    return _current(w, h, k, np.multiply(gx.ravel()[k], scale, dtype=np.float64),
                    np.multiply(gy.ravel()[k], scale, dtype=np.float64))


def mask_image(mask: EdgeMask) -> GrayImage:
    """Render a mask as a grayscale image, 255 on edge points."""
    return GrayImage(mask.width, mask.height,
                     np.where(mask.mask, 255, 0).astype(np.uint8))


def current_tsv(current: EdgeCurrent) -> str:
    """Tab-separated element dump, one row per element in storage order."""
    return _tsv("x y tx ty", current.xs.tolist(), current.ys.tolist(),
                current.tx.tolist(), current.ty.tolist())
