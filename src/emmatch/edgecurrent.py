"""Edge extraction and conversion of edge gradients into a virtual current.

An edge pixel with gradient (gx, gy) carries a tangential current vector
(tx, ty) = (gy, -gx), the gradient rotated a quarter turn counterclockwise.
The rotation keeps the magnitude, so strong edges carry strong currents.
Thinning and building a current read only the pixels a mask keeps, by
their row-major indices, rather than comparing whole images.

extract_current runs in integers, on the squared lengths of the int16
gradients (see gradient), and makes no image-sized float array.  The
staged route, sobel_field's VectorField through threshold_mask, nms_mask
and build_current, is its reference: both share the thinning rule (_thin)
and the builder (_current), and give the same current byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gradient import VectorField, _gradients, sobel_field
from .raster import GrayImage, _frozen_copy, _store_grid_size, _tsv

# extract_current no longer calls sobel_field, but the name stays readable
# here: perfbench's tracer patches emmatch.edgecurrent.sobel_field by that name.
_REEXPORTED = (sobel_field,)


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
    return EdgeMask(field.width, field.height, m > params.threshold_pct * float(m.max()))


def nms_mask(field: VectorField, mask: EdgeMask,
             params: EdgeParams = EdgeParams()) -> EdgeMask:
    """Thin a thresholded mask by a directionless non-maximum rule.

    Each masked pixel is compared against its neighbors along four opposite
    pairs: west/east, north/south, northwest/southeast, and northeast/
    southwest.  It survives when it beats both neighbors of at least two
    pairs.  Beating means >= by default, > under strict_nms.  Neighbors
    outside the image count as magnitude zero.  Only the masked pixels are
    compared, each through flat offsets into one zero-bordered copy of the
    magnitudes.
    """
    w, h = field.width, field.height
    border = np.zeros((h + 2, w + 2))
    border[1:-1, 1:-1] = field.magnitude
    out = np.zeros(h * w, dtype=bool)
    out[_thin(border.ravel(), np.flatnonzero(mask.mask), w, params.strict_nms)] = True
    return EdgeMask(w, h, out.reshape(h, w))


def _thin(values: np.ndarray, k: np.ndarray, width: int, strict: bool) -> np.ndarray:
    """The candidates of k, row-major pixel indices, that nms_mask's rule keeps.

    values holds the compared quantity on the grid with a one-pixel border
    of zeros, flattened.
    """
    stride = width + 2
    at = k + 2 * (k // width) + (stride + 1)  # indices into values
    c = values[at]
    beats = np.greater if strict else np.greater_equal
    wins = np.zeros(len(at), dtype=np.uint8)
    for offset in (1, stride, stride + 1, stride - 1):  # W/E, N/S, NW/SE, NE/SW
        wins += beats(c, values[at - offset]) & beats(c, values[at + offset])
    return k[wins >= 2]


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
    dropped counts masked pixels discarded for having a zero gradient.  The
    arrays are stored as read-only copies; float positions, complex or
    non-finite tangents and positions off the width x height grid raise
    ValueError.
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
    dropped and tallied.
    """
    if (field.width, field.height) != (mask.width, mask.height):
        raise ValueError("field and mask dimensions differ")
    k = np.flatnonzero(mask.mask)  # row-major order
    return _current(field.width, field.height, k, field.gx.ravel()[k], field.gy.ravel()[k])


def _current(width: int, height: int, k: np.ndarray, gx: np.ndarray,
             gy: np.ndarray) -> EdgeCurrent:
    """build_current's elements at the row-major pixel indices k, whose gradients are gx, gy."""
    zero = (gx == 0.0) & (gy == 0.0)
    keep = ~zero
    ys, xs = np.divmod(k[keep], width)
    return EdgeCurrent(width, height, xs, ys, gy[keep], -gx[keep], dropped=int(zero.sum()))


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
    the integer gradients.  The squared lengths L = gx^2 + gy^2 are exact
    integers below 2**31 (at most 532,684,800, in 1/256 when smoothed), and
    distinct ones have distinct correctly rounded roots.  So a length beats
    the threshold exactly when its L reaches the least integer whose length
    does, and thinning compares the integers L as the staged route compares
    lengths; only the survivors' gradients are cast to float.
    """
    gx, gy = _gradients(img, smooth)
    w, h = img.width, img.height
    lengths = np.zeros((h + 2, w + 2), dtype=np.int32)  # L, with a border of zeros
    inner = lengths[1:-1, 1:-1]
    np.multiply(gx, gx, out=inner, dtype=np.int32)
    inner += np.multiply(gy, gy, dtype=np.int32)
    scale = 0.0625 if smooth else 1.0  # sobel_field's lengths are sqrt(L) * scale
    # threshold_mask's cut, as a Python float: its comparisons run in float64
    cut = float(params.threshold_pct * (math.sqrt(int(lengths.max())) * scale))
    k = np.flatnonzero(inner >= _least_above(cut, scale))
    k = _thin(lengths.ravel(), k, w, params.strict_nms)
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
