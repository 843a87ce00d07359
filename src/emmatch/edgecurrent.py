"""Edge extraction and conversion of edge gradients into a virtual current.

An edge pixel with gradient (gx, gy) carries a tangential current vector
(tx, ty) = (gy, -gx), the gradient rotated a quarter turn counterclockwise.
The rotation keeps the magnitude, so strong edges carry strong currents.
Thinning and building a current read only the pixels a mask keeps, by
their row-major indices, rather than comparing whole images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .gradient import VectorField, sobel_field
from .raster import GrayImage, _frozen_copy, _store_grid_size, _tsv


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
    cut = params.threshold_pct * float(m.max()) if m.size else 0.0
    return EdgeMask(field.width, field.height, m > cut)


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
    stride = w + 2
    border = np.zeros((h + 2, stride))
    border[1:-1, 1:-1] = field.magnitude
    flat = border.ravel()
    k = np.flatnonzero(mask.mask)  # row-major candidate indices
    at = k + 2 * (k // w) + (stride + 1)  # and their indices into flat
    c = flat[at]
    beats = np.greater if params.strict_nms else np.greater_equal
    wins = np.zeros(len(at), dtype=np.uint8)
    for offset in (1, stride, stride + 1, stride - 1):  # W/E, N/S, NW/SE, NE/SW
        wins += beats(c, flat[at - offset]) & beats(c, flat[at + offset])
    out = np.zeros(h * w, dtype=bool)
    out[k[wins >= 2]] = True
    return EdgeMask(w, h, out.reshape(h, w))


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
    gx = field.gx.ravel()[k]
    gy = field.gy.ravel()[k]
    zero = (gx == 0.0) & (gy == 0.0)
    keep = ~zero
    ys, xs = np.divmod(k[keep], field.width)
    return EdgeCurrent(field.width, field.height, xs, ys,
                       gy[keep], -gx[keep], dropped=int(zero.sum()))


def extract_current(img: GrayImage, params: EdgeParams = EdgeParams(),
                    smooth: bool = False) -> EdgeCurrent:
    """Full pipeline: Sobel field, magnitude threshold, thinning, rotation."""
    f = sobel_field(img, smooth=smooth)
    return build_current(f, nms_mask(f, threshold_mask(f, params), params))


def mask_image(mask: EdgeMask) -> GrayImage:
    """Render a mask as a grayscale image, 255 on edge points."""
    return GrayImage(mask.width, mask.height,
                     np.where(mask.mask, 255, 0).astype(np.uint8))


def current_tsv(current: EdgeCurrent) -> str:
    """Tab-separated element dump, one row per element in storage order."""
    return _tsv("x y tx ty", current.xs.tolist(), current.ys.tolist(),
                current.tx.tolist(), current.ty.tolist())
