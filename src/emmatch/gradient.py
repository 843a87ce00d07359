"""Sobel gradient estimation for grayscale images.

The Sobel kernels and the optional binomial blur are separable: each runs
through one 3x3 correlation, a 3-tap pass along rows and then one along
columns, over the image's edge-replicated border, which slicing fills.
The passes run in integers: 8-bit pixels give integral gradients, and the
blur is carried as 16 times its value until the gradient is scaled back,
so every value equals the float64 correlation's.

A gradient's length is sqrt(gx^2 + gy^2).  Image gradients are multiples of
1/16 of magnitude at most 1020, so the squares add up exactly and each
length is correctly rounded: equal squared lengths give equal lengths,
which the thinning's comparisons rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .raster import GrayImage, _frozen_copy, _store_grid_size

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
    magnitude: np.ndarray = field(init=False, repr=False)

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
    """f as int32 with a one-pixel border that repeats its edge, as np.pad's "edge" mode."""
    h, w = f.shape
    p = np.empty((h + 2, w + 2), dtype=np.int32)
    p[1:-1, 1:-1] = f
    p[0, 1:-1], p[-1, 1:-1] = f[0], f[-1]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    return p


def sobel_field(img: GrayImage, smooth: bool = False) -> VectorField:
    """Estimate the intensity gradient of every pixel with 3x3 Sobel kernels.

    Border pixels see the image extended by edge replication.  When smooth
    is set, a 3x3 binomial blur runs first (off by default).
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image must be at least 3x3 for Sobel, got {img.width}x{img.height}")
    p = _edge_padded(img.pixels)
    if smooth:
        p = _edge_padded(_correlate3(p, _SMOOTH, _SMOOTH))  # 16 times the blur, at most 4080
    gx, gy = _correlate3(p, _SMOOTH, _DIFF), _correlate3(p, _DIFF, _SMOOTH)
    if smooth:  # sixteenths, exact in float64
        gx, gy = gx / 16.0, gy / 16.0
    return VectorField(img.width, img.height, gx, gy)
