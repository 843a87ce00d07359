"""Sobel gradient estimation for grayscale images.

The Sobel kernels and the optional binomial blur are separable: each runs
through one 3x3 correlation, a 3-tap pass along rows and then one along
columns, over the image's edge-replicated border.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .raster import GrayImage, _frozen_copy, _store_grid_size

# The 3-tap factors of the kernels: a smoothing and a central difference,
# and the blur's binomial weights.
_SMOOTH = (1.0, 2.0, 1.0)
_DIFF = (-1.0, 0.0, 1.0)
_BLUR = (0.25, 0.5, 0.25)

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

    magnitude is each vector's Euclidean length, zero exactly where
    gx == gy == 0.  Every vector and its length must be finite.
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
            length = np.hypot(self.gx, self.gy)
        if not np.isfinite(length).all():
            raise ValueError("gradient vectors and their lengths must be finite")
        object.__setattr__(self, "magnitude",
                           _frozen_copy(length, np.float64, length.shape, "magnitude"))


def _taps(a: np.ndarray, b: np.ndarray, c: np.ndarray, taps) -> np.ndarray:
    """taps[0] a + taps[1] b + taps[2] c, for outer taps equal or opposite."""
    left, middle, right = taps
    total = np.add(a, c) if left == right else np.subtract(c, a)
    if right != 1.0:
        total *= right
    if middle:
        total += middle * b
    return total


def _correlate3(p: np.ndarray, col, row) -> np.ndarray:
    """3x3 correlation with kernel outer(col, row) of the image that p pads.

    p is the image with a one-pixel border (np.pad's "edge" mode); the row
    taps run along x, then the col taps along y.  Every weight and input is
    a multiple of 1/16 below 2**53, so every partial sum is exact, and the
    result equals the 2-D correlation's.  Zeros agree too: pixels are never
    -0.0, and no pass makes one.
    """
    h, w = p.shape[0] - 2, p.shape[1] - 2
    across = _taps(p[:, :w], p[:, 1:w + 1], p[:, 2:], row)
    return _taps(across[:h], across[1:h + 1], across[2:], col)


def sobel_field(img: GrayImage, smooth: bool = False) -> VectorField:
    """Estimate the intensity gradient of every pixel with 3x3 Sobel kernels.

    Border pixels see the image extended by edge replication.  When smooth
    is set, a 3x3 binomial blur runs first (off by default).
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image must be at least 3x3 for Sobel, got {img.width}x{img.height}")
    f = img.pixels.astype(np.float64)
    if smooth:
        f = _correlate3(np.pad(f, 1, mode="edge"), _BLUR, _BLUR)
    p = np.pad(f, 1, mode="edge")
    return VectorField(img.width, img.height, _correlate3(p, _SMOOTH, _DIFF),
                       _correlate3(p, _DIFF, _SMOOTH))
