"""Sobel gradient estimation for grayscale images.

The Sobel kernels and the optional binomial blur run through one 3x3
correlation with edge replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .raster import GrayImage, _frozen_copy, _store_grid_size

# Horizontal kernel; the vertical one is its transpose.  Applied as a
# correlation, so gx is positive where intensity increases to the right
# and gy is positive where intensity increases downward (y grows down).
# Both are read-only, since every gradient reads them.
SOBEL_X = _frozen_copy([[-1, 0, 1],
                        [-2, 0, 2],
                        [-1, 0, 1]], np.float64, (3, 3), "SOBEL_X")
SOBEL_Y = SOBEL_X.T
_BINOMIAL = _frozen_copy(np.outer([1, 2, 1], [1, 2, 1]) / 16.0, np.float64, (3, 3), "_BINOMIAL")


@dataclass(frozen=True, eq=False)
class VectorField:
    """Per-pixel 2D gradient vectors on the source image grid, as read-only float64 copies."""

    width: int
    height: int
    gx: np.ndarray  # (height, width) float64
    gy: np.ndarray

    def __post_init__(self):
        _store_grid_size(self)
        for name in ("gx", "gy"):
            arr = _frozen_copy(getattr(self, name), np.float64, (self.height, self.width), name)
            object.__setattr__(self, name, arr)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """Euclidean vector length per pixel; zero exactly where gx == gy == 0."""
        return _frozen_copy(np.hypot(self.gx, self.gy), np.float64, self.gx.shape, "magnitude")


def _correlate3(f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """3x3 correlation of f with kernel over f's edge-replicated border.

    Every weight and input is a multiple of 1/16 below 2**53, so the sum over
    the non-zero weights is exact in any order.
    """
    p = np.pad(f, 1, mode="edge")
    h, w = f.shape
    return sum(kernel[i, j] * p[i:i + h, j:j + w] for i, j in zip(*np.nonzero(kernel)))


def sobel_field(img: GrayImage, smooth: bool = False) -> VectorField:
    """Estimate the intensity gradient of every pixel with 3x3 Sobel kernels.

    Border pixels see the image extended by edge replication.  When smooth
    is set, a 3x3 binomial blur runs first (off by default).
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image must be at least 3x3 for Sobel, got {img.width}x{img.height}")
    f = img.pixels.astype(np.float64)
    if smooth:
        f = _correlate3(f, _BINOMIAL)
    return VectorField(img.width, img.height, _correlate3(f, SOBEL_X), _correlate3(f, SOBEL_Y))
