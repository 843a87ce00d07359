"""Sobel gradient estimation for grayscale images."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .raster import GrayImage, _frozen_copy

# Horizontal kernel; the vertical one is its transpose.  Applied as a
# correlation, so gx is positive where intensity increases to the right
# and gy is positive where intensity increases downward (y grows down).
SOBEL_X = np.array([[-1, 0, 1],
                    [-2, 0, 2],
                    [-1, 0, 1]], dtype=np.float64)
SOBEL_Y = SOBEL_X.T


@dataclass(frozen=True, eq=False)
class VectorField:
    """Per-pixel 2D gradient vectors on the source image grid, as read-only float64 copies."""

    width: int
    height: int
    gx: np.ndarray  # (height, width) float64
    gy: np.ndarray

    def __post_init__(self):
        for name in ("gx", "gy"):
            arr = _frozen_copy(getattr(self, name), np.float64, (self.height, self.width), name)
            object.__setattr__(self, name, arr)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """Euclidean vector length per pixel; zero exactly where gx == gy == 0."""
        return _frozen_copy(np.hypot(self.gx, self.gy), np.float64, self.gx.shape, "magnitude")


def _binomial3(f: np.ndarray) -> np.ndarray:
    """3x3 binomial blur ([1,2,1] outer [1,2,1] / 16) with replicated edges."""
    p = np.pad(f, 1, mode="edge")
    rows = (p[:-2, :] + 2.0 * p[1:-1, :] + p[2:, :]) / 4.0
    return (rows[:, :-2] + 2.0 * rows[:, 1:-1] + rows[:, 2:]) / 4.0


def sobel_field(img: GrayImage, smooth: bool = False) -> VectorField:
    """Estimate the intensity gradient of every pixel with 3x3 Sobel kernels.

    Border pixels see the image extended by edge replication.  When smooth
    is set, a 3x3 binomial blur runs first (off by default).
    """
    if img.width < 3 or img.height < 3:
        raise ValueError(f"image must be at least 3x3 for Sobel, got {img.width}x{img.height}")
    f = img.pixels.astype(np.float64)
    if smooth:
        f = _binomial3(f)
    p = np.pad(f, 1, mode="edge")
    gx = ((p[:-2, 2:] - p[:-2, :-2])
          + 2.0 * (p[1:-1, 2:] - p[1:-1, :-2])
          + (p[2:, 2:] - p[2:, :-2]))
    gy = ((p[2:, :-2] - p[:-2, :-2])
          + 2.0 * (p[2:, 1:-1] - p[:-2, 1:-1])
          + (p[2:, 2:] - p[:-2, 2:]))
    return VectorField(img.width, img.height, gx, gy)
