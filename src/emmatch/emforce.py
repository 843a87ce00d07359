"""Simulated magnetic forces between two edge currents.

Every element of the first current feels the field of every element of the
second.  For elements with tangents T1, T2, planar separation d = (dx, dy)
and vertical separation h (the first current floats h pixels above the
second), the field contribution of the second element at the first is

    B = (T2 x r) / |r|^3          with r = (dx, dy, h),

and the force on the first element is strength * T1 x B.  Expanded:

    Bz = t2x * dy - t2y * dx,  Bx = t2y * h,  By = -t2x * h
    F  = (t1y * Bz, -t1x * Bz, t1x * By - t1y * Bx) / |r|^3 * strength

Only the z component of B moves points in the image plane; the x and y
components feed the (unused by matching) z force.  Pairs closer than min_r
are skipped to avoid the singularity at zero separation.

Array evaluations share one in-place kernel (Bz, guarded |r|^3, min_r mask)
under blocked force-row and field sums.  pair_force is the scalar reference
for one pair, and force_map, one total_force call per shift, the reference for
the map.  Sums run in element storage order, so repeated evaluations are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edgecurrent import CurrentElement, EdgeCurrent, EmptyCurrentError
from .raster import _frozen_copy, _grid_cell, _store_grid_size, _tsv


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ForceParams:
    """Physics constants for force evaluation.

    strength is the overall force scale (it absorbs all physical unit
    constants); height_px separates the two current planes vertically;
    pairs closer than min_r contribute exactly zero.
    """

    strength: float = 1.0
    height_px: float = 0.0
    min_r: float = 1e-9

    def __post_init__(self):
        for name in ("strength", "height_px", "min_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.strength <= 0.0:
            raise ValueError(f"strength must be positive, got {self.strength}")
        if self.height_px < 0.0:
            raise ValueError(f"height_px must be nonnegative, got {self.height_px}")
        if self.min_r <= 0.0:
            raise ValueError(f"min_r must be positive, got {self.min_r}")
        if self.min_r * self.min_r == 0.0:  # the squared cutoff the kernels compare
            raise ValueError(f"min_r must have a nonzero square, got {self.min_r}")


def _scaled(values, strength: float) -> np.ndarray:
    """values times strength; ValueError unless every product is finite."""
    with np.errstate(over="ignore"):
        out = np.multiply(values, strength)
    if not np.isfinite(out).all():
        raise ValueError(f"force is not finite at strength {strength!r}")
    return out


@dataclass(frozen=True, eq=False)
class ForceMap:
    """Planar total force for every integer shift of the first current.

    Cell (x, y) holds the in-plane force at shift (x - ox, y - oy); the
    origin cell (ox, oy), an integer cell on the grid, is the zero-shift
    configuration.  fx and fy are stored as read-only float64 copies, and
    every cell must be finite.
    """

    width: int
    height: int
    ox: int
    oy: int
    fx: np.ndarray  # (height, width) float64
    fy: np.ndarray

    def __post_init__(self):
        _store_grid_size(self)
        ox, oy = _grid_cell((self.ox, self.oy), self.width, self.height, "origin")
        object.__setattr__(self, "ox", ox)
        object.__setattr__(self, "oy", oy)
        for name in ("fx", "fy"):
            arr = _frozen_copy(getattr(self, name), np.float64, (self.height, self.width), name)
            if not np.isfinite(arr).all():
                raise ValueError(f"force map {name} is not finite in every cell")
            object.__setattr__(self, name, arr)

    @property
    def origin(self) -> tuple[int, int]:
        return (self.ox, self.oy)

    def scaled(self, factor: float) -> ForceMap:
        """This map with every force multiplied by factor."""
        return ForceMap(self.width, self.height, self.ox, self.oy,
                        _scaled(self.fx, factor), _scaled(self.fy, factor))

    def cell(self, x: int, y: int) -> Vec2:
        x, y = _grid_cell((x, y), self.width, self.height, "cell")
        return Vec2(float(self.fx[y, x]), float(self.fy[y, x]))


def pair_force(t1: CurrentElement, t2: CurrentElement, shift1: Vec2,
               params: ForceParams = ForceParams()) -> Vec3:
    """Force of a single element t2 on a single element t1 shifted by shift1."""
    dx = (t1.x + shift1.x) - t2.x
    dy = (t1.y + shift1.y) - t2.y
    h = params.height_px
    r2 = dx * dx + dy * dy + h * h
    if r2 < params.min_r * params.min_r:
        return Vec3(0.0, 0.0, 0.0)
    r3 = r2 * math.sqrt(r2)
    bz = t2.tx * dy - t2.ty * dx
    bx = t2.ty * h
    by = -t2.tx * h
    a = params.strength
    return Vec3((t1.ty * bz) / r3 * a,
                (-(t1.tx * bz)) / r3 * a,
                (t1.tx * by - t1.ty * bx) / r3 * a)


# Pair terms per block of the sums below.  With the in-place kernel a block's
# few 64 KiB arrays stay below glibc's heap trim threshold, so no block faults
# memory back in; smaller blocks slow the field lattice (1.3x at 4096).
_BLOCK_TERMS = 1 << 13


def _field_terms(c2: EdgeCurrent, px, py, params: ForceParams):
    """Bz numerators, guarded cubed distances and the min_r mask of c2.

    Query coordinates px, py broadcast against c2's element axis, the last.
    """
    dx = px - c2._xf
    dy = py - c2._yf
    r3 = dx * dx
    r3 += dy * dy
    r3 += params.height_px * params.height_px  # r2, cubed in place below
    close = r3 < params.min_r * params.min_r
    r3 *= np.sqrt(r3)
    np.copyto(r3, 1.0, where=close)  # placeholder, the term is zeroed later
    dy *= c2.tx
    dy -= np.multiply(dx, c2.ty, out=dx)  # Bz = t2x * dy - t2y * dx
    return dy, r3, close


def _row_sums(num: np.ndarray, r3: np.ndarray, close: np.ndarray) -> np.ndarray:
    """Row sums of num / r3 without the close terms; num is overwritten."""
    num /= r3
    np.copyto(num, 0.0, where=close)
    return np.sum(num, axis=1)


def _blocks(n_rows: int, c2: EdgeCurrent):
    """Row slices of about _BLOCK_TERMS pair terms against c2's elements."""
    step = max(1, _BLOCK_TERMS // max(1, len(c2)))
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _force_rows(xs: np.ndarray, ys: np.ndarray, txs: np.ndarray, tys: np.ndarray,
                c2: EdgeCurrent, params: ForceParams) -> np.ndarray:
    """Force sums of c2 on each query element, without the strength factor.

    Column i of the (3, n) result holds the x, y and z sums over c2 in storage
    order for the element at (xs[i], ys[i]) with tangent (txs[i], tys[i]).
    """
    out = np.empty((3, len(xs)), dtype=np.float64)
    bx, by = c2.ty * params.height_px, -(c2.tx) * params.height_px
    for b in _blocks(len(xs), c2):
        bz, r3, close = _field_terms(c2, xs[b, None], ys[b, None], params)
        out[0, b] = _row_sums(tys[b, None] * bz, r3, close)
        out[1, b] = _row_sums(-(txs[b, None]) * bz, r3, close)
        fz = np.multiply(txs[b, None], by, out=bz)  # bz is no longer needed
        fz -= tys[b, None] * bx
        out[2, b] = _row_sums(fz, r3, close)
    return out


def _field_sums(c2: EdgeCurrent, px: np.ndarray, py: np.ndarray,
                params: ForceParams) -> np.ndarray:
    """Vertical field of c2 without the strength factor at each point (px[i], py[i])."""
    out = np.empty(len(px), dtype=np.float64)
    for b in _blocks(len(px), c2):
        out[b] = _row_sums(*_field_terms(c2, px[b, None], py[b, None], params))
    return out


def force_on_element(t1: CurrentElement, c2: EdgeCurrent, shift1: Vec2,
                     params: ForceParams = ForceParams()) -> Vec3:
    """Total force of current c2 on one element t1 shifted by shift1.

    Equals the sum of pair_force over c2 in storage order.
    """
    f = _force_rows(np.array([t1.x + shift1.x]), np.array([t1.y + shift1.y]),
                    np.array([t1.tx]), np.array([t1.ty]), c2, params)[:, 0]
    return Vec3(*map(float, _scaled(f, params.strength)))


def bz_at(c2: EdgeCurrent, px: float, py: float,
          params: ForceParams = ForceParams()) -> float:
    """Vertical field component of current c2 at planar point (px, py).

    The query point sits height_px above the current plane.  The in-plane
    force on an element T1 there is (t1y, -t1x) times this value.
    """
    bz = _field_sums(c2, np.array([px]), np.array([py]), params)
    return float(_scaled(bz, params.strength)[0])


def total_force(c1: EdgeCurrent, c2: EdgeCurrent, shift1: Vec2,
                params: ForceParams = ForceParams()) -> Vec3:
    """Whole-current force of c2 on c1 with c1 translated by shift1.

    Accumulates element contributions over c1 in storage order.  The
    strength factor multiplies the final sums once, so changing it scales
    the result without disturbing its direction, even where the components
    nearly cancel.  A scaled result that is not finite raises ValueError.
    """
    rows = _force_rows(c1._xf + shift1.x, c1._yf + shift1.y, c1.tx, c1.ty, c2, params)
    # Fold the element sums left to right from +0.0, exactly as a running
    # float total would; the leading zero turns an all -0.0 row into +0.0.
    f = np.cumsum(np.concatenate((np.zeros((3, 1)), rows), axis=1), axis=1)[:, -1]
    return Vec3(*map(float, _scaled(f, params.strength)))


def force_map(c1: EdgeCurrent, c2: EdgeCurrent,
              params: ForceParams = ForceParams()) -> ForceMap:
    """Evaluate the planar total force at every integer shift of c1.

    The grid covers x in [0, W) and y in [0, H) for the source dimensions
    W x H of c2; cell (x, y) maps to shift (x - ox, y - oy) with the origin
    at (W // 2, H // 2).  Each cell is one total_force call, evaluated in
    row-major order.
    """
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("force_map requires two non-empty currents")
    w, h = c2.width, c2.height
    ox, oy = w // 2, h // 2
    fx = np.empty((h, w), dtype=np.float64)
    fy = np.empty((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            f = total_force(c1, c2, Vec2(float(x - ox), float(y - oy)), params)
            fx[y, x] = f.x
            fy[y, x] = f.y
    return ForceMap(w, h, ox, oy, fx, fy)


def force_map_fast(c1: EdgeCurrent, c2: EdgeCurrent,
                   params: ForceParams = ForceParams()) -> ForceMap:
    """force_map through a precomputed field lattice.

    Since map shifts and element positions are integers, every shifted c1
    element lands on a small integer lattice.  The vertical field of c2 is
    evaluated once per lattice point (cost lattice_size * len(c2)), then each
    map cell reduces to len(c1) lattice lookups instead of a fresh double
    sum.  Cells match the naive map up to floating-point regrouping.
    """
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("force_map_fast requires two non-empty currents")
    w, h = c2.width, c2.height
    ox, oy = w // 2, h // 2
    x_min = int(c1.xs.min()) - ox
    y_min = int(c1.ys.min()) - oy
    xs = np.arange(x_min, int(c1.xs.max()) + w - ox, dtype=np.float64)
    ys = np.arange(y_min, int(c1.ys.max()) + h - oy, dtype=np.float64)
    lattice = _field_sums(c2, np.tile(xs, len(ys)), np.repeat(ys, len(xs)),
                          params).reshape(len(ys), len(xs))

    fx = np.zeros((h, w), dtype=np.float64)
    fy = np.zeros((h, w), dtype=np.float64)
    for i in range(len(c1)):
        # Window of lattice values this element sees across all map shifts.
        x0 = int(c1.xs[i]) - ox - x_min
        y0 = int(c1.ys[i]) - oy - y_min
        win = lattice[y0:y0 + h, x0:x0 + w]
        fx += float(c1.ty[i]) * win
        fy += (-float(c1.tx[i])) * win
    # Strength scales the final sums once, as in total_force.
    return ForceMap(w, h, ox, oy, fx, fy).scaled(params.strength)


def force_map_tsv(fmap: ForceMap) -> str:
    """Tab-separated map dump, one row per cell in row-major order."""
    ys, xs = np.indices(fmap.fx.shape).reshape(2, -1).tolist()
    return _tsv("x y fx fy", xs, ys, fmap.fx.ravel().tolist(), fmap.fy.ravel().tolist())
