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
components feed the (unused by matching) z force.  Each in-plane force is
(t1y, -t1x) times the field sum L = sum Bz / |r|^3 at the first element.
Pairs closer than min_r are skipped to avoid the singularity at zero
separation.

Array evaluations share one blocked evaluator, _field_sums: for each
block of about _BLOCK_TERMS pair terms against the second current's
elements it forms the Bz numerators and guarded |r|^3 and sums the field,
and given the first elements' tangents, their z terms from the same |r|^3
too.  Each evaluation blocks in buffers of its own, allocated per call,
so evaluations may nest and threads run side by side.  _field_sums alone
keeps close pairs out, by one rule: where h < min_r, every r^2 below
min_r^2 becomes +inf before the cube, so that pair's terms divide to +-0
and add nothing; where h >= min_r no pair is close.
pair_force is the scalar reference for one pair, and force_map, which
weighs the field at each shift's points in turn, the reference for the
map.  Sums run in element storage order, and one shift's sums over the
first current's elements run through _fold, so repeated evaluations are
bit-identical, and total_force, force_map and lattice cells agree bit for
bit at integer shifts.

Map shifts and element positions are integers, so every shifted element of
the first current lands on one small lattice of points; _FieldLattice holds
the second current's field there, evaluating a point when a cell first
needs it, once for each element on it, and an extracted current has one
per pixel.  force_map_fast runs a fill step over the whole lattice, a run of
rows at a time, then a window step that adds each first element's weighted
window to every cell; match_images walks the lattice and fills only the
points its path reaches, so its forces equal the fast map's bit for bit.
A walk cell's fixed cost is kept to a few array calls: the lattice sets up
its points and weights once, and a cell adds its shift to the points, fills
the missing ones, and weighs and folds its values.  Every map also carries,
per cell, the gross sum G of the magnitudes its force summed, which sets
the scale of its rounding residue.

The evaluator's first step, r^2 - h^2 and the Bz numerators, has two
forms; the rest is shared.  The direct form subtracts coordinates
elementwise.  The product form, which the lattice uses, computes both as
two small matrix products, X^2 + Y^2 - 2 X x - 2 Y y + (x^2 + y^2) and
Y t2x - X t2y + (t2y x - t2x y), of point rows (X, Y, 1, X^2 + Y^2) built
once per evaluation; an integer h^2 below 2**50 joins the constant
x^2 + y^2, which saves the pass that adds it to every term.  With
integer points and positions within 2**24 and tangents that are multiples
of 1/16 within 2**20, as every image current's are, each product and
partial sum is exact, so every lattice value equals the direct form's;
only a zero may change sign, which the lattice's folds from +0.0, window
sums and |L| all ignore.  A lattice outside these bounds, and every other
evaluation (bz_at, force_on_element, total_force, force_map), runs the
direct form.

Finite inputs can still overflow a sum.  The public evaluations run with
numpy's overflow and invalid-value warnings off, and report a sum that is
not finite with ValueError instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edgecurrent import CurrentElement, EdgeCurrent, EmptyCurrentError
from .raster import _frozen_copy, _grid_cell, _grid_origin, _store_grid_origin, _tsv


@dataclass(frozen=True)
class Vec2:
    """A planar vector in screen coordinates: a shift, or a force's in-plane part."""

    x: float
    y: float


@dataclass(frozen=True)
class Vec3:
    """A force: x and y in screen coordinates, z along the planes' vertical separation h."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class ForceParams:
    """Physics constants for force evaluation.

    strength is the overall force scale (it absorbs all physical unit
    constants); height_px separates the two current planes vertically;
    pairs closer than min_r contribute exactly zero: the evaluations give
    such a pair an infinite r^2.  A numerator that overflows still makes
    the sum not finite, wherever its pair lies.  All three must be finite,
    strength and min_r positive, and min_r's square nonzero, since the
    close-pair rule compares against it; anything else raises ValueError.
    A whole number past float's range counts as not finite.
    """

    strength: float = 1.0
    height_px: float = 0.0
    min_r: float = 1e-9

    def __post_init__(self):
        for name in ("strength", "height_px", "min_r"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # a whole number past float's range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")
        if self.strength <= 0.0:
            raise ValueError(f"strength must be positive, got {self.strength}")
        if self.height_px < 0.0:
            raise ValueError(f"height_px must be nonnegative, got {self.height_px}")
        if self.min_r <= 0.0:
            raise ValueError(f"min_r must be positive, got {self.min_r}")
        if self.min_r * self.min_r == 0.0:  # the squared cutoff the kernels compare
            raise ValueError(f"min_r must have a nonzero square, got {self.min_r}")


def _scaled(values, strength: float) -> np.ndarray:
    """values times strength; ValueError unless every product is finite.

    The error names the force sum when a value is already not finite, and
    the strength only when the scaling overflows.
    """
    if not np.isfinite(values).all():
        raise ValueError("force sum is not finite")
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

    g, when given, holds per cell the gross sum G of the magnitudes that
    cell's force summed, at the same scale as fx and fy; walks then treat a
    force with |F| <= 1e-12 * G as balanced, since it is rounding residue of
    that sum.  The maps force_map and force_map_fast build carry g.  A map
    made from forces alone has g None and keeps the absolute cutoff.  g must
    be finite and nonnegative in every cell.
    """

    width: int
    height: int
    ox: int
    oy: int
    fx: np.ndarray  # (height, width) float64
    fy: np.ndarray
    g: np.ndarray | None = None

    def __post_init__(self):
        _store_grid_origin(self)
        for name in ("fx", "fy", "g"):
            value = getattr(self, name)
            if name == "g" and value is None:
                continue
            arr = _frozen_copy(value, np.float64, (self.height, self.width), name)
            if not np.isfinite(arr).all():
                raise ValueError(f"force map {name} is not finite in every cell")
            object.__setattr__(self, name, arr)
        if self.g is not None and (self.g < 0.0).any():
            raise ValueError("force map g is negative in some cell")

    @property
    def origin(self) -> tuple[int, int]:
        return (self.ox, self.oy)

    def scaled(self, factor: float) -> ForceMap:
        """This map with every force multiplied by factor.

        G, a sum of magnitudes, is multiplied by abs(factor).
        """
        g = None if self.g is None else _scaled(self.g, abs(factor))
        return ForceMap(self.width, self.height, self.ox, self.oy,
                        _scaled(self.fx, factor), _scaled(self.fy, factor), g)

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


# The evaluations' numpy error state: an overflowing sum is reported by the
# finite check that follows it, not by a warning.
_UNCHECKED = dict(over="ignore", invalid="ignore")

# Pair terms per block of _field_sums, so that a walk step's new points fit
# in a few blocks.  Peak RSS bounds the size, as a call's buffers take 33
# bytes a term: in perfbench's match_walk runs, peak RSS read 37.4-37.6 MiB
# at 16,384-term blocks and 37.8-37.9 MiB at 32,768.
_BLOCK_TERMS = 1 << 14

# Bounds under which the product form of _field_sums is exact: integer
# positions of magnitude at most _EXACT_COORD, and tangents that are multiples
# of _EXACT_QUANTUM of magnitude at most _EXACT_TANGENT.  Every product and
# partial sum is then exact, in either form and in any order: those of r^2,
# with an integer h^2 below _EXACT_H2 or without h^2, are integers below
# 2**53, those of the Bz numerator multiples of 1/16 below 2**47.  Image
# tangents qualify: edgecurrent._gradients gives integral Sobel gradients of
# 8-bit pixels, in sixteenths when the binomial blur runs.
_EXACT_COORD = 2.0 ** 24
_EXACT_TANGENT = 2.0 ** 20
_EXACT_QUANTUM = 1.0 / 16.0
_EXACT_H2 = 2.0 ** 50


def _is_exact(values, bound: float, quantum: float) -> bool:
    """Whether every value is a multiple of quantum of magnitude at most bound."""
    magnitudes = np.abs(values, dtype=np.float64)
    if not np.maximum.reduce(magnitudes, axis=None, initial=0.0) <= bound:  # nan fails too
        return False
    units = magnitudes / quantum
    return bool((units == np.floor(units)).all())


def _product_operands(c2: EdgeCurrent, height_px: float):
    """c2's element rows of the product form and the h^2 they hold, or None where not exact.

    Points (X, Y, 1, X^2 + Y^2) times the first rows give X^2 + Y^2 - 2 X x
    - 2 Y y + (x^2 + y^2 + h2), which is r^2 where h2, the third item, is
    height_px^2: the rows hold h^2 where it is an integer below _EXACT_H2,
    and h2 is 0.0 otherwise.  (X, Y, 1) times the second rows give the Bz
    numerator Y t2x - X t2y + (t2y x - t2x y).
    """
    # Positions are integers on the grid, so within _EXACT_COORD where its sides are.
    if not (max(c2.width, c2.height) - 1 <= _EXACT_COORD
            and _is_exact((c2.tx, c2.ty), _EXACT_TANGENT, _EXACT_QUANTUM)):
        return None
    x, y = c2.xs.astype(np.float64), c2.ys.astype(np.float64)
    h2 = height_px * height_px
    if not (h2 < _EXACT_H2 and h2 == math.floor(h2)):
        h2 = 0.0
    return (np.array((-2.0 * x, -2.0 * y, x * x + y * y + h2, np.ones_like(x))),
            np.array((-c2.ty, c2.tx, c2.ty * x - c2.tx * y)), h2)


def _row_sums(num: np.ndarray, r3: np.ndarray, out: np.ndarray) -> None:
    """Row sums of num / r3 into out; num is overwritten."""
    num /= r3
    np.add.reduce(num, axis=1, out=out)


def _fold(terms: np.ndarray) -> list[float]:
    """Sums of each row of terms, added left to right from +0.0, as floats.

    np.add.accumulate adds each row left to right from its first term.
    That running total differs from one started at +0.0 only while every
    term so far is -0.0, and adding +0.0 to the last one turns just -0.0
    into +0.0, so each sum is exactly what a running float total from +0.0
    gives.
    """
    if not terms.shape[1]:
        return [0.0] * len(terms)
    return [s + 0.0 for s in np.add.accumulate(terms, axis=1)[:, -1].tolist()]


def _weights(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Weights (t1y, -t1x, |t1y| + |t1x|) of fx, fy and G on each element's vertical field."""
    return np.array((ty, -tx, np.abs(ty) + np.abs(tx)), dtype=np.float64)


def _weighed_sums(weights: np.ndarray, values: np.ndarray) -> list[float]:
    """Unscaled fx, fy and G, by _fold, of elements with these _weights on field values."""
    terms = weights * values
    np.abs(terms[2], out=terms[2])  # |w L| = w |L|, as w >= 0
    return _fold(terms)


def _field_sums(c2: EdgeCurrent, px: np.ndarray, py: np.ndarray, params: ForceParams,
                operands=None, t1=None) -> np.ndarray:
    """Vertical field of c2 without the strength factor at each point (px[i], py[i]).

    Sums Bz / |r|^3 over c2's elements in storage order, a block of about
    _BLOCK_TERMS pair terms at a time in buffers this call allocates, so
    evaluations may nest and threads run side by side.  Where h < min_r,
    each r^2 below min_r^2 becomes +inf before the cube, so a close pair's
    terms are +-0, and not finite only where a numerator overflows, as at
    any distance.  operands, when given, are c2's _product_operands for
    params.height_px or for height 0, and every point must then be an
    integer within _EXACT_COORD: r^2 and the numerators come from two
    matrix products of the points' rows (X, Y, 1, X^2 + Y^2), built once
    per call, equal to the direct differences except that a zero numerator
    may take the other sign.

    t1 = (txs, tys), when given, are the tangents of elements at the
    points, and the result is then their (3, n) force sums instead: column
    i holds the field at point i weighed by (t1y, -t1x), and the sum of
    its z pair terms, from the same blocks' |r|^3.
    """
    m = len(c2)
    step = max(1, _BLOCK_TERMS // max(m, 1))
    # One fixed shape whatever the form and h, so that the allocator reuses the memory.
    r3, root, num, square = np.empty((4, min(step, len(px)), m))
    close = np.empty(r3.shape, dtype=bool)
    h2, cut = params.height_px * params.height_px, params.min_r * params.min_r
    add_h2 = h2 and not (operands is not None and operands[2] == h2)  # the rows lack h^2
    if operands is None:
        xs, ys = c2.xs.astype(np.float64), c2.ys.astype(np.float64)
    else:  # the points' rows (X, Y, 1, X^2 + Y^2) of the product form
        points = np.empty((len(px), 4))
        points[:, 0], points[:, 1], points[:, 2] = px, py, 1.0
        np.multiply(px, px, out=points[:, 3])
        points[:, 3] += py * py
    out = np.empty((1 if t1 is None else 3, len(px)), dtype=np.float64)
    if t1 is not None:
        txs, tys = t1
        bx, by = c2.ty * params.height_px, -(c2.tx) * params.height_px
    for i in range(0, len(px), step):
        b = slice(i, i + step)
        k = min(step, len(px) - i)
        r3k, numk, rootk = r3[:k], num[:k], root[:k]
        if operands is None:
            x, y = px[b], py[b]
            dx = np.subtract(x[:, None], xs, out=rootk)
            dy = np.subtract(y[:, None], ys, out=numk)
            np.multiply(dx, dx, out=r3k)
            r3k += np.multiply(dy, dy, out=square[:k])
            dy *= c2.tx
            dy -= np.multiply(dx, c2.ty, out=dx)  # Bz = t2x * dy - t2y * dx
        else:
            np.matmul(points[b], operands[0], out=r3k)
            np.matmul(points[b, :3], operands[1], out=numk)
        if add_h2:
            r3k += h2  # r^2, cubed in place below
        if h2 < cut:  # a close pair's r^2 becomes +inf
            np.copyto(r3k, np.inf, where=np.less(r3k, cut, out=close[:k]))
        r3k *= np.sqrt(r3k, out=rootk)
        _row_sums(numk, r3k, out[0, b])
        if t1 is not None:  # z terms t1x By - t1y Bx, in the buffers that Bz and the root free
            fz = np.multiply(txs[b, None], by, out=numk)
            fz -= np.multiply(tys[b, None], bx, out=rootk)
            _row_sums(fz, r3k, out[2, b])
    if t1 is None:
        return out[0]
    out[:2] = _weights(txs, tys)[:2] * out[0]
    return out


@np.errstate(**_UNCHECKED)
def force_on_element(t1: CurrentElement, c2: EdgeCurrent, shift1: Vec2,
                     params: ForceParams = ForceParams()) -> Vec3:
    """Total force of current c2 on one element t1 shifted by shift1.

    x and y are (t1y, -t1x) times the field bz_at gives there at unit
    strength; z sums pair_force's z terms over c2.
    """
    f = _field_sums(c2, np.array([t1.x + shift1.x]), np.array([t1.y + shift1.y]), params,
                    t1=(np.array([t1.tx]), np.array([t1.ty])))[:, 0]
    return Vec3(*map(float, _scaled(f, params.strength)))


@np.errstate(**_UNCHECKED)
def bz_at(c2: EdgeCurrent, px: float, py: float,
          params: ForceParams = ForceParams()) -> float:
    """Vertical field component of current c2 at planar point (px, py).

    The query point sits height_px above the current plane.  The in-plane
    force on an element T1 there is (t1y, -t1x) times this value.
    """
    bz = _field_sums(c2, np.array([px]), np.array([py]), params)
    return float(_scaled(bz, params.strength)[0])


@np.errstate(**_UNCHECKED)
def total_force(c1: EdgeCurrent, c2: EdgeCurrent, shift1: Vec2,
                params: ForceParams = ForceParams()) -> Vec3:
    """Whole-current force of c2 on c1 with c1 translated by shift1.

    Accumulates element contributions over c1 in storage order.  The
    strength factor multiplies the final sums once, so changing it scales
    the result without disturbing its direction, even where the components
    nearly cancel.  A scaled result that is not finite raises ValueError.
    """
    f = _fold(_field_sums(c2, c1.xs + shift1.x, c1.ys + shift1.y, params, t1=(c1.tx, c1.ty)))
    return Vec3(*map(float, _scaled(f, params.strength)))


def _summed(fmap: ForceMap, strength: float) -> ForceMap:
    """The unscaled fmap times strength, once, as in total_force; ValueError where G is all 0."""
    if not fmap.g.any():
        raise ValueError("the force model sums nothing at any shift: every element pair "
                         "lies within min_r, or its distance cubed overflows")
    return fmap.scaled(strength)


@np.errstate(**_UNCHECKED)
def force_map(c1: EdgeCurrent, c2: EdgeCurrent,
              params: ForceParams = ForceParams()) -> ForceMap:
    """Evaluate the planar total force at every integer shift of c1.

    The grid covers x in [0, W) and y in [0, H) for the source dimensions
    W x H of c2; cell (x, y) maps to shift (x - ox, y - oy) with the origin
    at (W // 2, H // 2).  Each cell, evaluated serially in row-major order,
    weighs c2's field at c1's shifted elements as a lattice cell does, so
    its fx and fy are total_force's.  ValueError when every cell's G is 0.
    """
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("force_map requires two non-empty currents")
    w, h = c2.width, c2.height
    ox, oy = _grid_origin(w, h)
    f = np.empty((3, h, w), dtype=np.float64)  # fx, fy, g
    weights = _weights(c1.tx, c1.ty)
    for y in range(h):
        for x in range(w):
            field = _field_sums(c2, c1.xs + float(x - ox), c1.ys + float(y - oy), params)
            f[:, y, x] = _weighed_sums(weights, field)
    return _summed(ForceMap(w, h, ox, oy, *f), params.strength)


class _FieldLattice:
    """c2's vertical field on every integer point a shifted c1 element reaches.

    On c2's W x H shift grid, with origin (W // 2, H // 2), element i of c1
    at cell (x, y) sits on lattice point (xs_i - min(xs) + x, ys_i - min(ys)
    + y): the lattice is c1's element box widened by the grid.  Points are
    evaluated with _field_sums into the row-major values: by cell, which
    adds its own x and y to each element's planar point at cell (0, 0),
    evaluates those not yet filled, a point once per element on it, and
    marks them in _filled; or by _fill, the whole lattice a run of rows at
    a time, which writes values only.  No point's value depends on which
    others it is evaluated with.  Without the strength factor, a cell's
    force is (sum t1y_i L_i, -sum t1x_i L_i) over its lattice values L_i,
    and its gross sum is G = sum (|t1y_i| + |t1x_i|) |L_i|, each added left
    to right in element storage order, so one cell reads the same whether
    the whole map or a single walk computes it.
    """

    @np.errstate(**_UNCHECKED)
    def __init__(self, c1: EdgeCurrent, c2: EdgeCurrent, params: ForceParams):
        self.c2, self.params = c2, params
        self.width, self.height = c2.width, c2.height
        x_lo, y_lo = int(np.minimum.reduce(c1.xs)), int(np.minimum.reduce(c1.ys))
        ox, oy = _grid_origin(self.width, self.height)
        # Planar point of lattice column 0 and row 0.
        self._x0, self._y0 = x_lo - ox, y_lo - oy
        shape = (int(np.maximum.reduce(c1.ys)) - y_lo + self.height,
                 int(np.maximum.reduce(c1.xs)) - x_lo + self.width)
        self.values = np.empty(shape, dtype=np.float64)
        self._filled = np.zeros(shape, dtype=bool)
        # Row-major lattice index of each element at cell (0, 0), and its planar
        # point x + iy there.  Cell (x, y) adds y * lattice width + x to the
        # indices and x + iy to the points, one add each.
        self._flat = (c1.ys - y_lo) * shape[1] + (c1.xs - x_lo)
        self._z = c1.xs + 1j * c1.ys - complex(ox, oy)
        # The product form where every lattice point and c2 keep it exact.
        corners = (self._x0, self._y0, self._x0 + shape[1] - 1, self._y0 + shape[0] - 1)
        self._operands = (_product_operands(c2, params.height_px)
                          if max(map(abs, corners)) <= _EXACT_COORD else None)
        self._weights = _weights(c1.tx, c1.ty)

    @np.errstate(**_UNCHECKED)
    def cell(self, x: int, y: int) -> tuple[float, float, float]:
        """Unscaled fx, fy and G of cell (x, y), filling the points it reads.

        ValueError when one of fx, fy and G is not finite.
        """
        at = self._flat + (y * self.values.shape[1] + x)
        need = ~self._filled.ravel()[at]  # ravel() views gather faster than .flat
        todo = at[need]
        if todo.size:
            z = self._z[need] + complex(x, y)
            self.values.ravel()[todo] = _field_sums(self.c2, z.real, z.imag, self.params,
                                                    self._operands)
            self._filled.ravel()[todo] = True
        fx, fy, g = _weighed_sums(self._weights, self.values.ravel()[at])
        if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(g)):
            raise ValueError(f"force at cell ({x}, {y}) is not finite")
        return fx, fy, g

    def force_map(self) -> ForceMap:
        """The unscaled map of every cell: the fill step, then the window step."""
        self._fill()
        w, h = self.width, self.height
        return ForceMap(w, h, *_grid_origin(w, h), *self._windows())

    @np.errstate(**_UNCHECKED)
    def _fill(self) -> None:
        """The fill step: evaluate every lattice point into values.

        The lattice fills in runs of whole rows, a slice of at most
        _BLOCK_TERMS / 4 points where a row is shorter, so that a run's
        points and their product form rows take about as much memory as one
        block's terms.
        """
        lh, lw = self.values.shape
        xs = np.arange(self._x0, self._x0 + lw, dtype=np.float64)
        run = max(1, _BLOCK_TERMS // 4 // lw)  # lattice rows per fill
        for r in range(0, lh, run):
            ys = np.arange(self._y0 + r, self._y0 + min(r + run, lh), dtype=np.float64)
            self.values.ravel()[r * lw:(r + len(ys)) * lw] = _field_sums(
                self.c2, np.tile(xs, len(ys)), np.repeat(ys, lw), self.params, self._operands)

    @np.errstate(**_UNCHECKED)
    def _windows(self) -> np.ndarray:
        """The window step: every cell's unscaled fx, fy and G, (3, H, W), from the filled values.

        Each element adds its weighted window of lattice values to all cells
        at once; the cells' sums run in element order, as cell()'s do.
        """
        h, w = self.height, self.width
        magnitudes = np.abs(self.values)
        f = np.zeros((3, h, w), dtype=np.float64)  # fx, fy, g
        rows, cols = np.divmod(self._flat, self.values.shape[1])
        for r, c, (wx, wy, wg) in zip(rows.tolist(), cols.tolist(), self._weights.T.tolist()):
            win = self.values[r:r + h, c:c + w]
            f[0] += wx * win
            f[1] += wy * win
            f[2] += wg * magnitudes[r:r + h, c:c + w]
        return f


def force_map_fast(c1: EdgeCurrent, c2: EdgeCurrent,
                   params: ForceParams = ForceParams()) -> ForceMap:
    """force_map through a field lattice (_FieldLattice).

    The vertical field of c2 is evaluated once per lattice point (cost
    lattice_size * len(c2)), then each map cell reduces to len(c1) lattice
    lookups instead of a fresh double sum.  Cells equal the naive map's bit
    for bit, and it refuses a map that sums nothing as force_map does.
    """
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("force_map_fast requires two non-empty currents")
    return _summed(_FieldLattice(c1, c2, params).force_map(), params.strength)


def force_map_tsv(fmap: ForceMap) -> str:
    """Tab-separated map dump, one row per cell in row-major order."""
    ys, xs = np.indices(fmap.fx.shape).reshape(2, fmap.fx.size)
    return _tsv("x y fx fy", xs, ys, fmap.fx.ravel(), fmap.fy.ravel())
