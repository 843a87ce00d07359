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

Array evaluations share one blocked evaluator, _terms: for each block of
about _BLOCK_TERMS pair terms it yields the Bz numerators, guarded |r|^3
and the min_r mask against the second current's elements, and the
force-row and field sums add its output.  Every evaluation blocks in the
one set of buffers its thread keeps, so no evaluation may start inside
another on the same thread.  Where h^2 >= min_r^2 no pair is closer than
min_r, and the mask is skipped; the lattice also skips it where only
coincident pairs can be closer (see _terms).  pair_force is the scalar
reference for one pair, and force_map, one total_force sum per shift, the
reference for the map.  Sums run in element storage order, so repeated
evaluations are bit-identical.

Map shifts and element positions are integers, so every shifted element of
the first current lands on one small lattice of points; _FieldLattice holds
the second current's field there, evaluating each point once, when first
needed.  force_map_fast fills the whole lattice; match_images walks it and
fills only the points its path reaches, so its forces equal the fast map's
bit for bit.  Every map also carries, per cell, the gross sum G of the
magnitudes its force summed, which sets the scale of its rounding residue.

The evaluator's first step, r^2 - h^2 and the Bz numerators, has two
forms; the rest is shared.  The direct form subtracts coordinates
elementwise.  The product form, which the lattice uses, computes both as
two small matrix products, X^2 + Y^2 - 2 X x - 2 Y y + (x^2 + y^2) and
Y t2x - X t2y + (t2y x - t2x y); an integer h^2 below 2**50 joins the
constant x^2 + y^2, which saves the pass that adds it to every term.  With
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
import threading
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
        _store_grid_size(self)
        ox, oy = _grid_cell((self.ox, self.oy), self.width, self.height, "origin")
        object.__setattr__(self, "ox", ox)
        object.__setattr__(self, "oy", oy)
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
        """This map with every force, and G, multiplied by factor."""
        g = None if self.g is None else _scaled(self.g, factor)
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

# Pair terms per block of _terms, so that a walk step's new points fit in a
# few blocks.  Peak RSS bounds the size, as a thread keeps its buffers: in
# perfbench's match_walk runs, 16,384-term blocks kept peak RSS within 0.2
# MiB of per-call 8,192-term buffers, 32,768-term blocks added 0.5-0.7 MiB.
_BLOCK_TERMS = 1 << 14
_kept = threading.local()  # .buffers: the thread's flat _term_buffers

# Bounds under which the product form of _terms is exact: integer positions
# of magnitude at most _EXACT_COORD, and tangents that are multiples of
# _EXACT_QUANTUM of magnitude at most _EXACT_TANGENT.  Every product and
# partial sum is then exact, in either form and in any order: those of r^2,
# with an integer h^2 below _EXACT_H2 or without h^2, are integers below
# 2**53, those of the Bz numerator multiples of 1/16 below 2**47.  Image
# tangents qualify: Sobel of 8-bit pixels is integral, and the binomial blur
# makes sixteenths.
_EXACT_COORD = 2.0 ** 24
_EXACT_TANGENT = 2.0 ** 20
_EXACT_QUANTUM = 1.0 / 16.0
_EXACT_H2 = 2.0 ** 50


def _is_exact(values, bound: float, quantum: float = 1.0) -> bool:
    """Whether every value is a multiple of quantum of magnitude at most bound."""
    values = np.asarray(values, dtype=np.float64)
    if not (np.abs(values) <= bound).all():
        return False
    units = values / quantum
    return bool((units == np.floor(units)).all())


def _product_operands(c2: EdgeCurrent, height_px: float = 0.0):
    """c2's element rows of the product form and the h^2 they hold, or None where not exact.

    Points (X, Y, 1, X^2 + Y^2) times the first rows give X^2 + Y^2 - 2 X x
    - 2 Y y + (x^2 + y^2 + h2), which is r^2 where h2, the third item, is
    height_px^2: the rows hold h^2 where it is an integer below _EXACT_H2,
    and h2 is 0.0 otherwise.  (X, Y, 1) times the second rows give the Bz
    numerator Y t2x - X t2y + (t2y x - t2x y).
    """
    # Positions are integers on the grid, so within _EXACT_COORD where its sides are.
    if not (max(c2.width, c2.height) - 1 <= _EXACT_COORD
            and _is_exact(np.concatenate((c2.tx, c2.ty)), _EXACT_TANGENT, _EXACT_QUANTUM)):
        return None
    x, y = c2._xf, c2._yf
    h2 = height_px * height_px
    if not (h2 < _EXACT_H2 and h2 == math.floor(h2)):
        h2 = 0.0
    return (np.stack((-2.0 * x, -2.0 * y, x * x + y * y + h2, np.ones_like(x))),
            np.stack((-c2.ty, c2.tx, c2.ty * x - c2.tx * y)), h2)


def _term_buffers(rows: int, m: int, params: ForceParams):
    """Views of the calling thread's buffers for _terms' blocks of rows points against m elements.

    Returns (r3, root, num, close, square, points): three float and one
    min_r mask (rows, m) views, the direct form's (rows, m) square, and in
    the same memory the product form's (rows, 4) points (X, Y, 1, X^2 +
    Y^2), its 1s set.  A thread keeps one set of flat buffers, allocated
    on first use for _BLOCK_TERMS pair terms and replaced, the old set
    released first, only when a block needs more than that; a block takes
    max(m, 4) terms a point, so that the points fit too.

    close is None where h^2 >= min_r^2: every pair is then at least h
    apart, in the direct and the product form alike, so none is masked.
    """
    size = rows * max(m, 4)
    kept = getattr(_kept, "buffers", None)
    if kept is None or len(kept[0]) < size:
        _kept.buffers = kept = None  # release the old set before allocating the new one
        size = max(size, _BLOCK_TERMS)
        _kept.buffers = kept = (*(np.empty(size) for _ in range(4)), np.empty(size, dtype=bool))
    r3, root, num, square, close = (a[:rows * m].reshape(rows, m) for a in kept)
    points = kept[3][:rows * 4].reshape(rows, 4)
    points[:, 2] = 1.0
    masked = params.height_px * params.height_px < params.min_r * params.min_r
    return r3, root, num, close if masked else None, square, points


def _terms(c2: EdgeCurrent, px: np.ndarray, py: np.ndarray, params: ForceParams,
           operands=None):
    """Bz numerators, guarded cubed distances and the min_r mask of c2, by blocks.

    Yields (b, num, r3, close, spare) for consecutive slices b of the query
    points (px[i], py[i]); row i of the arrays is point b.start + i against
    c2's elements in storage order.  close is None where no term needs the
    mask (see below), and spare is free for the caller to overwrite.  The
    arrays are views of the thread's _term_buffers, which the next block
    overwrites, so no evaluation may start inside another on one thread.
    operands, when given, are c2's _product_operands for params.height_px or
    for height 0, and every point must then be an integer within
    _EXACT_COORD: r^2 and the numerators come from two matrix products,
    equal to the direct differences except that a zero numerator may take
    the other sign.

    No pair is closer than min_r where h^2 >= min_r^2.  Where the operands'
    rows hold h^2, r^2 is the exact integer d^2 + h^2 of a planar distance
    d, so where also min_r^2 <= h^2 + 1 only coincident pairs are closer,
    and the product form gives each of them a numerator of +-0: at h 0 a
    floor of 1 under r^2 keeps its 0 / 0 out, and above h 0 its term is
    +-0 as it stands, where the mask makes +0.0.  Every other case masks.
    """
    m = len(c2)
    step = max(1, _BLOCK_TERMS // max(m, 4))
    r3, root, num, close, square, points = _term_buffers(min(len(px), step), m, params)
    h2, cut = params.height_px * params.height_px, params.min_r * params.min_r
    exact = operands is not None and operands[2] == h2  # the rows hold h^2
    coincident = exact and cut <= h2 + 1.0  # the only close pairs, if any
    masked, floor = h2 < cut and not coincident, coincident and h2 == 0.0
    for i in range(0, len(px), step):
        b = slice(i, i + step)
        x, y = px[b], py[b]
        k = len(x)
        r3k, numk, rootk = r3[:k], num[:k], root[:k]
        if operands is None:
            dx = np.subtract(x[:, None], c2._xf, out=rootk)
            dy = np.subtract(y[:, None], c2._yf, out=numk)
            np.multiply(dx, dx, out=r3k)
            r3k += np.multiply(dy, dy, out=square[:k])
            dy *= c2.tx
            dy -= np.multiply(dx, c2.ty, out=dx)  # Bz = t2x * dy - t2y * dx
        else:
            q = points[:k]
            q[:, 0], q[:, 1] = x, y
            np.multiply(x, x, out=q[:, 3])
            q[:, 3] += y * y
            np.matmul(q, operands[0], out=r3k)
            np.matmul(q[:, :3], operands[1], out=numk)
        if h2 and not exact:
            r3k += h2  # r^2, cubed in place below
        if floor:
            np.maximum(r3k, 1.0, out=r3k)
        closek = np.less(r3k, cut, out=close[:k]) if masked else None
        r3k *= np.sqrt(r3k, out=rootk)
        if closek is not None:
            np.copyto(r3k, 1.0, where=closek)  # placeholder, the term is zeroed later
        yield b, numk, r3k, closek, rootk


def _row_sums(num: np.ndarray, r3: np.ndarray, close, out: np.ndarray) -> None:
    """Row sums of num / r3 into out, without the close terms; num is overwritten."""
    num /= r3
    if close is not None:
        np.copyto(num, 0.0, where=close)
    np.add.reduce(num, axis=1, out=out)


def _force_rows(xs: np.ndarray, ys: np.ndarray, txs: np.ndarray, tys: np.ndarray,
                c2: EdgeCurrent, params: ForceParams) -> np.ndarray:
    """Force sums of c2 on each query element, without the strength factor.

    Column i of the (3, n) result holds the x, y and z sums over c2 in storage
    order for the element at (xs[i], ys[i]) with tangent (txs[i], tys[i]).
    """
    out = np.empty((3, len(xs)), dtype=np.float64)
    bx, by = c2.ty * params.height_px, -(c2.tx) * params.height_px
    for b, bz, r3, close, spare in _terms(c2, xs, ys, params):
        tx, ty = txs[b, None], tys[b, None]
        _row_sums(np.multiply(ty, bz, out=spare), r3, close, out[0, b])
        _row_sums(np.multiply(-tx, bz, out=spare), r3, close, out[1, b])
        fz = np.multiply(tx, by, out=bz)  # bz is no longer needed
        fz -= np.multiply(ty, bx, out=spare)
        _row_sums(fz, r3, close, out[2, b])
    return out


def _field_sums(c2: EdgeCurrent, px: np.ndarray, py: np.ndarray,
                params: ForceParams, operands=None) -> np.ndarray:
    """Vertical field of c2 without the strength factor at each point (px[i], py[i]).

    Sums _terms' blocks; operands, when given, select its product form.
    """
    out = np.empty(len(px), dtype=np.float64)
    for b, num, r3, close, _ in _terms(c2, px, py, params, operands):
        _row_sums(num, r3, close, out[b])
    return out


@np.errstate(**_UNCHECKED)
def force_on_element(t1: CurrentElement, c2: EdgeCurrent, shift1: Vec2,
                     params: ForceParams = ForceParams()) -> Vec3:
    """Total force of current c2 on one element t1 shifted by shift1.

    Equals the sum of pair_force over c2 in storage order.
    """
    f = _force_rows(np.array([t1.x + shift1.x]), np.array([t1.y + shift1.y]),
                    np.array([t1.tx]), np.array([t1.ty]), c2, params)[:, 0]
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


def _shifted_rows(c1: EdgeCurrent, c2: EdgeCurrent, shift1: Vec2,
                  params: ForceParams) -> np.ndarray:
    """_force_rows for every element of c1 translated by shift1."""
    return _force_rows(c1._xf + shift1.x, c1._yf + shift1.y, c1.tx, c1.ty, c2, params)


def _fold(terms: np.ndarray) -> np.ndarray:
    """Sums of each row of terms, added left to right from +0.0.

    This is exactly what a running float total gives; the leading zero turns
    an all -0.0 row into +0.0.
    """
    return np.cumsum(np.concatenate((np.zeros((len(terms), 1)), terms), axis=1), axis=1)[:, -1]


@np.errstate(**_UNCHECKED)
def total_force(c1: EdgeCurrent, c2: EdgeCurrent, shift1: Vec2,
                params: ForceParams = ForceParams()) -> Vec3:
    """Whole-current force of c2 on c1 with c1 translated by shift1.

    Accumulates element contributions over c1 in storage order.  The
    strength factor multiplies the final sums once, so changing it scales
    the result without disturbing its direction, even where the components
    nearly cancel.  A scaled result that is not finite raises ValueError.
    """
    f = _fold(_shifted_rows(c1, c2, shift1, params))
    return Vec3(*map(float, _scaled(f, params.strength)))


@np.errstate(**_UNCHECKED)
def force_map(c1: EdgeCurrent, c2: EdgeCurrent,
              params: ForceParams = ForceParams()) -> ForceMap:
    """Evaluate the planar total force at every integer shift of c1.

    The grid covers x in [0, W) and y in [0, H) for the source dimensions
    W x H of c2; cell (x, y) maps to shift (x - ox, y - oy) with the origin
    at (W // 2, H // 2).  Each cell is total_force's sum, evaluated in
    row-major order; its G adds the magnitudes of the x and y element sums.
    """
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("force_map requires two non-empty currents")
    w, h = c2.width, c2.height
    ox, oy = w // 2, h // 2
    f = np.empty((3, h, w), dtype=np.float64)  # fx, fy, g
    for y in range(h):
        for x in range(w):
            rows = _shifted_rows(c1, c2, Vec2(float(x - ox), float(y - oy)), params)[:2]
            f[:2, y, x] = _fold(rows)
            f[2, y, x] = np.abs(rows).sum()
    # Strength scales the final sums once, as in total_force.
    return ForceMap(w, h, ox, oy, *f).scaled(params.strength)


class _FieldLattice:
    """c2's vertical field on every integer point a shifted c1 element reaches.

    On c2's W x H shift grid, with origin (W // 2, H // 2), element i of c1
    at cell (x, y) sits on lattice point (xs_i - min(xs) + x, ys_i - min(ys)
    + y): the lattice is c1's element box widened by the grid.  A point is
    evaluated with _field_sums when a cell first needs it, and only then.
    Without the strength factor, a cell's force is (sum t1y_i L_i,
    -sum t1x_i L_i) over its lattice values L_i, and its gross sum is
    G = sum (|t1y_i| + |t1x_i|) |L_i|, each added left to right in element
    storage order, so one cell reads the same whether the whole map or a
    single walk computes it.  Cells and the whole-map fill evaluate in the
    thread's _term_buffers, as every evaluation does; cells fold in (3, n +
    1) terms the lattice owns, whose first column stays +0.0.
    """

    @np.errstate(**_UNCHECKED)
    def __init__(self, c1: EdgeCurrent, c2: EdgeCurrent, params: ForceParams):
        self.c2, self.params = c2, params
        self.width, self.height = c2.width, c2.height
        x_lo, y_lo = int(c1.xs.min()), int(c1.ys.min())
        # Planar point of lattice column 0 and row 0.
        self._x0 = x_lo - self.width // 2
        self._y0 = y_lo - self.height // 2
        # Lattice column and row of each element at cell (0, 0), its row-major
        # index, and the distinct indices: elements on one point share it.
        self._cols = c1.xs - x_lo
        self._rows = c1.ys - y_lo
        shape = (int(c1.ys.max()) - y_lo + self.height, int(c1.xs.max()) - x_lo + self.width)
        self._flat = self._rows * shape[1] + self._cols
        self._points = np.array(list(dict.fromkeys(self._flat.tolist())), dtype=np.int64)
        # Planar x and y of each distinct point at cell (0, 0); cell (x, y) adds x and y.
        rows, cols = np.divmod(self._points, shape[1])
        self._px = (self._x0 + cols).astype(np.float64)
        self._py = (self._y0 + rows).astype(np.float64)
        self.values = np.empty(shape, dtype=np.float64)
        self._filled = np.zeros(shape, dtype=bool)
        # The product form where every lattice point and c2 keep it exact.
        corners = (self._x0, self._y0, self._x0 + shape[1] - 1, self._y0 + shape[0] - 1)
        self._operands = (_product_operands(c2, params.height_px)
                          if _is_exact(corners, _EXACT_COORD) else None)
        # Per-element weights of fx, fy and G; |w * L| = w * |L| for w >= 0.
        self._weights = np.stack((c1.ty, -c1.tx, np.abs(c1.ty) + np.abs(c1.tx)))
        self._fold_terms = np.zeros((3, len(c1) + 1))

    @np.errstate(**_UNCHECKED)
    def cell(self, x: int, y: int) -> tuple[float, float, float]:
        """Unscaled fx, fy and G of cell (x, y), filling the points it reads.

        ValueError when one of them is not finite.
        """
        lw = self.values.shape[1]
        values, filled = self.values.ravel(), self._filled.ravel()  # views
        shift = y * lw + x
        points = self._points + shift
        need = ~filled[points]
        todo = points[need]
        if todo.size:
            values[todo] = _field_sums(self.c2, self._px[need] + x, self._py[need] + y,
                                       self.params, self._operands)
            filled[todo] = True
        terms = self._fold_terms[:, 1:]
        np.multiply(self._weights, values[self._flat + shift], out=terms)
        np.abs(terms[2], out=terms[2])
        # Left to right from the +0.0 column, as _fold adds.
        fx, fy, g = np.add.accumulate(self._fold_terms, axis=1)[:, -1].tolist()
        if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(g)):
            raise ValueError(f"force at cell ({x}, {y}) is not finite")
        return fx, fy, g

    @np.errstate(**_UNCHECKED)
    def force_map(self) -> ForceMap:
        """The unscaled map of every cell, from the whole lattice.

        Each element adds its weighted window of lattice values to all cells
        at once; the cells' sums run in element order, as cell()'s do.
        """
        lh, lw = self.values.shape
        xs = np.arange(self._x0, self._x0 + lw, dtype=np.float64)
        ys = np.arange(self._y0, self._y0 + lh, dtype=np.float64)
        self.values[:] = _field_sums(self.c2, np.tile(xs, lh), np.repeat(ys, lw),
                                     self.params, self._operands).reshape(lh, lw)
        self._filled[:] = True
        h, w = self.height, self.width
        magnitudes = np.abs(self.values)
        f = np.zeros((3, h, w), dtype=np.float64)  # fx, fy, g
        for r, c, (wx, wy, wg) in zip(self._rows.tolist(), self._cols.tolist(),
                                      self._weights.T.tolist()):
            win = self.values[r:r + h, c:c + w]
            f[0] += wx * win
            f[1] += wy * win
            f[2] += wg * magnitudes[r:r + h, c:c + w]
        return ForceMap(w, h, w // 2, h // 2, *f)


def force_map_fast(c1: EdgeCurrent, c2: EdgeCurrent,
                   params: ForceParams = ForceParams()) -> ForceMap:
    """force_map through a field lattice (_FieldLattice).

    The vertical field of c2 is evaluated once per lattice point (cost
    lattice_size * len(c2)), then each map cell reduces to len(c1) lattice
    lookups instead of a fresh double sum.  Cells match the naive map up to
    floating-point regrouping.  ValueError when every cell's G is 0, so that
    no cell has a force: at every shift, every element pair lies within
    min_r, or its distance cubed overflows.
    """
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("force_map_fast requires two non-empty currents")
    fmap = _FieldLattice(c1, c2, params).force_map()
    if not fmap.g.any():
        raise ValueError("the force model sums nothing at any shift: every element pair "
                         "lies within min_r, or its distance cubed overflows")
    # Strength scales the final sums once, as in total_force.
    return fmap.scaled(params.strength)


def force_map_tsv(fmap: ForceMap) -> str:
    """Tab-separated map dump, one row per cell in row-major order."""
    ys, xs = np.indices(fmap.fx.shape).reshape(2, -1).tolist()
    return _tsv("x y fx fy", xs, ys, fmap.fx.ravel().tolist(), fmap.fy.ravel().tolist())
