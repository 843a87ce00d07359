"""Force-guided movement on the shift grid: classification and matching.

A planar force picks one of eight neighbor moves (or none, at balance).
One array rule, _sectors, picks the move for every cell or glyph.  A force
counts as balanced when it is rounding residue of what was summed: on a
computed map, |F| <= 1e-12 * G, where G is the cell's gross sum of
magnitudes; a map made from forces alone, or a lone vector, has no G and
keeps the absolute cutoff |F| < 1e-12.  A cell whose G is 0 summed nothing
(every pair lies within min_r, or its distance cubed overflows): it has no
force, and no balance either.

Following those moves from a start cell traces a path that ends in one of
five ways: it reaches the zero-shift origin, it oscillates around a balance
point, it walks off the grid, it reaches a cell with no force, or it hits
the step limit: its next move would close a cycle of three or more cells.
A move depends only on the cell, so the outcome is a function of the
successor graph, and classification labels every cell from that graph in
one array pass: the grid splits into a convergence basin, divergent cells,
and locally trapped cells.  Matching two images is the same walk, from
shift zero, on the field lattice of force_map_fast, filled only where the
walk goes; it equals the walk on the fast map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .edgecurrent import EdgeParams, EmptyCurrentError, extract_current
from .emforce import ForceMap, ForceParams, Vec2, _FieldLattice, total_force
from .raster import GrayImage, _frozen_copy, _grid_cell, _store_grid_origin

# Matching no longer calls total_force, but the name stays readable here:
# perfbench's tracer patches emmatch.matchmap.total_force by that name.
_REEXPORTED = (total_force,)

# Below this magnitude a force with no G (see ForceMap) counts as no force at all.
ZERO_FORCE_EPS = 1e-12

# A force with gross sum G is balanced when |F| <= BALANCE_RTOL * G.  Summing
# n terms leaves a residue of order n * 2**-53 * G (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 4), far below this for any current.
BALANCE_RTOL = 1e-12

_COS = math.cos(math.radians(22.5))
_SIN = math.sin(math.radians(22.5))


class Direction8(Enum):
    """Eight neighbor moves in screen coordinates (y grows downward)."""

    E = (1, 0)
    SE = (1, 1)
    S = (0, 1)
    SW = (-1, 1)
    W = (-1, 0)
    NW = (-1, -1)
    N = (0, -1)
    NE = (1, -1)

    @property
    def step(self) -> tuple[int, int]:
        return self.value


# Indexed by sector counted clockwise on screen from east.
_SECTORS = (Direction8.E, Direction8.SE, Direction8.S, Direction8.SW,
            Direction8.W, Direction8.NW, Direction8.N, Direction8.NE)

# _sectors' index for a (near) zero vector, after the eight of _SECTORS.
_BALANCED = 8

# Move per _sectors index; a balanced cell stays put.
_MOVES = np.array([d.step for d in _SECTORS] + [(0, 0)])


def _sectors(fx, fy, g=None):
    """Index into _SECTORS of the nearest of eight directions, or _BALANCED, per vector.

    A vector is balanced when |F| <= BALANCE_RTOL * g, or without g, when
    |F| < ZERO_FORCE_EPS.  Sectors are 45 degrees wide and half-open: east
    covers angles in [-22.5, 22.5) degrees, and a boundary angle belongs to
    the sector it opens.  The vector is rotated by 22.5 degrees, so that the
    east/southeast boundary lands on angle zero, and the octant of the
    rotated (wx, wy) is counted off the boundaries it has passed: above the
    axis (wy > 0), the count of wx <= wy, wx <= 0 and wx <= -wy; below it,
    4 plus the count of wx >= wy, wx >= 0 and wx >= -wy; on it, 0 for
    wx > 0, else 4.  The count starts at southeast, so the index is the
    count plus one, mod 8.  A vector exactly on that boundary rotates onto
    wy == 0.0 with no rounding error.  The count is comparisons and integer
    arithmetic only, so it reads arrays, as a map passes them, and Python
    floats alike.  One vector, as a walk passes it, takes a float branch
    that returns an int: its rotation is float arithmetic, which warns of
    nothing, and since |F| is at least each component's magnitude, it calls
    np.hypot, the array rule's |F|, only when neither component exceeds the
    cutoff, so that the vector may be balanced.
    """
    cut = ZERO_FORCE_EPS if g is None else BALANCE_RTOL * g
    # A vector below 2**-500 rotates 2**600 times larger: exactly, and clear of subnormal rounding.
    if isinstance(fx, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as in float arithmetic
            lift = np.where(np.maximum(np.abs(fx), np.abs(fy)) < 2.0 ** -500, 2.0 ** 600, 1.0)
            wx = lift * fx * _COS + lift * fy * _SIN
            wy = lift * fy * _COS - lift * fx * _SIN
            magnitude = np.hypot(fx, fy)
    else:
        fx, fy, cut = float(fx), float(fy), float(cut)
        lift = 2.0 ** 600 if max(abs(fx), abs(fy)) < 2.0 ** -500 else 1.0
        wx = lift * fx * _COS + lift * fy * _SIN
        wy = lift * fy * _COS - lift * fx * _SIN
        magnitude = math.inf  # |F| exceeds the cutoff where a component does
        if not (abs(fx) > cut or abs(fy) > cut):
            with np.errstate(over="ignore"):  # only an infinite g leaves |F| room to overflow
                magnitude = float(np.hypot(fx, fy))
    balanced = magnitude < cut if g is None else magnitude <= cut
    # 0 + ... counts bools as integers, also where numpy's bool + bool is a logical or.
    above = 0 + (wx <= wy) + (wx <= 0.0) + (wx <= -wy)
    below = 4 + (wx >= wy) + (wx >= 0.0) + (wx >= -wy)
    k = (wy > 0.0) * above + (wy < 0.0) * below + (wy == 0.0) * 4 * (wx <= 0.0)
    k = (k + 1) % 8
    return k + balanced * (_BALANCED - k)


def discretize8(v: Vec2) -> Direction8 | None:
    """Quantize a planar force into one of eight moves, None when balanced."""
    if not (math.isfinite(v.x) and math.isfinite(v.y)):
        raise ValueError(f"force {v} is not finite, so it has no direction")
    k = int(_sectors(v.x, v.y))
    return None if k == _BALANCED else _SECTORS[k]


class PathStatus(Enum):
    ARRIVED_AT_ORIGIN = "ArrivedAtOrigin"
    BALANCE_OSCILLATION = "BalanceOscillation"
    OUT_OF_BOUNDS = "OutOfBounds"
    STEP_LIMIT = "StepLimit"
    NO_FORCE = "NoForce"


@dataclass(frozen=True)
class PathTrace:
    """Cells visited by one walk, its outcome, and the terminal cell.

    For a balance oscillation the terminal is the oscillating cell with the
    smaller force magnitude (ties keep the earlier-visited one), which may
    differ from the last path position.  STEP_LIMIT means the next move
    would close a cycle of three or more cells; the path then holds no
    repeated cell, and the terminal is its last one.  NO_FORCE means the
    last cell, the terminal, has G = 0.
    """

    positions: tuple[tuple[int, int], ...]
    status: PathStatus
    terminal: tuple[int, int]

    @property
    def steps(self) -> int:
        return len(self.positions) - 1


def _walk(force_at: Callable[[int, int], tuple[float, float, float | None]],
          start: tuple[int, int], width: int, height: int,
          origin: tuple[int, int], stop_at_origin: bool) -> PathTrace:
    """Shared stepping engine for map walks and matching.

    force_at gives a cell's fx, fy and G (None for none).  A move depends
    only on the cell, so the walk ends at its first move onto a visited
    cell: a bounce, or a cycle of three or more cells.  Every walk therefore
    ends within width * height moves.  The walk stops on the first cell
    with G = 0; a step onto an origin with G = 0 stops there too, instead
    of arriving.
    """
    positions = [start]
    visited = {start}
    px, py = start
    fx, fy, g = force_at(px, py)
    while True:
        if g == 0.0:
            return PathTrace(tuple(positions), PathStatus.NO_FORCE, (px, py))
        k = int(_sectors(fx, fy, g))
        if k == _BALANCED:
            return PathTrace(tuple(positions), PathStatus.BALANCE_OSCILLATION, (px, py))
        dx, dy = _SECTORS[k].step
        nx, ny = px + dx, py + dy
        if not (0 <= nx < width and 0 <= ny < height):
            return PathTrace(tuple(positions), PathStatus.OUT_OF_BOUNDS, (px, py))
        if stop_at_origin and (nx, ny) == origin:
            positions.append((nx, ny))
            if force_at(nx, ny)[2] == 0.0:
                return PathTrace(tuple(positions), PathStatus.NO_FORCE, (nx, ny))
            return PathTrace(tuple(positions), PathStatus.ARRIVED_AT_ORIGIN, (nx, ny))
        if (nx, ny) in visited:
            if (nx, ny) != positions[-2]:
                return PathTrace(tuple(positions), PathStatus.STEP_LIMIT, (px, py))
            # Bounced straight back: a balance point lies between the two
            # cells.  Each was entered once, so a tie keeps the earlier one.
            positions.append((nx, ny))
            terminal = (px, py) if math.hypot(fx, fy) < math.hypot(gx, gy) else (nx, ny)
            return PathTrace(tuple(positions), PathStatus.BALANCE_OSCILLATION, terminal)
        positions.append((nx, ny))
        visited.add((nx, ny))
        px, py = nx, ny
        gx, gy = fx, fy  # force on the previous cell
        fx, fy, g = force_at(px, py)


def follow_path(fmap: ForceMap, start: tuple[int, int],
                stop_at_origin: bool = True) -> PathTrace:
    """Walk the force map from a start cell until a terminal condition.

    Each step moves to the 8-neighbor selected by the current cell's force.
    Stepping onto the origin ends the walk immediately when stop_at_origin
    is set.  A move back onto a visited cell ends it too, so every walk ends
    within width * height moves.
    """
    start = _grid_cell(start, fmap.width, fmap.height, "start")
    fx_arr, fy_arr, g_arr = fmap.fx, fmap.fy, fmap.g

    def force_at(x: int, y: int) -> tuple[float, float, float | None]:
        g = None if g_arr is None else float(g_arr[y, x])
        return float(fx_arr[y, x]), float(fy_arr[y, x]), g

    return _walk(force_at, start, fmap.width, fmap.height, fmap.origin, stop_at_origin)


class Label(Enum):
    CONVERGENCE = "Convergence"
    DIVERGENCE = "Divergence"
    LOCALLY_TRAPPED = "LocallyTrapped"


_LABEL_CODES = {Label.CONVERGENCE: 0, Label.DIVERGENCE: 1, Label.LOCALLY_TRAPPED: 2}
_CODE_LABELS = {v: k for k, v in _LABEL_CODES.items()}

# Classification rendering colors (RGB).
LABEL_COLORS = {
    Label.CONVERGENCE: (0, 0, 0),
    Label.DIVERGENCE: (255, 255, 255),
    Label.LOCALLY_TRAPPED: (128, 128, 128),
}
ORIGIN_COLOR = (64, 64, 64)


@dataclass(frozen=True, eq=False)
class ClassificationMap:
    """Per-cell path outcome for a whole force map, as a read-only copy of codes 0, 1, 2.

    The origin (ox, oy) must be an integer cell on the grid, as a ForceMap's is.
    """

    width: int
    height: int
    ox: int
    oy: int
    codes: np.ndarray  # (height, width) uint8 of label codes

    def __post_init__(self):
        _store_grid_origin(self)
        codes = _frozen_copy(self.codes, np.uint8, (self.height, self.width), "codes")
        if not np.isin(self.codes, list(_CODE_LABELS)).all():  # the cast wraps 256 to 0
            raise ValueError("codes must be label codes 0, 1 or 2")
        object.__setattr__(self, "codes", codes)

    @property
    def origin(self) -> tuple[int, int]:
        return (self.ox, self.oy)

    def label(self, x: int, y: int) -> Label:
        x, y = _grid_cell((x, y), self.width, self.height, "cell")
        return _CODE_LABELS[int(self.codes[y, x])]


def classify_map(fmap: ForceMap) -> ClassificationMap:
    """Label every cell by the outcome of its force-guided walk (follow_path's).

    Each cell points at its successor: an off-grid sink for a move off the
    grid (Divergence), a home sink for a move onto the origin or a balanced
    origin (Convergence), else the cell its force moves to.  A cell with
    G = 0 points at itself, and the origin is home only when its G is not 0.
    Pointer jumping (nxt = nxt[nxt]) finds every cell's sink at once.  A cell
    that reaches neither balances off the origin, has no force, bounces, or
    feeds one of these or a cycle: LocallyTrapped.
    """
    w, h = fmap.width, fmap.height
    n = w * h
    off, home = n, n + 1
    ys, xs = np.indices((h, w))
    sectors = _sectors(fmap.fx, fmap.fy, fmap.g)
    if fmap.g is not None:
        sectors[fmap.g == 0.0] = _BALANCED  # no force: the cell keeps itself
    move = _MOVES[sectors]
    nx, ny = xs + move[..., 0], ys + move[..., 1]
    nxt = np.where((0 <= nx) & (nx < w) & (0 <= ny) & (ny < h), ny * w + nx, off).ravel()
    if fmap.g is None or fmap.g[fmap.oy, fmap.ox] != 0.0:
        nxt[nxt == fmap.oy * w + fmap.ox] = home
    nxt = np.append(nxt, [off, home])
    for _ in range(n.bit_length() + 1):  # 2**rounds > n moves, the longest path to a sink
        nxt = nxt[nxt]
    codes = np.full(n, _LABEL_CODES[Label.LOCALLY_TRAPPED])
    codes[nxt[:n] == off] = _LABEL_CODES[Label.DIVERGENCE]
    codes[nxt[:n] == home] = _LABEL_CODES[Label.CONVERGENCE]
    return ClassificationMap(w, h, fmap.ox, fmap.oy, codes.reshape(h, w).astype(np.uint8))


def summarize_map(cls_map: ClassificationMap) -> dict[str, int]:
    """Cell counts per label; the values add up to width * height."""
    counts = np.bincount(cls_map.codes.ravel(), minlength=3)
    return {
        "convergence": int(counts[_LABEL_CODES[Label.CONVERGENCE]]),
        "divergence": int(counts[_LABEL_CODES[Label.DIVERGENCE]]),
        "locally_trapped": int(counts[_LABEL_CODES[Label.LOCALLY_TRAPPED]]),
    }


def classification_rgb(cls_map: ClassificationMap) -> np.ndarray:
    """Render labels to an (height, width, 3) uint8 color array.

    Black convergence, white divergence, gray locally trapped.  The origin
    cell is marked dark gray when it converges.
    """
    rgb = np.empty((cls_map.height, cls_map.width, 3), dtype=np.uint8)
    for label, color in LABEL_COLORS.items():
        rgb[cls_map.codes == _LABEL_CODES[label]] = color
    ox, oy = cls_map.origin
    if cls_map.label(ox, oy) is Label.CONVERGENCE:
        rgb[oy, ox] = ORIGIN_COLOR
    return rgb


class MatchStatus(Enum):
    MATCHED = "Matched"
    DIVERGED = "Diverged"
    TRAPPED = "Trapped"


@dataclass(frozen=True)
class MatchResult:
    """Outcome of force-guided matching.

    detected_shift is the estimated translation of the first image's
    content relative to the second (meaningful when status is Matched).
    path positions live on the shift grid of the second image, origin at
    (width // 2, height // 2).
    """

    detected_shift: tuple[int, int]
    status: MatchStatus
    steps: int
    path: PathTrace


def match_images(img1: GrayImage, img2: GrayImage,
                 edge_params: EdgeParams = EdgeParams(),
                 force_params: ForceParams = ForceParams(),
                 start_offset: tuple[int, int] = (0, 0),
                 smooth: bool = False) -> MatchResult:
    """Estimate the integer shift between two images by following forces.

    Extracts both edge currents once, then repeatedly translates the first
    current by a cumulative offset, reads the planar total force on it off
    force_map_fast's field lattice, evaluating only the lattice points the
    walk reaches, and steps the offset along the discretized direction.  The
    path therefore equals follow_path(force_map_fast(c1, c2),
    origin, stop_at_origin=False) at unit strength.  Settling into a
    balance (a balanced force, or a two-cell oscillation) is a match; the
    detected shift is the negated final offset.  Walking the translated
    center out of the second image's grid is Diverged.  A move that would close a cycle
    of three or more cells, or a step onto a cell whose gross sum G is 0,
    is Trapped.  start_offset must be a pair of integers that keeps the
    start on the grid.  The walk uses unit strength, so the result does not
    depend on force_params.strength.  ValueError when the start cell's G is
    0, so that it has no force to follow: every element pair lies within
    min_r, or |r|^3 overflows and every term is 0.
    """
    c1 = extract_current(img1, edge_params, smooth=smooth)
    c2 = extract_current(img2, edge_params, smooth=smooth)
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("matching requires edge points in both images")
    w, h = img2.width, img2.height
    ox, oy = w // 2, h // 2
    start = _grid_cell((ox + start_offset[0], oy + start_offset[1]), w, h, "start")
    # The lattice leaves out the strength factor, so the walk runs at unit strength.
    trace = _walk(_FieldLattice(c1, c2, force_params).cell, start, w, h, (ox, oy), False)
    if trace.status is PathStatus.NO_FORCE and trace.steps == 0:
        raise ValueError("the force model sums nothing at the start shift: every element "
                         "pair lies within min_r, or its distance cubed overflows")
    if trace.status is PathStatus.BALANCE_OSCILLATION:
        status = MatchStatus.MATCHED
    elif trace.status is PathStatus.OUT_OF_BOUNDS:
        status = MatchStatus.DIVERGED
    else:
        status = MatchStatus.TRAPPED
    tx, ty = trace.terminal[0] - ox, trace.terminal[1] - oy
    return MatchResult((-tx, -ty), status, trace.steps, trace)


def match_result_json(result: MatchResult) -> dict:
    """JSON-ready dict form of a match result."""
    return {
        "detected_shift": [result.detected_shift[0], result.detected_shift[1]],
        "status": result.status.value,
        "steps": result.steps,
        "path": [[x, y] for x, y in result.path.positions],
    }
