"""Force-guided movement on the shift grid: classification and matching.

A planar force picks one of eight neighbor moves (or none, at balance).
Following those moves from a start cell traces a path that ends in one of
four ways: it reaches the zero-shift origin, it oscillates around a balance
point, it walks off the grid, or it hits the step limit: an optional budget
is spent, or the walk closes a cycle of three or more cells.  Classifying
every cell by its path outcome splits the grid into a convergence basin,
divergent cells, and locally trapped cells.  Matching two images is the
same walk run on forces computed on the fly, starting from shift zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .edgecurrent import EdgeCurrent, EdgeParams, EmptyCurrentError, extract_current
from .emforce import ForceMap, ForceParams, Vec2, total_force
from .raster import GrayImage, _frozen_copy

# Below this magnitude a force vector counts as no force at all.
ZERO_FORCE_EPS = 1e-12

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


def _direction_of(x: float, y: float) -> Direction8 | None:
    """Nearest of eight directions, or None for a (near) zero vector.

    Sectors are 45 degrees wide and half-open: east covers angles in
    [-22.5, 22.5) degrees, and a boundary angle belongs to the sector it
    opens.  Implemented by rotating the vector so the east/southeast
    boundary lands on angle zero, then reading the octant off sign and
    ordering comparisons; a vector exactly on that boundary rotates onto
    wy == 0.0 with no rounding error.
    """
    if math.hypot(x, y) < ZERO_FORCE_EPS:
        return None
    wx = x * _COS + y * _SIN
    wy = y * _COS - x * _SIN
    if wy > 0.0:
        if wx > wy:
            k = 0
        elif wx > 0.0:
            k = 1
        elif -wx < wy:
            k = 2
        else:
            k = 3
    elif wy == 0.0:
        k = 0 if wx > 0.0 else 4
    else:
        if wx >= 0.0:
            k = 7 if wx >= -wy else 6
        else:
            k = 4 if wx < wy else 5
    return _SECTORS[(k + 1) % 8]


def discretize8(v: Vec2) -> Direction8 | None:
    """Quantize a planar force into one of eight moves, None when balanced."""
    if not (math.isfinite(v.x) and math.isfinite(v.y)):
        raise ValueError(f"force {v} is not finite, so it has no direction")
    return _direction_of(v.x, v.y)


class PathStatus(Enum):
    ARRIVED_AT_ORIGIN = "ArrivedAtOrigin"
    BALANCE_OSCILLATION = "BalanceOscillation"
    OUT_OF_BOUNDS = "OutOfBounds"
    STEP_LIMIT = "StepLimit"


@dataclass(frozen=True)
class PathTrace:
    """Cells visited by one walk, its outcome, and the terminal cell.

    For a balance oscillation the terminal is the oscillating cell with the
    smaller force magnitude (ties keep the earlier-visited one), which may
    differ from the last path position.  STEP_LIMIT means the budget was
    spent or the next move would close a cycle of three or more cells; the
    path then holds no repeated cell, and the terminal is its last one.
    """

    positions: tuple[tuple[int, int], ...]
    status: PathStatus
    terminal: tuple[int, int]

    @property
    def steps(self) -> int:
        return len(self.positions) - 1


def _walk(force_at: Callable[[int, int], tuple[float, float]],
          start: tuple[int, int], width: int, height: int,
          origin: tuple[int, int], stop_at_origin: bool,
          max_steps: int | None) -> PathTrace:
    """Shared stepping engine for map walks and on-the-fly matching.

    A move depends only on the cell, so the walk ends at its first move onto
    a visited cell: a bounce, or a cycle of three or more cells.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    positions = [start]
    visited = {start}
    px, py = start
    fx, fy = force_at(px, py)
    while True:
        d = _direction_of(fx, fy)
        if d is None:
            return PathTrace(tuple(positions), PathStatus.BALANCE_OSCILLATION, (px, py))
        if max_steps is not None and len(positions) > max_steps:
            return PathTrace(tuple(positions), PathStatus.STEP_LIMIT, (px, py))
        dx, dy = d.step
        nx, ny = px + dx, py + dy
        if not (0 <= nx < width and 0 <= ny < height):
            return PathTrace(tuple(positions), PathStatus.OUT_OF_BOUNDS, (px, py))
        if stop_at_origin and (nx, ny) == origin:
            positions.append((nx, ny))
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
        fx, fy = force_at(px, py)


def follow_path(fmap: ForceMap, start: tuple[int, int],
                stop_at_origin: bool = True,
                max_steps: int | None = None) -> PathTrace:
    """Walk the force map from a start cell until a terminal condition.

    Each step moves to the 8-neighbor selected by the current cell's force.
    Stepping onto the origin ends the walk immediately when stop_at_origin
    is set.  A move back onto a visited cell ends it too, so every walk ends
    within width * height moves; max_steps, when given, is a tighter budget.
    """
    sx, sy = start
    if not (0 <= sx < fmap.width and 0 <= sy < fmap.height):
        raise ValueError(f"start {start} outside {fmap.width}x{fmap.height} map")
    fx_arr, fy_arr = fmap.fx, fmap.fy

    def force_at(x: int, y: int) -> tuple[float, float]:
        return float(fx_arr[y, x]), float(fy_arr[y, x])

    return _walk(force_at, (sx, sy), fmap.width, fmap.height,
                 fmap.origin, stop_at_origin, max_steps)


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

    The origin (ox, oy) must lie on the grid, as a ForceMap's does.
    """

    width: int
    height: int
    ox: int
    oy: int
    codes: np.ndarray  # (height, width) uint8 of label codes

    def __post_init__(self):
        if not (0 <= self.ox < self.width and 0 <= self.oy < self.height):
            raise ValueError(f"origin {self.origin} outside {self.width}x{self.height} map")
        codes = _frozen_copy(self.codes, np.uint8, (self.height, self.width), "codes")
        if not np.isin(self.codes, list(_CODE_LABELS)).all():  # the cast wraps 256 to 0
            raise ValueError("codes must be label codes 0, 1 or 2")
        object.__setattr__(self, "codes", codes)

    @property
    def origin(self) -> tuple[int, int]:
        return (self.ox, self.oy)

    def label(self, x: int, y: int) -> Label:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"cell ({x}, {y}) outside {self.width}x{self.height} map")
        return _CODE_LABELS[int(self.codes[y, x])]


def classify_map(fmap: ForceMap, max_steps: int | None = None) -> ClassificationMap:
    """Label every cell by the outcome of its force-guided walk.

    Arriving at the origin, or oscillating with the balance terminal on the
    origin, is Convergence.  Leaving the grid is Divergence.  Any other
    balance, or a step limit (budget or cycle), is LocallyTrapped.
    """
    codes = np.empty((fmap.height, fmap.width), dtype=np.uint8)
    origin = fmap.origin
    for y in range(fmap.height):
        for x in range(fmap.width):
            trace = follow_path(fmap, (x, y), stop_at_origin=True, max_steps=max_steps)
            if trace.status is PathStatus.ARRIVED_AT_ORIGIN:
                label = Label.CONVERGENCE
            elif trace.status is PathStatus.BALANCE_OSCILLATION:
                label = Label.CONVERGENCE if trace.terminal == origin else Label.LOCALLY_TRAPPED
            elif trace.status is PathStatus.OUT_OF_BOUNDS:
                label = Label.DIVERGENCE
            else:
                label = Label.LOCALLY_TRAPPED
            codes[y, x] = _LABEL_CODES[label]
    return ClassificationMap(fmap.width, fmap.height, fmap.ox, fmap.oy, codes)


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
                 max_steps: int | None = None,
                 smooth: bool = False) -> MatchResult:
    """Estimate the integer shift between two images by following forces.

    Extracts both edge currents once, then repeatedly translates the first
    current by a cumulative offset, computes the planar total force on it,
    and steps the offset along the discretized direction.  Settling into a
    balance (no force, or a two-cell oscillation) is a match; the detected
    shift is the negated final offset.  Walking the translated center out
    of the second image's grid is Diverged.  Spending max_steps (no budget
    when None), or a move that would close a cycle of three or more cells,
    is Trapped.  The walk uses unit strength, so the result does not depend
    on force_params.strength.
    """
    c1 = extract_current(img1, edge_params, smooth=smooth)
    c2 = extract_current(img2, edge_params, smooth=smooth)
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("matching requires edge points in both images")
    w, h = img2.width, img2.height
    ox, oy = w // 2, h // 2
    start = (ox + start_offset[0], oy + start_offset[1])
    if not (0 <= start[0] < w and 0 <= start[1] < h):
        raise ValueError(f"start offset {start_offset} leaves the {w}x{h} shift grid")

    unit = replace(force_params, strength=1.0)

    def force_at(x: int, y: int) -> tuple[float, float]:
        f = total_force(c1, c2, Vec2(float(x - ox), float(y - oy)), unit)
        return f.x, f.y

    trace = _walk(force_at, start, w, h, (ox, oy), False, max_steps)
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
