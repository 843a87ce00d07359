import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emmatch import (ClassificationMap, Direction8, EmptyCurrentError,
                     ForceMap, ForceParams, GrayImage, Label, MatchStatus,
                     PathStatus, PathTrace, Vec2, classification_rgb,
                     classify_map, discretize8, extract_current, follow_path,
                     force_map, force_map_fast, match_images, match_result_json,
                     shift_image, summarize_map, synth_shape)
from emmatch import emforce, matchmap
from emmatch.cli import render_direction_glyphs
from emmatch.matchmap import BALANCE_RTOL, ZERO_FORCE_EPS, _sectors

# The shapes the matching tests use, as perfbench's workloads do.
KINDS = ("rectangle", "square", "ellipse", "circle")

C = math.cos(math.radians(22.5))
S = math.sin(math.radians(22.5))


def manual_map(fx, fy):
    fx = np.asarray(fx, dtype=np.float64)
    h, w = fx.shape
    return ForceMap(w, h, w // 2, h // 2, fx, np.asarray(fy, dtype=np.float64))


def uniform_east(w=5, h=5):
    return manual_map(np.ones((h, w)), np.zeros((h, w)))


def rotor_map():
    """A four-cell clockwise cycle in the top-left corner, balance elsewhere."""
    fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
    fx[0, 0] = 1.0   # E
    fy[0, 1] = 1.0   # S
    fx[1, 1] = -1.0  # W
    fy[1, 0] = -1.0  # N
    return manual_map(fx, fy)


def radial_inward(w=5, h=5):
    ox, oy = w // 2, h // 2
    xs = np.arange(w)[None, :].repeat(h, axis=0)
    ys = np.arange(h)[:, None].repeat(w, axis=1)
    return manual_map(ox - xs, oy - ys)


class TestDiscretize8:
    def test_cardinals_and_diagonals(self):
        cases = {
            (1.0, 0.0): Direction8.E, (1.0, 1.0): Direction8.SE,
            (0.0, 1.0): Direction8.S, (-1.0, 1.0): Direction8.SW,
            (-1.0, 0.0): Direction8.W, (-1.0, -1.0): Direction8.NW,
            (0.0, -1.0): Direction8.N, (1.0, -1.0): Direction8.NE,
        }
        for (x, y), want in cases.items():
            assert discretize8(Vec2(x, y)) is want

    def test_steps_point_along_direction(self):
        assert Direction8.E.step == (1, 0)
        assert Direction8.SW.step == (-1, 1)
        for d in Direction8:
            dx, dy = d.step
            assert discretize8(Vec2(float(dx), float(dy))) is d

    def test_balance_threshold(self):
        assert discretize8(Vec2(0.0, 0.0)) is None
        assert discretize8(Vec2(5e-13, -5e-13)) is None
        assert discretize8(Vec2(1e-12, 0.0)) is Direction8.E  # at eps: a force
        assert ZERO_FORCE_EPS == 1e-12

    def test_balance_is_relative_to_g(self):
        # with G, a force is balanced at |F| <= 1e-12 * G, whatever its size
        fx = np.array([[1e-13, 1e-6, 2e-6, 0.0]])
        g = np.array([[1e-3, 1e6, 1e6, 0.0]])
        fmap = ForceMap(4, 1, 0, 0, fx, np.zeros((1, 4)), g)
        assert BALANCE_RTOL == 1e-12
        assert render_direction_glyphs(fmap) == ">.>.\n"
        assert render_direction_glyphs(ForceMap(4, 1, 0, 0, fx, np.zeros((1, 4)))) == ".>>.\n"
        assert follow_path(fmap, (1, 0)).status is PathStatus.BALANCE_OSCILLATION
        for factor in (1e-200, 1e200):  # scale-free: G scales with the force
            assert render_direction_glyphs(fmap.scaled(factor)) == ">.>.\n"

    def test_sector_boundaries_open_clockwise(self):
        # vectors exactly on a boundary belong to the sector the boundary
        # opens; these four rotate onto a frame axis with zero rounding
        assert discretize8(Vec2(C, S)) is Direction8.SE
        assert discretize8(Vec2(-S, C)) is Direction8.SW
        assert discretize8(Vec2(-C, -S)) is Direction8.NW
        assert discretize8(Vec2(S, -C)) is Direction8.NE

    def test_just_inside_east_sector(self):
        assert discretize8(Vec2(C, S - 1e-9)) is Direction8.E
        assert discretize8(Vec2(C, -S + 1e-9)) is Direction8.E

    def test_matches_angle_arithmetic_on_random_vectors(self):
        names = ["E", "SE", "S", "SW", "W", "NW", "N", "NE"]

        def ref(x, y):
            if math.hypot(x, y) < ZERO_FORCE_EPS:
                return None
            deg = math.degrees(math.atan2(y, x))
            return Direction8[names[math.floor((deg + 22.5) / 45.0) % 8]]

        rng = np.random.default_rng(0)
        pts = rng.uniform(-10.0, 10.0, size=(20000, 2))
        assert all(discretize8(Vec2(x, y)) is ref(x, y) for x, y in pts)

    def test_invariant_under_power_of_two_scaling(self):
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-4.0, 4.0, size=(500, 2)):
            if math.hypot(x, y) < 1e-6:
                continue
            d = discretize8(Vec2(x, y))
            assert discretize8(Vec2(4.0 * x, 4.0 * y)) is d
            assert discretize8(Vec2(0.25 * x, 0.25 * y)) is d

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                      (1.0, -math.inf), (math.nan, math.inf)])
    def test_non_finite_force_has_no_direction(self, x, y):
        with pytest.raises(ValueError, match="not finite"):
            discretize8(Vec2(x, y))


def nested_where_sectors(fx, fy, g=None):
    """The sector rule _sectors replaced: nested np.where over the rotated vector.

    Like _sectors, it rotates a vector below 2**-500 2**600 times larger,
    so that no product rounds in the subnormal range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lift = np.where(np.maximum(np.abs(fx), np.abs(fy)) < 2.0 ** -500, 2.0 ** 600, 1.0)
        wx = np.multiply(lift * fx, C) + np.multiply(lift * fy, S)
        wy = np.multiply(lift * fy, C) - np.multiply(lift * fx, S)
        magnitude = np.hypot(fx, fy)
        balanced = (magnitude < ZERO_FORCE_EPS if g is None
                    else magnitude <= np.multiply(BALANCE_RTOL, g))
    k = np.where(wy > 0.0,
                 np.where(wx > wy, 0, np.where(wx > 0.0, 1, np.where(-wx < wy, 2, 3))),
                 np.where(wy == 0.0, np.where(wx > 0.0, 0, 4),
                          np.where(wx >= 0.0, np.where(wx >= -wy, 7, 6),
                                   np.where(wx < wy, 4, 5))))
    return np.where(balanced, 8, (k + 1) % 8)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# The eight sector boundaries; the first four rotate exactly onto an axis.
BOUNDARIES = [(C, S), (-S, C), (-C, -S), (S, -C), (S, C), (-C, S), (-S, -C), (C, -S)]


def rotated_tie(angle, sign, scale):
    """A vector near a boundary angle whose rotation (wx, wy) has wx == sign * wy.

    No vector lies on the other four boundaries exactly, but within a few
    hundred ulps of one, most scales give a vector that rotates onto the tie;
    without one, the vector at the angle is returned.
    """
    fx = scale * math.cos(math.radians(angle))
    fy = scale * math.sin(math.radians(angle))
    for d in range(-300, 301):
        near = fy + d * math.ulp(fy)
        if fx * C + near * S == sign * (near * C - fx * S):
            return fx, near
    return fx, fy


@st.composite
def sector_vectors(draw):
    """(fx, fy, g): random, boundary, tie, axis, zero, threshold or huge vectors."""
    g = draw(st.sampled_from([0.0, 1.0, 1e300]) | st.floats(0.0, 1e300))
    kind = draw(st.sampled_from(["random", "boundary", "tie", "axis", "threshold", "huge"]))
    if kind == "random":
        return draw(FINITE), draw(FINITE), g
    if kind == "tie":
        angle, sign = draw(st.sampled_from([(67.5, 1.0), (157.5, -1.0), (-112.5, 1.0), (-22.5, -1.0)]))
        return (*rotated_tie(angle, sign, draw(st.floats(2.0 ** -40, 2.0 ** 40))), g)
    if kind == "boundary":  # power-of-two scales keep the rotation exact
        scale = draw(st.sampled_from([2.0 ** e for e in (-1000, -40, 0, 1, 40, 1000)]))
        fx, fy = draw(st.sampled_from(BOUNDARIES))
        return scale * fx, scale * fy, g
    if kind == "axis":
        a = draw(st.sampled_from([0.0, -0.0]) | FINITE)
        zero = draw(st.sampled_from([0.0, -0.0]))
        return (*draw(st.sampled_from([(a, zero), (zero, a)])), g)
    if kind == "threshold":  # |F| at, just below and just above either cutoff
        t = draw(st.sampled_from([ZERO_FORCE_EPS, BALANCE_RTOL * g]))
        t = draw(st.sampled_from([t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]))
        ux, uy = draw(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (C, S), (-S, -C)]))
        return t * ux, t * uy, g
    huge = st.floats(1e299, 1.7976931348623157e308)
    sign = st.sampled_from([1.0, -1.0])
    return draw(sign) * draw(huge), draw(sign) * draw(huge | FINITE), g


HUGE = 1.7e308  # |F| of (HUGE, HUGE) overflows np.hypot


@given(st.lists(sector_vectors(), min_size=1, max_size=16), st.booleans())
# huge vectors: the float branch skips np.hypot below a finite g's cutoff,
# and calls it, overflowing, under an infinite one
@example([(HUGE, HUGE, 1.0), (-HUGE, HUGE, 1e300), (HUGE, -HUGE, 0.0),
          (HUGE, HUGE, math.inf), (-HUGE, -HUGE, math.inf)], True)
@example([(HUGE, HUGE, 1.0), (-HUGE, HUGE, 1.0), (HUGE, -HUGE, 1.0)], False)
# signed zero axis vectors, balanced or not
@example([(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, 0.0), (-0.0, -0.0, 1.0),
          (2.0, -0.0, 1.0), (-2.0, 0.0, 1.0), (-0.0, 2.0, 1.0), (0.0, -2.0, 1.0)], True)
@example([(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (-0.0, -0.0, 1.0),
          (2.0, -0.0, 1.0), (-2.0, 0.0, 1.0), (-0.0, 2.0, 1.0), (0.0, -2.0, 1.0)], False)
# subnormal vectors, which an unscaled rotation rounds across a boundary
@example([(5e-324, 0.0, 0.0), (0.0, 5e-324, 0.0), (-5e-324, -0.0, 0.0), (1e-310, -3e-310, 0.0)],
         True)
# the four boundaries that rotate exactly onto an axis
@example([(*v, 1.0) for v in BOUNDARIES[:4]], True)
@example([(*v, 1.0) for v in BOUNDARIES[:4]], False)
@settings(max_examples=300, deadline=None)
def test_sectors_equal_the_nested_where_rule(vectors, with_g):
    # One rule for Python floats, as a walk passes, and arrays, as a map
    # does; warnings are errors, and one vector gives a Python int.
    fx, fy, g = (np.array(column) for column in zip(*vectors))
    g = g if with_g else None
    want = nested_where_sectors(fx, fy, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_sectors(fx, fy, g), want)
        assert np.array_equal(_sectors(fx[None, :], fy[None, :], None if g is None else g[None, :]),
                              want[None, :])
        for i, (x, y, gi) in enumerate(vectors):
            k = _sectors(x, y, gi if with_g else None)
            assert type(k) is int and k == want[i]


class TestFollowPath:
    def test_arrives_at_origin(self):
        trace = follow_path(uniform_east(), (0, 2))
        assert trace.status is PathStatus.ARRIVED_AT_ORIGIN
        assert trace.positions == ((0, 2), (1, 2), (2, 2))
        assert trace.terminal == (2, 2)
        assert trace.steps == 2

    def test_walks_off_the_grid(self):
        trace = follow_path(uniform_east(), (3, 2))
        assert trace.status is PathStatus.OUT_OF_BOUNDS
        # the departing move is not recorded; the last in-grid cell terminates
        assert trace.positions == ((3, 2), (4, 2))
        assert trace.terminal == (4, 2)
        assert trace.steps == 1

    def test_passes_through_origin_when_not_stopping(self):
        trace = follow_path(uniform_east(), (0, 2), stop_at_origin=False)
        assert trace.status is PathStatus.OUT_OF_BOUNDS
        assert trace.positions == ((0, 2), (1, 2), (2, 2), (3, 2), (4, 2))

    def test_balance_at_start(self):
        fx = np.ones((5, 5)); fx[2, 0] = 0.0
        trace = follow_path(manual_map(fx, np.zeros((5, 5))), (0, 2))
        assert trace.status is PathStatus.BALANCE_OSCILLATION
        assert trace.positions == ((0, 2),)
        assert trace.terminal == (0, 2)
        assert trace.steps == 0

    def test_oscillation_terminal_has_smaller_force(self):
        fx = np.zeros((5, 5))
        fx[1, 1] = 2.0   # east, strong
        fx[1, 2] = -1.0  # west, weak
        trace = follow_path(manual_map(fx, np.zeros((5, 5))), (1, 1))
        assert trace.status is PathStatus.BALANCE_OSCILLATION
        assert trace.positions == ((1, 1), (2, 1), (1, 1))
        assert trace.terminal == (2, 1)
        # entering from the other side picks the same terminal
        assert follow_path(manual_map(fx, np.zeros((5, 5))), (2, 1)).terminal == (2, 1)

    def test_oscillation_tie_keeps_earlier_cell(self):
        fx = np.zeros((5, 5))
        fx[1, 1] = 1.0
        fx[1, 2] = -1.0
        fmap = manual_map(fx, np.zeros((5, 5)))
        assert follow_path(fmap, (1, 1)).terminal == (1, 1)
        assert follow_path(fmap, (2, 1)).terminal == (2, 1)

    def test_longer_cycle_hits_step_limit(self):
        # the move that would close the four-cycle ends the walk
        trace = follow_path(rotor_map(), (0, 0))
        assert trace.status is PathStatus.STEP_LIMIT
        assert trace.positions == ((0, 0), (1, 0), (1, 1), (0, 1))
        assert trace.terminal == (0, 1)

    def test_rotor_stops_at_first_revisit(self):
        # criterion 11's rotor: with no budget, each walk traces the four
        # cells once and stops before re-entering its start
        cycle = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for i, start in enumerate(cycle):
            trace = follow_path(rotor_map(), start)
            assert trace.status is PathStatus.STEP_LIMIT
            assert trace.positions == tuple(cycle[i:] + cycle[:i])
            assert trace.terminal == trace.positions[-1]

    def test_start_and_budget_validation(self):
        fmap = uniform_east()
        with pytest.raises(ValueError, match=r"start \(5, 0\) outside 5x5 map"):
            follow_path(fmap, (5, 0))
        with pytest.raises(ValueError, match=r"start \(1.5, 2\) must be a pair of integers"):
            follow_path(fmap, (1.5, 2))

    def test_numpy_integer_start_walks_in_python_ints(self):
        trace = follow_path(uniform_east(), (np.int64(0), np.int64(2)))
        assert trace == follow_path(uniform_east(), (0, 2))
        assert all(type(v) is int for cell in trace.positions for v in cell)


def reference_direction(fmap, x, y):
    """discretize8 of cell (x, y), balanced at |F| <= 1e-12 * G when the map has G."""
    f = fmap.cell(x, y)
    if fmap.g is None:
        return discretize8(f)
    if math.hypot(f.x, f.y) <= 1e-12 * float(fmap.g[y, x]):
        return None
    # an exact power-of-two scale to |F| near 1 keeps the angle and clears the absolute cutoff
    e = math.frexp(max(abs(f.x), abs(f.y)))[1]
    return discretize8(Vec2(math.ldexp(f.x, -e), math.ldexp(f.y, -e)))


def reference_walk(fmap, start, stop_at_origin=True):
    """The stepping loop from before walks ended at their first revisit.

    Only a bounce straight back ends a revisiting walk here, after a second
    force evaluation of the cell bounced to.  A longer cycle runs on until
    a budget of 4 * width * height steps is spent.  A cell with G = 0 has no
    force: the walk stops on it, also where it is the origin.
    """
    max_steps = 4 * fmap.width * fmap.height

    def force_at(x, y):
        return float(fmap.fx[y, x]), float(fmap.fy[y, x])

    def no_force(x, y):
        return fmap.g is not None and fmap.g[y, x] == 0.0

    positions = [start]
    px, py = start
    fx, fy = force_at(px, py)
    steps = 0
    while True:
        if no_force(px, py):
            return PathTrace(tuple(positions), PathStatus.NO_FORCE, (px, py))
        d = reference_direction(fmap, px, py)
        if d is None:
            return PathTrace(tuple(positions), PathStatus.BALANCE_OSCILLATION, (px, py))
        if steps >= max_steps:
            return PathTrace(tuple(positions), PathStatus.STEP_LIMIT, (px, py))
        dx, dy = d.step
        nx, ny = px + dx, py + dy
        steps += 1
        if not (0 <= nx < fmap.width and 0 <= ny < fmap.height):
            return PathTrace(tuple(positions), PathStatus.OUT_OF_BOUNDS, (px, py))
        if stop_at_origin and (nx, ny) == fmap.origin:
            positions.append((nx, ny))
            status = PathStatus.NO_FORCE if no_force(nx, ny) else PathStatus.ARRIVED_AT_ORIGIN
            return PathTrace(tuple(positions), status, (nx, ny))
        if len(positions) >= 2 and (nx, ny) == positions[-2]:
            gx, gy = force_at(nx, ny)
            m_new = math.hypot(gx, gy)
            m_cur = math.hypot(fx, fy)
            positions.append((nx, ny))
            if m_new < m_cur:
                terminal = (nx, ny)
            elif m_cur < m_new:
                terminal = (px, py)
            else:
                first_new = positions.index((nx, ny))
                first_cur = positions.index((px, py))
                terminal = (nx, ny) if first_new < first_cur else (px, py)
            return PathTrace(tuple(positions), PathStatus.BALANCE_OSCILLATION, terminal)
        positions.append((nx, ny))
        px, py = nx, ny
        fx, fy = force_at(px, py)


def reference_label(trace, origin):
    if trace.status is PathStatus.ARRIVED_AT_ORIGIN:
        return Label.CONVERGENCE
    if trace.status is PathStatus.BALANCE_OSCILLATION:
        return Label.CONVERGENCE if trace.terminal == origin else Label.LOCALLY_TRAPPED
    if trace.status is PathStatus.OUT_OF_BOUNDS:
        return Label.DIVERGENCE
    return Label.LOCALLY_TRAPPED


# Cell forces for constructed maps: random vectors, vectors exactly on a
# sector boundary, exact zeros, vectors at the balance threshold, and equal
# magnitudes that tie a bounce.
CELL_FORCES = st.one_of(
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.sampled_from([(C, S), (-S, C), (-C, -S), (S, -C)]),
    st.just((0.0, 0.0)),
    st.sampled_from([(1e-12, 0.0), (5e-13, -5e-13)]),
    st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                     (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]),
)


# G per cell, when a map has one: zero, values that put the cells above on
# the relative threshold exactly (1e-12 * 1.0 == 1e-12), and random scales.
CELL_GROSS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e13))


@st.composite
def constructed_maps(draw):
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(CELL_FORCES, min_size=w * h, max_size=w * h))
    forces = np.array(cells, dtype=np.float64).reshape(h, w, 2)
    ox, oy = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    g = draw(st.none() | st.lists(CELL_GROSS, min_size=w * h, max_size=w * h))
    g = None if g is None else np.reshape(g, (h, w))
    return ForceMap(w, h, ox, oy, forces[..., 0], forces[..., 1], g)


GLYPHS = {Direction8.E: ">", Direction8.SE: "\\", Direction8.S: "v", Direction8.SW: "/",
          Direction8.W: "<", Direction8.NW: ",", Direction8.N: "^", Direction8.NE: "`",
          None: "."}


@given(constructed_maps())
# a force of 5e-324 south: rotating it unscaled rounds its east part to 0, a boundary
@example(ForceMap(1, 2, 0, 1, np.zeros((2, 1)), [[5e-324], [0.0]], [[5e-324], [1.0]]))
@settings(max_examples=100, deadline=None)
def test_walks_agree_with_reference_loop(fmap):
    want_labels = {}
    for stop_at_origin in (True, False):
        for y in range(fmap.height):
            for x in range(fmap.width):
                got = follow_path(fmap, (x, y), stop_at_origin)
                want = reference_walk(fmap, (x, y), stop_at_origin)
                if stop_at_origin:
                    want_labels[x, y] = reference_label(want, fmap.origin)
                if want.status is not PathStatus.STEP_LIMIT:
                    assert got == want
                    continue
                # a cycle of three or more cells now ends at its first revisit
                assert got.status is PathStatus.STEP_LIMIT
                assert want.positions[:len(got.positions)] == got.positions
                assert got.terminal == got.positions[-1]
    # classify_map reads the labels off the successor graph, not from walks
    cls = classify_map(fmap)
    assert {cell: cls.label(*cell) for cell in want_labels} == want_labels
    assert render_direction_glyphs(fmap) == "".join(
        "".join(GLYPHS[reference_direction(fmap, x, y)] for x in range(fmap.width)) + "\n"
        for y in range(fmap.height))


def no_force_map(origin_sums=True):
    """Uniform east flow on 5 x 5 with G = 1, except cell (3, 2), which sums
    nothing (F = G = 0), and the origin (2, 2) too unless origin_sums."""
    fx, g = np.ones((5, 5)), np.ones((5, 5))
    fx[2, 3] = g[2, 3] = 0.0
    if not origin_sums:
        fx[2, 2] = g[2, 2] = 0.0
    return ForceMap(5, 5, 2, 2, fx, np.zeros((5, 5)), g)


class TestNoForce:
    """A computed cell with G = 0 summed nothing: no force, and no balance."""

    def test_walk_stops_on_a_cell_that_sums_nothing(self):
        fmap = no_force_map()
        trace = follow_path(fmap, (0, 2), stop_at_origin=False)
        assert trace.status is PathStatus.NO_FORCE
        assert trace.positions == ((0, 2), (1, 2), (2, 2), (3, 2))
        assert trace.terminal == (3, 2)
        start = follow_path(fmap, (3, 2))
        assert (start.status, start.steps, start.terminal) == (PathStatus.NO_FORCE, 0, (3, 2))
        # the same forces without G: the cell balances
        plain = ForceMap(5, 5, 2, 2, fmap.fx, fmap.fy)
        assert follow_path(plain, (0, 2), stop_at_origin=False).status is \
            PathStatus.BALANCE_OSCILLATION

    def test_a_step_onto_an_origin_that_sums_nothing_does_not_arrive(self):
        trace = follow_path(no_force_map(origin_sums=False), (0, 2))
        assert trace.status is PathStatus.NO_FORCE
        assert trace.positions == ((0, 2), (1, 2), (2, 2))
        assert follow_path(no_force_map(), (0, 2)).status is PathStatus.ARRIVED_AT_ORIGIN

    def test_classify_traps_cells_that_sum_nothing_and_their_feeders(self):
        cls = classify_map(no_force_map())
        assert [cls.label(x, 2) for x in range(5)] == [
            Label.CONVERGENCE, Label.CONVERGENCE, Label.LOCALLY_TRAPPED, Label.LOCALLY_TRAPPED,
            Label.DIVERGENCE]
        # an origin that sums nothing is no balance: it and its feeders are trapped
        cls = classify_map(no_force_map(origin_sums=False))
        assert [cls.label(x, 2) for x in range(5)] == [Label.LOCALLY_TRAPPED] * 4 + [
            Label.DIVERGENCE]
        assert summarize_map(cls) == {"convergence": 0, "divergence": 21, "locally_trapped": 4}
        assert render_direction_glyphs(no_force_map(origin_sums=False)).splitlines()[2] == ">>..>"

    def test_a_match_walk_onto_a_cell_that_sums_nothing_is_trapped(self, rect_img, monkeypatch):
        # No image pair has been seen to walk into such a cell, so one is made
        # on the lattice: the fourth cell of a known path sums nothing.
        moved = shift_image(rect_img, 5, -4)
        path = match_images(moved, rect_img).path.positions
        target = path[3]

        class Lattice(emforce._FieldLattice):
            def cell(self, x, y):
                return (0.0, 0.0, 0.0) if (x, y) == target else super().cell(x, y)

        monkeypatch.setattr(matchmap, "_FieldLattice", Lattice)
        result = match_images(moved, rect_img)
        assert result.status is MatchStatus.TRAPPED
        assert result.path.status is PathStatus.NO_FORCE
        assert result.path.positions == path[:4]
        assert result.path.terminal == target
        assert result.steps == 3

    @pytest.mark.parametrize("min_r, none, counts", [
        (20.0, 31, {"convergence": 1, "divergence": 992, "locally_trapped": 31}),
        (30.0, 584, {"convergence": 0, "divergence": 440, "locally_trapped": 584}),
        (40.0, 1017, {"convergence": 0, "divergence": 7, "locally_trapped": 1017}),
    ])
    def test_large_min_r_maps_label_cells_that_sum_nothing_trapped(self, rect_img, min_r,
                                                                   none, counts):
        # The rectangle moved by (3, -2): at min_r 30 the origin sums nothing,
        # and used to read as the one convergent cell.
        c1, c2 = extract_current(shift_image(rect_img, 3, -2)), extract_current(rect_img)
        fmap = force_map_fast(c1, c2, ForceParams(min_r=min_r))
        zero = fmap.g == 0.0
        assert zero.sum() == none
        assert not fmap.fx[zero].any() and not fmap.fy[zero].any()
        cls = classify_map(fmap)
        assert summarize_map(cls) == counts
        assert (cls.codes[zero] == 2).all()
        labels = {cell: reference_label(follow_path(fmap, cell), fmap.origin)
                  for cell in np.ndindex(32, 32)}
        assert {cell: cls.label(*cell) for cell in labels} == labels
        assert render_direction_glyphs(fmap).replace("\n", "").count(".") >= none

    def test_a_map_in_which_no_cell_sums_anything_is_an_error(self, rect_img):
        c1, c2 = extract_current(shift_image(rect_img, 3, -2)), extract_current(rect_img)
        for params in (ForceParams(min_r=60.0), ForceParams(height_px=1e200)):
            for build in (force_map_fast, force_map):
                with pytest.raises(ValueError, match="sums nothing at any shift"):
                    build(c1, c2, params)


class TestClassifyMap:
    def test_radial_pull_converges_everywhere(self):
        cls = classify_map(radial_inward())
        assert summarize_map(cls) == {"convergence": 25, "divergence": 0,
                                      "locally_trapped": 0}
        assert cls.label(*cls.origin) is Label.CONVERGENCE

    def test_uniform_flow_converges_only_upwind_of_origin(self):
        cls = classify_map(uniform_east())
        assert summarize_map(cls) == {"convergence": 2, "divergence": 23,
                                      "locally_trapped": 0}
        for x in range(2):
            assert cls.label(x, 2) is Label.CONVERGENCE
        assert cls.label(2, 2) is Label.DIVERGENCE  # origin itself flows out

    def test_off_origin_oscillation_traps_its_feeders(self):
        fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
        fx[0, 0] = 1.0   # pair member, pushes east
        fx[0, 1] = -1.0  # pair member, pushes west
        fy[1, 0] = -1.0  # feeder cell below, pushes north into the pair
        cls = classify_map(manual_map(fx, fy))
        assert cls.label(0, 0) is Label.LOCALLY_TRAPPED
        assert cls.label(1, 0) is Label.LOCALLY_TRAPPED
        assert cls.label(0, 1) is Label.LOCALLY_TRAPPED
        # balanced cells elsewhere settle in place: trapped, except the origin
        assert cls.label(*cls.origin) is Label.CONVERGENCE
        assert summarize_map(cls) == {"convergence": 1, "divergence": 0,
                                      "locally_trapped": 24}

    def test_exhausted_budget_counts_as_trapped(self):
        # with no budget to spend, the four-cycle's cells are trapped
        # because each of their walks would close the cycle
        fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
        fx[0, 0] = 1.0; fy[0, 1] = 1.0; fx[1, 1] = -1.0; fy[1, 0] = -1.0
        cls = classify_map(manual_map(fx, fy))
        for cell in [(0, 0), (1, 0), (1, 1), (0, 1)]:
            assert cls.label(*cell) is Label.LOCALLY_TRAPPED

    def test_path_through_every_cell_converges(self):
        # a serpentine path of W*H - 1 moves into the origin in its last
        # cell: the longest path a label can depend on
        w, h = 7, 6
        fx = np.where(np.arange(h)[:, None] % 2 == 0, 1.0, -1.0).repeat(w, axis=1)
        fy = np.zeros((h, w))
        for y in range(h - 1):
            x = w - 1 if y % 2 == 0 else 0
            fx[y, x], fy[y, x] = 0.0, 1.0
        ox = 0 if h % 2 == 0 else w - 1
        fx[h - 1, ox] = 0.0  # a balanced origin converges
        fmap = ForceMap(w, h, ox, h - 1, fx, fy)
        assert follow_path(fmap, (0, 0)).steps == w * h - 1
        assert summarize_map(classify_map(fmap)) == {"convergence": w * h, "divergence": 0,
                                                     "locally_trapped": 0}

    def test_label_bounds_checked(self):
        cls = classify_map(uniform_east())
        with pytest.raises(ValueError, match=r"cell \(0, 5\) outside 5x5 map"):
            cls.label(0, 5)
        with pytest.raises(ValueError, match="must be a pair of integers"):
            cls.label(1.0, 0)
        assert cls.label(np.int64(0), np.uint8(2)) is Label.CONVERGENCE

    def test_fractional_origin_is_rejected(self):
        # a fractional origin is no cell: every walk would miss it and the
        # whole map would read as trapped
        zeros = np.zeros((3, 3))
        with pytest.raises(ValueError, match=r"origin \(1.5, 1\) must be a pair of integers"):
            ForceMap(3, 3, 1.5, 1, zeros, zeros)
        with pytest.raises(ValueError, match=r"origin \(1.5, 1\) must be a pair of integers"):
            ClassificationMap(3, 3, 1.5, 1, np.zeros((3, 3), np.uint8))
        fmap = ForceMap(3, 3, np.int64(1), np.int64(1), zeros, zeros)
        assert type(fmap.ox) is int and type(fmap.oy) is int
        assert summarize_map(classify_map(fmap))["convergence"] == 1

    def test_codes_validation_and_freeze(self):
        with pytest.raises(ValueError):
            ClassificationMap(3, 3, 1, 1, np.zeros((2, 3), dtype=np.uint8))
        cls = classify_map(uniform_east())
        with pytest.raises(ValueError):
            cls.codes[0, 0] = 1


class TestShapeBasins:
    def test_rectangle_flat_counts(self, rect_current):
        cls = classify_map(force_map_fast(rect_current, rect_current))
        assert summarize_map(cls) == {"convergence": 498, "divergence": 526,
                                      "locally_trapped": 0}

    def test_rectangle_lifted_counts(self, rect_current):
        fmap = force_map_fast(rect_current, rect_current, ForceParams(height_px=8.0))
        cls = classify_map(fmap)
        assert summarize_map(cls) == {"convergence": 999, "divergence": 25,
                                      "locally_trapped": 0}

    def test_ellipse_lifted_counts(self, ellipse_current):
        fmap = force_map_fast(ellipse_current, ellipse_current,
                              ForceParams(height_px=8.0))
        cls = classify_map(fmap)
        assert summarize_map(cls) == {"convergence": 1016, "divergence": 8,
                                      "locally_trapped": 0}

    def test_fast_and_reference_maps_classify_identically(self, rect_current):
        square = extract_current(synth_shape("square", 16, 16, side=6))
        for current, params in ((rect_current, ForceParams(height_px=8.0)),
                                (square, ForceParams())):
            a = classify_map(force_map(current, current, params))
            b = classify_map(force_map_fast(current, current, params))
            assert np.array_equal(a.codes, b.codes)

    @pytest.mark.parametrize("h", [0.0, 8.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_fast_and_reference_maps_discretize_identically(self, kind, h):
        c = extract_current(synth_shape(kind, 32, 32))
        params = ForceParams(height_px=h)
        glyphs = render_direction_glyphs(force_map_fast(c, c, params))
        assert render_direction_glyphs(force_map(c, c, params)) == glyphs
        # the self-pair match is rounding residue of both sums: a balance
        assert glyphs.splitlines()[16][16] == "."


class TestRendering:
    def test_radial_map_renders_black_with_marked_origin(self):
        cls = classify_map(radial_inward())
        rgb = classification_rgb(cls)
        assert rgb.shape == (5, 5, 3)
        assert tuple(rgb[2, 2]) == (64, 64, 64)
        others = np.delete(rgb.reshape(-1, 3), 2 * 5 + 2, axis=0)
        assert not others.any()  # plain convergence cells are black

    def test_divergent_origin_is_not_marked(self):
        cls = classify_map(uniform_east())
        rgb = classification_rgb(cls)
        assert tuple(rgb[2, 2]) == (255, 255, 255)
        assert tuple(rgb[2, 0]) == (0, 0, 0)

    def test_trapped_cells_render_gray(self):
        fx = np.zeros((5, 5)); fx[0, 0] = 1.0; fx[0, 1] = -1.0
        rgb = classification_rgb(classify_map(manual_map(fx, np.zeros((5, 5)))))
        assert tuple(rgb[0, 0]) == (128, 128, 128)


class TestMatchImages:
    def test_recovers_rectangle_shift(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        result = match_images(moved, rect_img)
        assert result.status is MatchStatus.MATCHED
        assert result.detected_shift == (5, -4)
        # the walk stops on the match cell, where the force is rounding residue
        assert result.steps == 9
        assert result.path.positions == (
            (16, 16), (16, 17), (16, 18), (16, 19), (16, 20), (15, 20),
            (14, 20), (13, 20), (12, 20), (11, 20))
        assert result.path.terminal == (11, 20)

    def test_identity_match_settles_at_zero(self, rect_img):
        result = match_images(rect_img, rect_img)
        assert result.status is MatchStatus.MATCHED
        assert result.detected_shift == (0, 0)
        assert result.steps == 0

    def test_walk_equals_reference_map_walk(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        result = match_images(moved, rect_img)
        fmap = force_map(extract_current(moved), extract_current(rect_img))
        trace = follow_path(fmap, fmap.origin, stop_at_origin=False)
        assert trace.positions == result.path.positions
        assert trace.terminal == result.path.terminal

    @pytest.mark.parametrize("h", [0.0, 8.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_walk_equals_fast_map_walk(self, kind, h):
        # match reads force_map_fast's lattice, so it walks the fast map exactly
        img = synth_shape(kind, 32, 32)
        params = ForceParams(height_px=h)
        for shift, start in (((5, -4), (0, 0)), ((-6, -6), (0, 0)), ((3, -2), (0, 0)),
                             ((0, 0), (0, 0)), ((2, 1), (-9, 7))):
            moved = shift_image(img, *shift)
            result = match_images(moved, img, force_params=params, start_offset=start)
            fmap = force_map_fast(extract_current(moved), extract_current(img), params)
            ox, oy = fmap.origin
            trace = follow_path(fmap, (ox + start[0], oy + start[1]), stop_at_origin=False)
            assert result.path == trace

    def test_ellipse_recovers_every_small_shift(self, ellipse_img):
        # at h 0 every walk used to bounce on rounding noise around the match
        for dy in range(-4, 5):
            for dx in range(-4, 5):
                result = match_images(shift_image(ellipse_img, dx, dy), ellipse_img)
                assert result.status is MatchStatus.MATCHED, (dx, dy)
                assert result.detected_shift == (dx, dy)

    @given(st.floats(-30.0, 30.0))
    @example(-30.0)
    @example(-20.0)
    @example(-12.0)
    @example(30.0)
    @settings(max_examples=20, deadline=None)
    def test_result_does_not_depend_on_strength(self, rect_img, exponent):
        moved = shift_image(rect_img, 5, -4)
        for h in (0.0, 8.0):
            base = match_images(moved, rect_img, force_params=ForceParams(height_px=h))
            scaled = match_images(moved, rect_img, force_params=ForceParams(
                strength=10.0 ** exponent, height_px=h))
            assert scaled == base

    def test_no_lattice_point_evaluated_twice(self, rect_img, monkeypatch):
        points, buffers_seen = [], []
        real = emforce._field_sums

        def recording(c2, px, py, params, operands=None):
            # image currents take the product form, which this records too
            assert operands is not None
            points.extend(zip(px.tolist(), py.tolist()))
            sums = real(c2, px, py, params, operands)
            # and every step evaluates in the thread's one set of buffers
            buffers_seen.append(emforce._kept.buffers)
            return sums

        monkeypatch.setattr(emforce, "_field_sums", recording)
        moved = shift_image(rect_img, 5, -4)
        n = len(extract_current(moved))
        # README's round trip at h 8, then the walk of test_recovers_rectangle_shift
        for h, steps in ((8.0, 5), (0.0, 9)):
            points.clear()
            buffers_seen.clear()
            result = match_images(moved, rect_img, force_params=ForceParams(height_px=h))
            assert buffers_seen and all(b is buffers_seen[0] for b in buffers_seen)
            assert result.status is MatchStatus.MATCHED
            assert result.steps == steps
            assert len(points) == len(set(points))
            # the first cell reads n points; a step never needs more than n new ones
            assert n <= len(points) <= n * len(result.path.positions)

    def test_trapped_walk_stops_in_its_cycle(self):
        line, square = synth_shape("line", 32, 32), synth_shape("square", 32, 32)
        result = match_images(line, square, start_offset=(-3, -6))
        assert result.status is MatchStatus.TRAPPED
        path = result.path.positions
        assert path == ((13, 10), (13, 11), (14, 11), (15, 12), (15, 11), (14, 12))
        assert len(set(path)) == len(path)
        assert result.path.terminal == path[-1]
        # the next move would re-enter the path: a cycle, not a spent budget
        fmap = force_map_fast(extract_current(line), extract_current(square))
        x, y = path[-1]
        dx, dy = discretize8(fmap.cell(x, y)).step
        assert (x + dx, y + dy) in path[:-2]

    def test_divergent_start_reports_diverged(self, rect_img):
        result = match_images(rect_img, rect_img,
                              force_params=ForceParams(height_px=8.0),
                              start_offset=(-16, -16))
        assert result.status is MatchStatus.DIVERGED

    def test_start_offset_must_stay_on_grid(self, rect_img):
        with pytest.raises(ValueError, match=r"start \(32, 16\) outside 32x32 map"):
            match_images(rect_img, rect_img, start_offset=(16, 0))

    def test_fractional_start_offset_is_rejected(self, rect_img):
        # evaluating forces at fractional shifts used to report Matched (4.5, -4)
        moved = shift_image(rect_img, 5, -4)
        with pytest.raises(ValueError, match=r"start \(16.5, 16\) must be a pair of integers"):
            match_images(moved, rect_img, start_offset=(0.5, 0))

    def test_numpy_integer_start_offset_gives_json_ready_result(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        result = match_images(moved, rect_img, start_offset=(np.int64(2), 1))
        assert result == match_images(moved, rect_img, start_offset=(2, 1))
        json.dumps(match_result_json(result))

    @pytest.mark.parametrize("params", [ForceParams(min_r=1000.0), ForceParams(height_px=1e200)])
    def test_a_force_model_that_sums_nothing_is_an_error(self, rect_img, params):
        # Every pair lies within min_r, or |r|^3 overflows: the start cell has
        # F = G = 0, which must not read as a balance at shift zero.
        moved = shift_image(rect_img, 3, -2)
        assert match_images(moved, rect_img).detected_shift == (3, -2)
        with pytest.raises(ValueError, match="sums nothing at the start shift"):
            match_images(moved, rect_img, force_params=params)

    def test_blank_image_has_no_current(self, rect_img):
        blank = GrayImage(32, 32, np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(EmptyCurrentError):
            match_images(blank, rect_img)

    def test_result_json_shape(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        doc = match_result_json(match_images(moved, rect_img))
        assert doc["detected_shift"] == [5, -4]
        assert doc["status"] == "Matched"
        assert doc["steps"] == 9
        assert doc["path"][0] == [16, 16]
        assert len(doc["path"]) == doc["steps"] + 1
