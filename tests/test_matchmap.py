import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GLYPHS, KINDS, traced_peak
from emmatch import (Direction8, ForceMap, ForceParams, Label, MatchStatus,
                     PathStatus, PathTrace, Vec2, classification_rgb,
                     classify_map, discretize8, extract_current, follow_path,
                     force_map_fast, match_images, match_result_json,
                     shift_image, summarize_map, synth_shape)
from emmatch import emforce, matchmap
from emmatch.cli import render_direction_glyphs
from emmatch.matchmap import BALANCE_RTOL, ZERO_FORCE_EPS, _sectors

C = math.cos(math.radians(22.5))
S = math.sin(math.radians(22.5))


def manual_map(fx, fy=None):
    """A map of forces alone, with its origin in the middle; fy is 0 unless given."""
    fx = np.asarray(fx, dtype=np.float64)
    h, w = fx.shape
    return ForceMap(w, h, w // 2, h // 2, fx, np.zeros((h, w)) if fy is None else fy)


EAST = manual_map(np.ones((5, 5)))  # uniform east flow


def rotor_map():
    """A four-cell clockwise cycle in the top-left corner, balance elsewhere."""
    fx, fy = np.zeros((2, 5, 5))
    fx[0, 0], fy[0, 1], fx[1, 1], fy[1, 0] = 1.0, 1.0, -1.0, -1.0  # E, S, W, N
    return manual_map(fx, fy)


# discretize8(Vec2(fx, fy)) by hand: (fx, fy, direction, or None at balance).
DIRECTIONS = [
    # the eight unit moves, each along its step
    (1.0, 0.0, Direction8.E), (1.0, 1.0, Direction8.SE), (0.0, 1.0, Direction8.S),
    (-1.0, 1.0, Direction8.SW), (-1.0, 0.0, Direction8.W), (-1.0, -1.0, Direction8.NW),
    (0.0, -1.0, Direction8.N), (1.0, -1.0, Direction8.NE),
    # without G, a force below the 1e-12 cutoff is balanced, and one at it is not
    (0.0, 0.0, None), (5e-13, -5e-13, None), (1e-12, 0.0, Direction8.E),
    # a boundary belongs to the sector it opens; these four rotate onto an axis exactly
    (C, S, Direction8.SE), (-S, C, Direction8.SW), (-C, -S, Direction8.NW), (S, -C, Direction8.NE),
    # just inside east
    (C, S - 1e-9, Direction8.E), (C, -S + 1e-9, Direction8.E),
    # components far above 2**-500, which a lift by 2**600 would overflow
    (-2.0 ** 450, 2.0 ** 450, Direction8.SW),
]


class TestDiscretize8:
    @pytest.mark.parametrize("fx, fy, direction", DIRECTIONS)
    def test_direction(self, fx, fy, direction):
        assert discretize8(Vec2(fx, fy)) is direction
        assert render_direction_glyphs(manual_map([[fx]], [[fy]])) == GLYPHS[direction] + "\n"
        if direction is not None and {abs(fx), abs(fy)} <= {0.0, 1.0}:
            assert direction.step == (fx, fy)

    def test_balance_is_relative_to_g(self):
        # with G, a force is balanced at |F| <= 1e-12 * G, whatever its size
        fx = np.array([[1e-13, 1e-6, 2e-6, 0.0]])
        g = np.array([[1e-3, 1e6, 1e6, 0.0]])
        fmap = ForceMap(4, 1, 0, 0, fx, np.zeros((1, 4)), g)
        assert BALANCE_RTOL == ZERO_FORCE_EPS == 1e-12
        assert render_direction_glyphs(fmap) == ">.>.\n"
        assert render_direction_glyphs(ForceMap(4, 1, 0, 0, fx, np.zeros((1, 4)))) == ".>>.\n"
        assert follow_path(fmap, (1, 0)).status is PathStatus.BALANCE_OSCILLATION
        for factor in (1e-200, 1e200):  # scale-free: G scales with the force
            assert render_direction_glyphs(fmap.scaled(factor)) == ">.>.\n"
        flipped = fmap.scaled(-1.0)  # G sums magnitudes, so it scales by |factor|
        assert render_direction_glyphs(flipped) == "<.<.\n"
        assert flipped.g.tobytes() == fmap.g.tobytes()

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


def pair_map(east, west):
    """Balance on 5 x 5 except cells (1, 1), pushing east, and (2, 1), pushing west."""
    fx = np.zeros((5, 5))
    fx[1, 1], fx[1, 2] = east, -west
    return manual_map(fx)


def no_force_map(origin_sums=True):
    """Uniform east flow on 5 x 5 with G = 1, except cell (3, 2), which sums
    nothing (F = G = 0), and the origin (2, 2) too unless origin_sums."""
    fx, g = np.ones((5, 5)), np.ones((5, 5))
    fx[2, 3] = g[2, 3] = 0.0
    if not origin_sums:
        fx[2, 2] = g[2, 2] = 0.0
    return ForceMap(5, 5, 2, 2, fx, np.zeros((5, 5)), g)


ROW_2 = ((0, 2), (1, 2), (2, 2), (3, 2), (4, 2))  # row 2, west to east
ROTOR = ((0, 0), (1, 0), (1, 1), (0, 1))  # rotor_map's cycle
PLAIN = manual_map(no_force_map().fx)  # no_force_map's forces without G: (3, 2) balances
ARRIVED, BALANCE, OUT, LIMIT, NONE = PathStatus  # in the order of its members

# follow_path(map, start, stop_at_origin) by hand: (positions, status, terminal), in
# Python ints.  Each row's id names the test it replaced.
WALKS = [
    pytest.param(EAST, (0, 2), True, ROW_2[:3], ARRIVED, (2, 2), id="arrives_at_origin"),
    # the departing move is not recorded; the last in-grid cell terminates
    pytest.param(EAST, (3, 2), True, ROW_2[3:], OUT, (4, 2), id="walks_off_the_grid"),
    pytest.param(EAST, (0, 2), False, ROW_2, OUT, (4, 2),
                 id="passes_through_origin_when_not_stopping"),
    pytest.param(PLAIN, (3, 2), True, ROW_2[3:4], BALANCE, (3, 2), id="balance_at_start"),
    # a bounce ends on the cell of the smaller force, from either side
    pytest.param(pair_map(2.0, 1.0), (1, 1), True, ((1, 1), (2, 1), (1, 1)), BALANCE, (2, 1),
                 id="oscillation_terminal_has_smaller_force-strong-side"),
    pytest.param(pair_map(2.0, 1.0), (2, 1), True, ((2, 1), (1, 1), (2, 1)), BALANCE, (2, 1),
                 id="oscillation_terminal_has_smaller_force-weak-side"),
    # a tie keeps the earlier cell
    pytest.param(pair_map(1.0, 1.0), (1, 1), True, ((1, 1), (2, 1), (1, 1)), BALANCE, (1, 1),
                 id="oscillation_tie_keeps_earlier_cell-1-1"),
    pytest.param(pair_map(1.0, 1.0), (2, 1), True, ((2, 1), (1, 1), (2, 1)), BALANCE, (2, 1),
                 id="oscillation_tie_keeps_earlier_cell-2-1"),
    # criterion 11's rotor: each walk traces the four cells once and stops before its start
    *[pytest.param(rotor_map(), ROTOR[i], True, ROTOR[i:] + ROTOR[:i], LIMIT, ROTOR[i - 1],
                   id=f"rotor_stops_at_first_revisit-{i}") for i in range(4)],
    pytest.param(EAST, (np.int64(0), np.int64(2)), True, ROW_2[:3], ARRIVED, (2, 2),
                 id="numpy_integer_start_walks_in_python_ints"),
    # a walk stops on a cell that sums nothing, also where it starts or is the origin
    pytest.param(no_force_map(), (0, 2), False, ROW_2[:4], NONE, (3, 2),
                 id="walk_stops_on_a_cell_that_sums_nothing"),
    pytest.param(no_force_map(), (3, 2), True, ROW_2[3:4], NONE, (3, 2),
                 id="walk_stops_on_a_cell_that_sums_nothing-start"),
    pytest.param(PLAIN, (0, 2), False, ROW_2[:4], BALANCE, (3, 2),
                 id="walk_stops_on_a_cell_that_sums_nothing-without-g"),
    pytest.param(no_force_map(origin_sums=False), (0, 2), True, ROW_2[:3], NONE, (2, 2),
                 id="a_step_onto_an_origin_that_sums_nothing_does_not_arrive"),
    pytest.param(no_force_map(), (0, 2), True, ROW_2[:3], ARRIVED, (2, 2),
                 id="a_step_onto_an_origin_that_sums_nothing_does_not_arrive-sums"),
]


class TestFollowPath:
    @pytest.mark.parametrize("fmap, start, stop_at_origin, positions, status, terminal", WALKS)
    def test_walk(self, fmap, start, stop_at_origin, positions, status, terminal):
        trace = follow_path(fmap, start, stop_at_origin)
        assert trace == PathTrace(positions, status, terminal)
        assert all(type(v) is int for cell in (*trace.positions, trace.terminal) for v in cell)


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


# classify_map's default row blocks, and blocks of one row, so that a small map runs in several.
BLOCKS = [pytest.param(matchmap._CLASSIFY_CELLS, id="default-block"),
          pytest.param(1, id="one-row-block")]


@pytest.mark.parametrize("block", BLOCKS)
@given(constructed_maps())
# a force of 5e-324 south: rotating it unscaled rounds its east part to 0, a boundary
@example(ForceMap(1, 2, 0, 1, np.zeros((2, 1)), [[5e-324], [0.0]], [[5e-324], [1.0]]))
@settings(max_examples=100, deadline=None)
def test_walks_agree_with_reference_loop(block, fmap):
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
    with mock.patch.object(matchmap, "_CLASSIFY_CELLS", block):
        cls = classify_map(fmap)
    assert {cell: cls.label(*cell) for cell in want_labels} == want_labels
    assert render_direction_glyphs(fmap) == "".join(
        "".join(GLYPHS[reference_direction(fmap, x, y)] for x in range(fmap.width)) + "\n"
        for y in range(fmap.height))


class TestNoForce:
    """A computed cell with G = 0 summed nothing: no force, and no balance."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_classify_traps_cells_that_sum_nothing_and_their_feeders(self, monkeypatch, block):
        monkeypatch.setattr(matchmap, "_CLASSIFY_CELLS", block)
        cls = classify_map(no_force_map())  # cells may be numpy integers
        assert [cls.label(np.int64(x), np.uint8(2)) for x in range(5)] == [
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

class TestClassifyMap:
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


def test_classify_map_peak_memory():
    # Successors are found a block of rows at a time, into one intp array, so the pass
    # holds about the map's three planes: 1.04 times them here.
    n = 512
    rng = np.random.default_rng(0)
    fx, fy = rng.normal(size=(2, n, n))
    g = np.abs(fx) + np.abs(fy) + rng.random((n, n))
    fx[::7, ::5] = fy[::7, ::5] = 0.0  # balanced
    fx[::11, ::3] = fy[::11, ::3] = g[::11, ::3] = 0.0  # sums nothing
    fmap = ForceMap(n, n, n // 2, n // 2, fx, fy, g)
    assert traced_peak(lambda: classify_map(fmap)) <= 1.25 * 3 * fmap.fx.nbytes


# classification_rgb(classify_map(map)) by hand, {cell: RGB}: a convergent origin is marked
# and other convergent cells are black, a divergent origin is not marked, trapped cells are gray.
RADIAL = manual_map(*(2.0 - np.indices((5, 5))[::-1]))  # each cell's force points at (2, 2)
COLOURS = [
    (RADIAL, {(2, 2): (64, 64, 64), **{c: (0, 0, 0) for c in np.ndindex(5, 5) if c != (2, 2)}}),
    (EAST, {(2, 2): (255, 255, 255), (0, 2): (0, 0, 0)}),
    (pair_map(1.0, 1.0), {(1, 1): (128, 128, 128), (2, 1): (128, 128, 128)}),
]


@pytest.mark.parametrize("fmap, colours", COLOURS)
def test_colour(fmap, colours):
    image = classification_rgb(classify_map(fmap))
    assert image.shape == (fmap.height, fmap.width, 3)
    assert {(x, y): tuple(image[y, x]) for x, y in colours} == colours


RECT = synth_shape("rectangle", 32, 32)
MATCHED, DIVERGED, TRAPPED = MatchStatus  # in the order of its members
# match_images(moved, reference, force_params=params, start_offset=start) by hand:
# (status, detected shift, steps, path).  Each row's id names the test it replaced.
MATCHES = [
    # the walk stops on the match cell, where the force is rounding residue
    pytest.param(shift_image(RECT, 5, -4), RECT, ForceParams(), (0, 0), MATCHED, (5, -4), 9, (
        (16, 16), (16, 17), (16, 18), (16, 19), (16, 20), (15, 20), (14, 20), (13, 20), (12, 20),
        (11, 20)), id="recovers_rectangle_shift"),
    pytest.param(shift_image(RECT, 3, -2), RECT, ForceParams(), (0, 0), MATCHED, (3, -2), 5,
                 ((16, 16), (16, 17), (16, 18), (15, 18), (14, 18), (13, 18)),
                 id="recovers_rectangle_shift-3-m2"),
    # the self-pair match is rounding residue of both sums: a balance
    *[pytest.param(img, img, ForceParams(height_px=h), (0, 0), MATCHED, (0, 0), 0, ((16, 16),),
                   id=f"identity_match_settles_at_zero-{kind}-{h}")
      for kind in KINDS for img in [synth_shape(kind, 32, 32)] for h in (0.0, 8.0)],
    pytest.param(RECT, RECT, ForceParams(height_px=8.0), (-16, -16), DIVERGED, (16, 16), 0,
                 ((0, 0),), id="divergent_start_reports_diverged"),
    pytest.param(synth_shape("line", 32, 32), synth_shape("square", 32, 32), ForceParams(),
                 (-3, -6), TRAPPED, (2, 4), 5,
                 ((13, 10), (13, 11), (14, 11), (15, 12), (15, 11), (14, 12)),
                 id="trapped_walk_stops_in_its_cycle"),
]


class TestMatchImages:
    @pytest.mark.parametrize("moved, reference, params, start, status, shift, steps, path", MATCHES)
    def test_match(self, moved, reference, params, start, status, shift, steps, path):
        result = match_images(moved, reference, force_params=params, start_offset=start)
        assert (result.status, result.detected_shift, result.steps) == (status, shift, steps)
        assert result.path.positions == path
        assert result.path.terminal == (16 - shift[0], 16 - shift[1])
        if status is TRAPPED:
            # the next move would re-enter the path: a cycle, not a spent budget
            assert len(set(path)) == len(path)
            fmap = force_map_fast(extract_current(moved), extract_current(reference), params)
            x, y = path[-1]
            dx, dy = discretize8(fmap.cell(x, y)).step
            assert (x + dx, y + dy) in path[:-2]

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
        points = []
        real = emforce._field_sums

        def recording(c2, px, py, params, operands=None, **kwargs):
            # image currents take the product form, which this records too
            assert operands is not None
            points.extend(zip(px.tolist(), py.tolist()))
            return real(c2, px, py, params, operands, **kwargs)

        monkeypatch.setattr(emforce, "_field_sums", recording)
        moved = shift_image(rect_img, 5, -4)
        n = len(extract_current(moved))
        # README's round trip at h 8, then the walk of test_recovers_rectangle_shift
        for h, steps in ((8.0, 5), (0.0, 9)):
            points.clear()
            result = match_images(moved, rect_img, force_params=ForceParams(height_px=h))
            assert result.status is MatchStatus.MATCHED
            assert result.steps == steps
            assert len(points) == len(set(points))
            # the first cell reads n points; a step never needs more than n new ones
            assert n <= len(points) <= n * len(result.path.positions)

    def test_numpy_integer_start_offset_gives_json_ready_result(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        result = match_images(moved, rect_img, start_offset=(np.int64(2), 1))
        assert result == match_images(moved, rect_img, start_offset=(2, 1))
        json.dumps(match_result_json(result))
