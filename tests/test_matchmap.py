import math

import numpy as np
import pytest

from emmatch import (ClassificationMap, Direction8, EmptyCurrentError,
                     ForceMap, ForceParams, GrayImage, Label, MatchStatus,
                     PathStatus, Vec2, classification_rgb, classify_map,
                     discretize8, follow_path, force_map, force_map_fast,
                     match_images, match_result_json, shift_image,
                     summarize_map, synth_shape)
from emmatch.matchmap import ZERO_FORCE_EPS

C = math.cos(math.radians(22.5))
S = math.sin(math.radians(22.5))


def manual_map(fx, fy):
    fx = np.asarray(fx, dtype=np.float64)
    h, w = fx.shape
    return ForceMap(w, h, w // 2, h // 2, fx, np.asarray(fy, dtype=np.float64))


def uniform_east(w=5, h=5):
    return manual_map(np.ones((h, w)), np.zeros((h, w)))


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

    def test_balance_wins_over_exhausted_budget(self):
        fx = np.zeros((5, 5))
        trace = follow_path(manual_map(fx, fx), (1, 1), max_steps=1)
        assert trace.status is PathStatus.BALANCE_OSCILLATION

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
        fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
        fx[0, 0] = 1.0   # E
        fy[0, 1] = 1.0   # S
        fx[1, 1] = -1.0  # W
        fy[1, 0] = -1.0  # N
        trace = follow_path(manual_map(fx, fy), (0, 0), max_steps=8)
        assert trace.status is PathStatus.STEP_LIMIT
        assert trace.steps == 8
        assert trace.terminal == (0, 0)  # two full laps of the four-cycle

    def test_default_budget_scales_with_map(self):
        fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
        fx[0, 0] = 1.0; fy[0, 1] = 1.0; fx[1, 1] = -1.0; fy[1, 0] = -1.0
        trace = follow_path(manual_map(fx, fy), (0, 0))
        assert trace.status is PathStatus.STEP_LIMIT
        assert trace.steps == 4 * 5 * 5

    def test_start_and_budget_validation(self):
        fmap = uniform_east()
        with pytest.raises(ValueError):
            follow_path(fmap, (5, 0))
        with pytest.raises(ValueError):
            follow_path(fmap, (0, 0), max_steps=0)


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
        fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
        fx[0, 0] = 1.0; fy[0, 1] = 1.0; fx[1, 1] = -1.0; fy[1, 0] = -1.0
        cls = classify_map(manual_map(fx, fy), max_steps=10)
        for cell in [(0, 0), (1, 0), (1, 1), (0, 1)]:
            assert cls.label(*cell) is Label.LOCALLY_TRAPPED

    def test_label_bounds_checked(self):
        cls = classify_map(uniform_east())
        with pytest.raises(ValueError):
            cls.label(0, 5)

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
        params = ForceParams(height_px=8.0)
        a = classify_map(force_map(rect_current, rect_current, params))
        b = classify_map(force_map_fast(rect_current, rect_current, params))
        assert np.array_equal(a.codes, b.codes)


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
        assert result.steps == 11
        assert result.path.positions == (
            (16, 16), (16, 17), (16, 18), (16, 19), (16, 20), (15, 20),
            (14, 20), (13, 20), (12, 20), (11, 20), (11, 19), (11, 20))
        assert result.path.terminal == (11, 20)

    def test_identity_match_settles_at_zero(self, rect_img):
        result = match_images(rect_img, rect_img)
        assert result.status is MatchStatus.MATCHED
        assert result.detected_shift == (0, 0)
        assert result.steps == 2

    def test_walk_equals_reference_map_walk(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        result = match_images(moved, rect_img)
        from emmatch import extract_current
        fmap = force_map(extract_current(moved), extract_current(rect_img))
        trace = follow_path(fmap, fmap.origin, stop_at_origin=False)
        assert trace.positions == result.path.positions
        assert trace.terminal == result.path.terminal

    def test_divergent_start_reports_diverged(self, rect_img):
        result = match_images(rect_img, rect_img,
                              force_params=ForceParams(height_px=8.0),
                              start_offset=(-16, -16))
        assert result.status is MatchStatus.DIVERGED

    def test_tiny_budget_reports_trapped(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        result = match_images(moved, rect_img, max_steps=1)
        assert result.status is MatchStatus.TRAPPED
        assert result.steps == 1

    def test_start_offset_must_stay_on_grid(self, rect_img):
        with pytest.raises(ValueError):
            match_images(rect_img, rect_img, start_offset=(16, 0))

    def test_blank_image_has_no_current(self, rect_img):
        blank = GrayImage(32, 32, np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(EmptyCurrentError):
            match_images(blank, rect_img)

    def test_result_json_shape(self, rect_img):
        moved = shift_image(rect_img, 5, -4)
        doc = match_result_json(match_images(moved, rect_img))
        assert doc["detected_shift"] == [5, -4]
        assert doc["status"] == "Matched"
        assert doc["steps"] == 11
        assert doc["path"][0] == [16, 16]
        assert len(doc["path"]) == doc["steps"] + 1
