"""Acceptance gate: one test per shipped guarantee, numbered 1-11.

Each test asserts a headline behavior of the whole pipeline at its stated
tolerance and time budget; `pytest -v` prints one pass/fail line apiece.
"""

import json
import math
import time

import numpy as np

from emmatch import (CurrentElement, ForceParams, Label, MatchStatus, Vec2,
                     classification_rgb, classify_map, extract_current,
                     follow_path, force_map, force_map_fast, force_map_tsv,
                     force_on_element, match_images, match_result_json,
                     pair_force, shift_image, sobel_field, summarize_map,
                     synth_shape, total_force)
from emmatch.cli import render_direction_glyphs
from emmatch.matchmap import PathStatus
from conftest import random_current

H8 = ForceParams(height_px=8.0)


def test_criterion_01_square_current_geometry(square_img, square_current):
    t0 = time.perf_counter()
    field = sobel_field(square_img)
    current = extract_current(square_img)
    gx = field.gx[current.ys, current.xs]
    gy = field.gy[current.ys, current.xs]
    assert len(current) == 84
    # exact quarter-turn: perpendicular to the gradient, same magnitude
    assert np.all(current.tx * gx + current.ty * gy == 0.0)
    assert np.all(np.hypot(current.tx, current.ty) == np.hypot(gx, gy))
    assert np.array_equal(current.tx, gy)
    assert np.array_equal(current.ty, -gx)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_pair_force_unit_cases():
    east = CurrentElement(0, 0, 1.0, 0.0)
    below = Vec2(0.0, 1.0)  # offset of the first element: one cell south
    parallel = pair_force(east, east, below)
    assert (parallel.x, parallel.y, parallel.z) == (0.0, -1.0, 0.0)  # pulled north
    west = CurrentElement(0, 0, -1.0, 0.0)
    antiparallel = pair_force(east, west, below)
    assert (antiparallel.x, antiparallel.y, antiparallel.z) == (0.0, 1.0, 0.0)


def test_criterion_03_self_force_cancellation(square_current):
    c = square_current
    f = total_force(c, c, Vec2(0.0, 0.0))
    # independent scalar accumulation of every pair's in-plane magnitude
    elements = list(c)
    term_sum = 0.0
    for a in elements:
        for b in elements:
            p = pair_force(a, b, Vec2(0.0, 0.0))
            term_sum += math.hypot(p.x, p.y)
    assert term_sum > 0.0
    assert math.hypot(f.x, f.y) <= 1e-9 * term_sum


def test_criterion_04_restoring_signs(rect_current, ellipse_current):
    t0 = time.perf_counter()
    f = total_force(rect_current, rect_current, Vec2(5.0, -4.0))
    assert f.x < 0.0 and f.y > 0.0
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    g = total_force(ellipse_current, ellipse_current, Vec2(-6.0, -6.0))
    assert g.x > 0.0 and g.y > 0.0
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_total_equals_element_sum():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        c1 = random_current(rng)
        c2 = random_current(rng)
        shift = Vec2(float(rng.integers(-4, 5)), float(rng.integers(-4, 5)))
        for strength in (1.0, 1.7):
            params = ForceParams(strength=strength,
                                 height_px=float(rng.uniform(0.0, 4.0)))
            total = total_force(c1, c2, shift, params)
            acc = [0.0, 0.0, 0.0]
            scale = [0.0, 0.0, 0.0]
            for i in range(len(c1)):
                f = force_on_element(c1.element(i), c2, shift, params)
                for k, v in enumerate((f.x, f.y, f.z)):
                    acc[k] += v
                    scale[k] += abs(v)
            for k, v in enumerate((total.x, total.y, total.z)):
                assert abs(v - acc[k]) <= 1e-12 * max(scale[k], 1e-30)
            if strength == 1.0:  # identical accumulation order: bit-equal
                assert (total.x, total.y, total.z) == tuple(acc)


def test_criterion_06_fast_map_matches_reference(rect_current, ellipse_current):
    naive_s = fast_s = None
    for current in (rect_current, ellipse_current):
        for h in (0.0, 5.0, 8.0):
            params = ForceParams(height_px=h)
            t0 = time.perf_counter()
            naive = force_map(current, current, params)
            t1 = time.perf_counter()
            fast = force_map_fast(current, current, params)
            t2 = time.perf_counter()
            if naive_s is None:
                naive_s, fast_s = t1 - t0, t2 - t1
            # per-cell 1e-9 relative, floored by the map's force scale so
            # symmetric-cancellation cells (pure rounding residue) compare
            # against the magnitudes actually summed
            scale = max(float(np.abs(naive.fx).max()), float(np.abs(naive.fy).max()))
            for a, b in ((fast.fx, naive.fx), (fast.fy, naive.fy)):
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.abs(b), scale))
    assert naive_s >= 5.0 * fast_s


def test_criterion_07_lifted_basin_growth(rect_current):
    c = rect_current
    t0 = time.perf_counter()
    cls_naive = classify_map(force_map(c, c, H8))
    assert time.perf_counter() - t0 < 60.0
    t0 = time.perf_counter()
    cls_fast = classify_map(force_map_fast(c, c, H8))
    assert time.perf_counter() - t0 < 5.0
    assert np.array_equal(cls_naive.codes, cls_fast.codes)
    ox, oy = cls_fast.origin
    for dy in range(-3, 4):
        for dx in range(-3, 4):
            assert cls_fast.label(ox + dx, oy + dy) is Label.CONVERGENCE
    flat = summarize_map(classify_map(force_map_fast(c, c)))
    lifted = summarize_map(cls_fast)
    assert lifted["convergence"] > flat["convergence"]


def test_criterion_08_shift_recovery_round_trip(rect_img, ellipse_img,
                                                rect_current, ellipse_current):
    t0 = time.perf_counter()
    for img, current in ((rect_img, rect_current), (ellipse_img, ellipse_current)):
        cls = classify_map(force_map_fast(current, current, H8))
        ox, oy = cls.origin
        for dy in range(-5, 6):
            for dx in range(-5, 6):
                if cls.label(ox + dx, oy + dy) is not Label.CONVERGENCE:
                    continue
                result = match_images(shift_image(img, dx, dy), img,
                                      force_params=H8)
                assert result.status is MatchStatus.MATCHED, (dx, dy)
                assert result.detected_shift == (dx, dy)
        # walks started on any divergent cell must leave the grid
        for y in range(cls.height):
            for x in range(cls.width):
                if cls.label(x, y) is Label.DIVERGENCE:
                    result = match_images(img, img, force_params=H8,
                                          start_offset=(x - ox, y - oy))
                    assert result.status is MatchStatus.DIVERGED, (x, y)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_strength_invariance(rect_img, ellipse_img,
                                          rect_current, ellipse_current):
    def snapshot(strength):
        maps = []
        for current in (rect_current, ellipse_current):
            for h in (0.0, 8.0):
                p = ForceParams(strength=strength, height_px=h)
                maps.append(classify_map(force_map_fast(current, current, p)).codes)
        matches = []
        for img, shift, h in ((rect_img, (5, -4), 0.0), (rect_img, (5, -4), 8.0),
                              (ellipse_img, (-6, -6), 8.0), (rect_img, (0, 0), 0.0)):
            p = ForceParams(strength=strength, height_px=h)
            r = match_images(shift_image(img, *shift), img, force_params=p)
            matches.append((r.detected_shift, r.status, r.steps,
                            r.path.positions, r.path.terminal))
        return maps, matches

    base_maps, base_matches = snapshot(1.0)
    for strength in (0.5, 250.0):
        maps, matches = snapshot(strength)
        assert all(np.array_equal(a, b) for a, b in zip(maps, base_maps))
        assert matches == base_matches


def test_criterion_10_deterministic_reruns(rect_img):
    moved = shift_image(rect_img, 5, -4)

    def pipeline():
        c1 = extract_current(moved)
        c2 = extract_current(rect_img)
        naive = force_map(c1, c2)
        fast = force_map_fast(c1, c2)
        cls = classify_map(fast)
        result = match_images(moved, rect_img)
        return (force_map_tsv(naive).encode(),
                force_map_tsv(fast).encode(),
                classification_rgb(cls).tobytes(),
                json.dumps(match_result_json(result), sort_keys=True).encode())

    first = pipeline()
    again = pipeline()
    assert first == again


def test_criterion_11_constructed_map_outcomes():
    from emmatch import ForceMap

    def manual(fx, fy):
        fx = np.asarray(fx, dtype=np.float64)
        h, w = fx.shape
        return ForceMap(w, h, w // 2, h // 2, fx, np.asarray(fy, dtype=np.float64))

    # every cell pulled straight at the origin: full convergence
    xs = np.arange(5)[None, :].repeat(5, axis=0)
    ys = np.arange(5)[:, None].repeat(5, axis=1)
    radial = manual(2 - xs, 2 - ys)
    assert summarize_map(classify_map(radial)) == {
        "convergence": 25, "divergence": 0, "locally_trapped": 0}

    # uniform eastward flow: every free walk leaves the grid ...
    east = manual(np.ones((5, 5)), np.zeros((5, 5)))
    for y in range(5):
        for x in range(5):
            trace = follow_path(east, (x, y), stop_at_origin=False)
            assert trace.status is PathStatus.OUT_OF_BOUNDS
    assert render_direction_glyphs(east) == (">" * 5 + "\n") * 5
    # ... so classification is divergent everywhere except the cells whose
    # straight ray passes through the origin, which arrive there instead
    cls = classify_map(east)
    for y in range(5):
        for x in range(5):
            want = Label.CONVERGENCE if (y == 2 and x < 2) else Label.DIVERGENCE
            assert cls.label(x, y) is want

    # mutually pointing pair away from the origin: trapped, feeders included
    fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
    fx[0, 0] = 1.0
    fx[0, 1] = -1.0
    fy[1, 0] = -1.0
    cls = classify_map(manual(fx, fy))
    assert cls.label(0, 0) is Label.LOCALLY_TRAPPED
    assert cls.label(1, 0) is Label.LOCALLY_TRAPPED
    assert cls.label(0, 1) is Label.LOCALLY_TRAPPED
    # a force-free origin is its own balance point: convergence
    assert cls.label(2, 2) is Label.CONVERGENCE

    # four-cell rotor never balances: budget runs out, trapped
    fx = np.zeros((5, 5)); fy = np.zeros((5, 5))
    fx[0, 0] = 1.0; fy[0, 1] = 1.0; fx[1, 1] = -1.0; fy[1, 0] = -1.0
    rotor = manual(fx, fy)
    assert follow_path(rotor, (0, 0)).status is PathStatus.STEP_LIMIT
    cls = classify_map(rotor)
    for cell in [(0, 0), (1, 0), (1, 1), (0, 1)]:
        assert cls.label(*cell) is Label.LOCALLY_TRAPPED
