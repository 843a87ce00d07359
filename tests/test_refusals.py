"""The library's refusals, over one table of calls and messages.

Each stage refuses an input it cannot handle with ValueError, or a subclass
that names the cause, rather than return a plausible-looking wrong answer.
A row's id names the refusal, then its case; its call runs with every
warning an error, so no refusal may warn on its way.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import random_current
from emmatch import (ClassificationMap, EdgeCurrent, EdgeMask, EdgeParams, EmptyCurrentError,
                     ForceMap, ForceParams, GrayImage, Vec2, VectorField, build_current, bz_at,
                     classify_map, discretize8, extract_current, follow_path, force_map,
                     force_map_fast, force_on_element, match_images, save_ppm, shift_image,
                     sobel_field, synth_shape, total_force)

NAN, INF = math.nan, math.inf
HUGE = 10 ** 400  # a whole number past float's range
RECT = synth_shape("rectangle", 32, 32)
MOVED = shift_image(RECT, 3, -2)  # matched at the default parameters
RECT_CURRENT = extract_current(RECT)
Z = np.array([], dtype=np.int64)
EMPTY, ONE = EdgeCurrent(8, 8, Z, Z, [], []), EdgeCurrent(8, 8, [1], [1], [1.0], [0.0])
OVERFLOWING = EdgeCurrent(8, 8, [1, 4], [2, 5], [1e300, 1.0], [0.0, 1e300])
EAST = ForceMap(5, 5, 2, 2, np.ones((5, 5)), np.zeros((5, 5)))
_rng = np.random.default_rng(19)
FMAP = force_map_fast(random_current(_rng), random_current(_rng))  # 16x16


def spike(shape, at, value, fill=0, dtype=np.float64):
    """An array of fill with value at index at."""
    a = np.full(shape, fill, dtype=dtype)
    a[at] = value
    return a


# (id, call, exception class, fragment searched for in its message as a regex)
REFUSALS = [
    # raster
    ("gray_image_rejects_out_of_range", partial(GrayImage, 2, 1, np.array([[0, 300]])),
     ValueError, r"intensities must lie in \[0, 255\]"),
    *[(f"save_ppm_rejects_non_rgb_samples-{case}", partial(save_ppm, rgb), ValueError, message)
      for case, rgb, message in (
        ("2d", np.zeros((2, 3), dtype=np.uint8), "expected \\(height, width, 3\\) array"),
        ("negative", np.full((1, 1, 3), -1, dtype=np.int16), "integers in \\[0, 255\\]"),
        ("float", np.zeros((1, 1, 3)), "integers in \\[0, 255\\]"),
        ("no-rows", np.zeros((0, 5, 3), dtype=np.uint8), "width and height must be positive"),
        ("no-columns", np.zeros((2, 0, 3), dtype=np.int16), "width and height must be positive"))],
    *[(f"shape_exceeding_bounds_rejected-{case}", partial(synth_shape, kind, n, n, **kw),
       ValueError, message) for case, kind, n, kw, message in (
        ("side", "square", 16, {"side": 20}, r"20x20 box at \(8.0, 8.0\) exceeds 16x16 image"),
        ("semi-axes", "ellipse", 16, {"semi_axes": (10.0, 3.0)},
         r"ellipse \(10.0, 3.0\) at \(8.0, 8.0\) exceeds 16x16 image"),
        ("center", "square", 32, {"side": 8, "center": (30.0, 16.0)},
         r"8x8 box at \(30.0, 16.0\) exceeds 32x32 image"),
        ("bottom", "rectangle", 8, {"rect": (4, 2), "center": (4.0, 7.5)},
         r"4x2 box at \(4.0, 7.5\) exceeds 8x8 image"),
        # past one edge only, so that each of the four bounds decides alone
        *[(f"circle-{side}", "circle", 16, {"radius": 4.0, "center": c}, "exceeds 16x16 image")
          for side, c in (("left", (3.0, 8.0)), ("right", (13.0, 8.0)), ("top", (8.0, 3.0)),
                          ("bottom", (8.0, 13.0)))],
        # NaN fails every bounds comparison; it must not draw an empty image.
        ("radius-nan", "circle", 32, {"radius": NAN}, "must be finite"),
        ("radius-inf", "circle", 32, {"radius": INF}, "must be finite"),
        ("center-nan", "circle", 32, {"center": (NAN, NAN)}, "must be finite"),
        ("center-inf", "square", 32, {"center": (INF, 16.0)}, "must be finite"),
        ("semi-axes-nan", "ellipse", 32, {"semi_axes": (NAN, 3.0)}, "must be finite"))],
    # Sizes are compared as integers, before a whole number past float's range is halved;
    # no array is longer than the largest intp.
    *[(f"oversized_shape_is_rejected_before_float_arithmetic-{case}",
       partial(synth_shape, kind, *size, **kw), ValueError, message)
      for case, kind, size, kw, message in (
        ("width", "square", (HUGE, 32), {}, "image dimensions must be at most"),
        ("height", "circle", (32, np.iinfo(np.intp).max + 1), {},
         f"image dimensions must be at most {np.iinfo(np.intp).max}, got 32x"),
        ("side", "square", (32, 32), {"side": HUGE}, r"box at \(16.0, 16.0\) exceeds 32x32 image"),
        ("thickness", "line", (32, 32), {"thickness": HUGE}, "exceeds 32x32 image"))],
    *[(f"degenerate_shape_rejected-{case}", partial(synth_shape, kind, *size, **kw), ValueError,
       message) for case, kind, size, kw, message in (
        ("image", "square", (0, 8), {}, "image dimensions must be positive"),
        ("image-height", "square", (8, 0), {}, "image dimensions must be positive"),
        ("side", "square", (32, 32), {"side": 0}, "box dimensions must be positive"),
        ("rect", "rectangle", (32, 32), {"rect": (8, 0)}, "box dimensions must be positive"),
        ("rect-width", "rectangle", (32, 32), {"rect": (0, 8)}, "box dimensions must be positive"),
        ("semi-axes", "ellipse", (32, 32), {"semi_axes": (0.0, 5.0)},
         "semi-axes must be positive"),
        ("second-semi-axis", "ellipse", (32, 32), {"semi_axes": (5.0, 0.0)},
         "semi-axes must be positive"))],
    ("unknown_kind_rejected", partial(synth_shape, "blob", 32, 32), ValueError,
     "unknown shape kind 'blob'"),
    # edgecurrent
    ("too_small_image_rejected",
     partial(sobel_field, GrayImage(2, 5, np.zeros((5, 2), np.uint8))), ValueError,
     "image must be at least 3x3 for Sobel, got 2x5"),
    *[(f"edge_params_validation-{pct}", partial(EdgeParams, threshold_pct=pct), ValueError,
       rf"threshold_pct must lie in \(0, 1\), got {pct}") for pct in (0.0, 1.0)],
    ("build_current_rejects_dim_mismatch",
     partial(build_current, sobel_field(synth_shape("square", 16, 16, side=6)),
             EdgeMask(8, 8, np.zeros((8, 8), dtype=bool))),
     ValueError, "field and mask dimensions differ"),
    # emforce
    *[(f"force_params_validation-{case}", partial(ForceParams, **kw), ValueError, message)
      for case, kw, message in (
        ("strength", {"strength": 0.0}, "strength must be positive, got 0.0"),
        ("height", {"height_px": -1.0}, "height_px must be nonnegative, got -1.0"),
        ("min_r", {"min_r": 0.0}, "min_r must be positive, got 0.0"),
        # squares to 0.0, which no distance is below
        ("min_r-square", {"min_r": 1e-200}, "nonzero square"))],
    *[(f"force_params_reject_non_finite-{field}-{value}", partial(ForceParams, **{field: value}),
       ValueError, f"{field} must be finite")
      for field in ("strength", "height_px", "min_r") for value in (NAN, INF, -INF)],
    *[(f"force_params_refuse_a_whole_number_past_float_range-{field}",
       partial(ForceParams, **{field: HUGE}), ValueError, f"{field} must be finite")
      for field in ("strength", "height_px", "min_r")],
    ("force_map_rejects_empty_currents-first", partial(force_map, EMPTY, ONE), EmptyCurrentError,
     "force_map requires two non-empty currents"),
    ("force_map_rejects_empty_currents-second", partial(force_map_fast, ONE, EMPTY),
     EmptyCurrentError, "force_map_fast requires two non-empty currents"),
    *[(f"force_map_cell_bounds-{case}", partial(FMAP.cell, *cell), ValueError, message)
      for case, cell, message in (
        ("west", (-1, 0), r"cell \(-1, 0\) outside 16x16 map"),
        ("south", (0, 16), r"cell \(0, 16\) outside 16x16 map"),
        ("fractional", (1.0, 0), r"cell \(1.0, 0\) must be a pair of integers"))],
    *[(f"force_map_rejects_non_finite_cells-{case}", partial(ForceMap, 3, 3, 1, 1, *arrays),
       ValueError, f"{case} is not finite") for case, arrays in (
        ("fx", (spike((3, 3), (1, 2), NAN), np.zeros((3, 3)))),
        ("fy", (np.zeros((3, 3)), spike((3, 3), (0, 0), -INF))),
        ("g", (np.zeros((3, 3)), np.zeros((3, 3)), spike((3, 3), (0, 0), -INF))))],
    ("force_map_rejects_negative_g", partial(ForceMap, 3, 3, 1, 1, np.zeros((3, 3)),
                                             np.zeros((3, 3)), spike((3, 3), (2, 1), -1e-300, 1)),
     ValueError, "g is negative"),
    # The unit-strength forces exceed 1, so strength 1e308 overflows to
    # infinity, and the error names the strength that did it.
    *[(f"overflowing_strength_is_rejected-{evaluate.__name__}",
       partial(evaluate, *args, ForceParams(strength=1e308)), ValueError,
       r"^force is not finite at strength 1e\+308$") for evaluate, args in (
        (total_force, (RECT_CURRENT, RECT_CURRENT, Vec2(5.0, -4.0))),
        (force_map_fast, (RECT_CURRENT, RECT_CURRENT)),
        (force_on_element, (RECT_CURRENT.element(0), RECT_CURRENT, Vec2(5.0, -4.0))),
        (bz_at, (RECT_CURRENT, 3.0, 3.0)))],
    # Tangents near 1e300 overflow the unscaled sums; the default strength
    # plays no part, so the error does not name it.
    *[(f"overflowing_force_sum_is_named-{evaluate.__name__}", partial(evaluate, *args),
       ValueError, "^force sum is not finite$") for evaluate, args in (
        (total_force, (OVERFLOWING, OVERFLOWING, Vec2(1.0, -1.0))),
        (force_on_element, (OVERFLOWING.element(1), OVERFLOWING, Vec2(1.0, -1.0))))],
    # A pair within min_r adds nothing unless a numerator overflows: here the z one,
    # t1x t2x h = 1e300 * 1e300, whose +-inf over the close pair's infinite |r|^3 is NaN.
    ("overflowing_force_sum_is_named-within-min_r",
     partial(total_force, OVERFLOWING, OVERFLOWING, Vec2(0.0, 0.0),
             ForceParams(height_px=1.0, min_r=1e3)), ValueError, "^force sum is not finite$"),
    # matchmap
    *[(f"non_finite_force_has_no_direction-{x}-{y}", partial(discretize8, Vec2(x, y)),
       ValueError, "not finite")
      for x, y in ((NAN, 0.0), (0.0, NAN), (INF, 0.0), (1.0, -INF), (NAN, INF))],
    ("start_and_budget_validation-off-grid", partial(follow_path, EAST, (5, 0)), ValueError,
     r"start \(5, 0\) outside 5x5 map"),
    ("start_and_budget_validation-fractional", partial(follow_path, EAST, (1.5, 2)), ValueError,
     r"start \(1.5, 2\) must be a pair of integers"),
    *[(f"a_map_in_which_no_cell_sums_anything_is_an_error-{case}-{build.__name__}",
       partial(build, extract_current(MOVED), RECT_CURRENT, params), ValueError,
       "sums nothing at any shift")
      for case, params in (("min_r", ForceParams(min_r=60.0)),
                           ("height", ForceParams(height_px=1e200)))
      for build in (force_map_fast, force_map)],
    # The map is built when the row runs, so a classify_map fault fails these rows
    # rather than the collection of this file.
    ("label_bounds_checked-off-grid", lambda: classify_map(EAST).label(0, 5), ValueError,
     r"cell \(0, 5\) outside 5x5 map"),
    ("label_bounds_checked-fractional", lambda: classify_map(EAST).label(1.0, 0), ValueError,
     "must be a pair of integers"),
    # A fractional origin is no cell: every walk would miss it, and the whole
    # map would read as trapped.
    *[(f"fractional_origin_is_rejected-{cls.__name__}", partial(cls, 3, 3, 1.5, 1, *arrays),
       ValueError, r"origin \(1.5, 1\) must be a pair of integers") for cls, arrays in (
        (ForceMap, (np.zeros((3, 3)), np.zeros((3, 3)))),
        (ClassificationMap, (np.zeros((3, 3), np.uint8),)))],
    ("start_offset_must_stay_on_grid", partial(match_images, RECT, RECT, start_offset=(16, 0)),
     ValueError, r"start \(32, 16\) outside 32x32 map"),
    # Evaluating forces at fractional shifts used to report Matched (4.5, -4).
    ("fractional_start_offset_is_rejected",
     partial(match_images, shift_image(RECT, 5, -4), RECT, start_offset=(0.5, 0)), ValueError,
     r"start \(16.5, 16\) must be a pair of integers"),
    # Every pair lies within min_r, or |r|^3 overflows: the start cell has
    # F = G = 0, which must not read as a balance at shift zero.
    *[(f"a_force_model_that_sums_nothing_is_an_error-{case}",
       partial(match_images, MOVED, RECT, force_params=params), ValueError,
       "sums nothing at the start shift")
      for case, params in (("min_r", ForceParams(min_r=1000.0)),
                           ("height", ForceParams(height_px=1e200)))],
    ("blank_image_has_no_current",
     partial(match_images, GrayImage(32, 32, np.zeros((32, 32), np.uint8)), RECT),
     EmptyCurrentError, "matching requires edge points in both images"),
    # the value types
    ("edge_current_rejects_float_positions-xs",
     partial(EdgeCurrent, 4, 4, [1.7, 2.2], [0.9, 3.99], [1.0, 1.0], [0.0, 0.0]), ValueError,
     "xs dtype float64"),
    ("edge_current_rejects_float_positions-ys",
     partial(EdgeCurrent, 4, 4, [1, 2], np.array([1.0, 2.0]), [1.0, 1.0], [0.0, 0.0]),
     ValueError, "ys dtype float64"),
    *[(f"edge_current_rejects_positions_off_the_grid-{x}-{y}",
       partial(EdgeCurrent, 4, 3, [1, x], [1, y], [1.0, 1.0], [0.0, 0.0]), ValueError, "4x3 grid")
      for x, y in ((-1, 0), (4, 0), (0, -1), (0, 3))],
    *[(f"complex_arrays_are_rejected-{case}", call, ValueError, f"{case} dtype complex128")
      for case, call in (
        ("fx", partial(ForceMap, 3, 2, 1, 1, np.zeros((2, 3)) + 1j, np.zeros((2, 3)))),
        ("gy", partial(VectorField, 3, 2, np.zeros((2, 3)), np.zeros((2, 3)) + 1j)),
        ("tx", partial(EdgeCurrent, 3, 2, [0], [0], [1j], [0.0])))],
    # A non-finite tangent used to surface later, as a numpy warning in total_force.
    *[(f"edge_current_rejects_non_finite_tangents-{tx}-{ty}",
       partial(EdgeCurrent, 4, 4, [0, 2], [0, 1], [tx, 1.0], [ty, 1.0]), ValueError,
       "tangents tx and ty must be finite")
      for tx, ty in ((INF, 1.0), (1.0, NAN), (-INF, NAN))],
    # Such a field thresholds to an empty mask, or builds a non-finite current. Only
    # finite vectors, every one of them, have a squared length to blame.
    *[(f"vector_field_rejects_non_finite_vectors_and_lengths-{gx}-{gy}",
       partial(VectorField, 2, 1, [[1.0, gx]], [[0.0, gy]]), ValueError,
       f"lengths must be finite{tail}$")
      for gx, gy, tail in ((NAN, 0.0, ""), (0.0, INF, ""),
                           (1.7e308, 1.7e308, ": a squared length overflows"))],
    # The length is the root of gx^2 + gy^2, which must be finite: a finite
    # vector longer than about 1.34e154 is refused with that reason.
    *[(f"vector_field_names_an_overflowing_squared_length-{gx}-{gy}",
       partial(VectorField, 2, 1, [[1.0, gx]], [[0.0, gy]]), ValueError,
       "lengths must be finite: a squared length overflows")
      for gx, gy in ((1e155, 0.0), (0.0, -2e154), (1e154, 1e154), (1.7e308, 1.7e308))],
    *[(f"edge_mask_rejects_numeric_masks-{dtype.__name__}",
       partial(EdgeMask, 3, 1, np.array([[0, 2, 1]], dtype=dtype)), ValueError, "mask dtype")
      for dtype in (np.uint8, np.int64, np.float64)],
    *[(f"classification_map_rejects_non_label_codes-{code}-{dtype.__name__}",
       partial(ClassificationMap, 3, 2, 1, 1, spike((2, 3), (1, 2), code, dtype=dtype)),
       ValueError, "codes") for code, dtype in ((3, np.uint8), (7, np.uint8), (256, np.uint16),
                                                (256, np.int64), (1.0, np.float64))],
    *[(f"map_rejects_an_origin_off_the_grid-{cls.__name__}-{ox}-{oy}",
       partial(cls, 3, 2, ox, oy, *arrays), ValueError, rf"origin \({ox}, {oy}\) outside 3x2 map")
      for cls, arrays in ((ForceMap, (np.zeros((2, 3)), np.zeros((2, 3)))),
                          (ClassificationMap, (np.zeros((2, 3), np.uint8),)))
      for ox, oy in ((7, 7), (3, 1), (1, 2), (-1, 1), (1, -1))],
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=fragment) as caught:
            call()
    assert type(caught.value) is error
