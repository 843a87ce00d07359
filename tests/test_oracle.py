"""Whole-pipeline oracle: on random small images, every fast path agrees with its reference.

From one image pair, with random edge and force parameters:
- force_map_fast equals force_map byte for byte in fx, fy and g;
- the two maps give every cell the same sector and the same label;
- match_images' path is follow_path's on the unit-strength fast map and on
  the reference map, started at the origin with stop_at_origin=False.
Where the pipeline refuses (no edge points, or a force model that sums
nothing), both sides raise the same error class.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emmatch import (EdgeParams, ForceParams, GrayImage, classify_map, extract_current,
                     follow_path, force_map, force_map_fast, match_images, shift_image)
from emmatch.matchmap import PathStatus, _sectors


@st.composite
def image_pairs(draw):
    """A 6-19 px noise, speckle or box image, and a copy moved by up to 3 px per axis."""
    w, h = draw(st.integers(6, 19)), draw(st.integers(6, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["noise", "speckle", "box"]))
    if kind == "noise":
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    elif kind == "speckle":
        px = np.where(rng.random((h, w)) < 0.3, 255, 0).astype(np.uint8)
    else:
        px = np.zeros((h, w), dtype=np.uint8)
        x0, x1 = sorted(rng.integers(0, w + 1, size=2))
        y0, y1 = sorted(rng.integers(0, h + 1, size=2))
        px[y0:y1, x0:x1] = rng.integers(1, 256)
    ref = GrayImage(w, h, px)
    dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return shift_image(ref, dx, dy), ref


def dot_image() -> GrayImage:
    """One bright pixel: its eight edge points lie within 3 px of each other."""
    px = np.zeros((7, 7), dtype=np.uint8)
    px[3, 3] = 255
    return GrayImage(7, 7, px)


def _outcome(compute):
    """compute(), or the class of the ValueError it raises."""
    try:
        return compute()
    except ValueError as e:
        return type(e)


def _reference_path(fmap):
    """follow_path from the origin, refusing as match_images does when the origin sums nothing."""
    trace = follow_path(fmap, fmap.origin, stop_at_origin=False)
    if trace.status is PathStatus.NO_FORCE and trace.steps == 0:
        raise ValueError("the force model sums nothing at the start shift")
    return trace


@given(image_pairs(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.booleans(),
       st.booleans(), st.sampled_from([0.0, 0.5, 3.0, 8.0]),
       st.sampled_from([1e-9, 0.5, 1.0, 1.5, 3.0]))
@example((dot_image(), dot_image()), 0.2, False, False, 0.0, 3.0)  # the start sums nothing
@settings(max_examples=100, deadline=None)
def test_fast_paths_agree_with_their_references(pair, pct, strict, smooth, h, min_r):
    moved, ref = pair
    ep = EdgeParams(threshold_pct=pct, strict_nms=strict)
    fp = ForceParams(height_px=h, min_r=min_r)
    c1 = extract_current(moved, ep, smooth=smooth)
    c2 = extract_current(ref, ep, smooth=smooth)
    fast = _outcome(lambda: force_map_fast(c1, c2, fp))
    slow = _outcome(lambda: force_map(c1, c2, fp))
    match = _outcome(lambda: match_images(moved, ref, ep, fp, smooth=smooth).path)
    if isinstance(fast, type) or isinstance(slow, type):
        assert fast is slow
        assert match is fast
        return
    for name in ("fx", "fy", "g"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert np.array_equal(_sectors(fast.fx, fast.fy, fast.g), _sectors(slow.fx, slow.fy, slow.g))
    assert np.array_equal(classify_map(fast).codes, classify_map(slow).codes)
    assert match == _outcome(lambda: _reference_path(fast))  # fp has unit strength
    assert match == _outcome(lambda: _reference_path(slow))
