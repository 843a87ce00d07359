"""Whole-pipeline oracle: every route through the force model agrees with its reference.

Each AGREEMENTS row names two routes and the relation between their results.
test_routes_agree checks every row on random small image pairs and random
dyadic current pairs (positions that repeat, tangents in sixteenths up to
2**20); test_fixed_routes_agree checks the fixed inputs of earlier tests, one
case each, named after them, on the rows those tests checked.  Where the pipeline refuses (no edge points, or a force
model that sums nothing), both routes raise the same error class, and a
per-cell route, which cannot refuse, reads zero wherever it evaluated.
"""

from collections import Counter, namedtuple
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CLOSE_PAIR_RULES, KINDS, dyadic_current, dyadic_currents, field_lattice,
                      random_current, single)
from emmatch import (EdgeCurrent, EdgeParams, ForceMap, ForceParams, GrayImage, Vec2, bz_at,
                     classify_map, extract_current, follow_path, force_map, force_map_fast,
                     force_on_element, match_images, pair_force, shift_image, synth_shape,
                     total_force)
from emmatch import emforce
from emmatch.emforce import _BLOCK_TERMS
from emmatch.matchmap import PathStatus, _sectors

# id: (route A, route B, relation)
AGREEMENTS = {
    "fast map": ("force_map_fast", "force_map", "bytes"),
    "fast sectors": ("force_map_fast", "force_map", "sectors"),
    "fast labels": ("force_map_fast", "force_map", "labels"),
    "direct values": ("direct values", "product values", "values"),
    "direct map": ("direct map", "force_map_fast", "bytes"),
    "cells": ("lattice cells", "force_map_fast", "bytes"),
    "direct cells": ("direct cells", "force_map_fast", "bytes"),
    "sums": ("total_force", "force_map_fast", "bytes"),
    "element sums": ("total_force", "element sums", "bytes"),
    "bz_at fold": ("bz_at fold", "force_map_fast", "bytes"),
    "match path": ("match_images", "fast walk", "path"),
    "reference path": ("match_images", "reference walk", "path"),
}
# c1 over c2's shift grid for the rows named.  Per-cell routes read cells in order,
# match_images match, (img1, img2, EdgeParams, smooth, start), at strength 1; product
# is the lattice's form.
Case = namedtuple("Case", "name c1 c2 params rows cells match product", defaults=((), None, True))


def _stack(f):
    return np.array([f.fx, f.fy, f.g, np.full_like(f.g, np.nan)]) if isinstance(f, ForceMap) else f


def _filled(case, product):
    """c2's lattice for case after the fill step alone."""
    fill = field_lattice(case.c1, case.c2, case.params, product)
    fill._fill()
    return fill


def _windowed(fill, strength):
    """The window step's map of a filled lattice, scaled as force_map_fast scales it."""
    w, h = fill.width, fill.height
    return _stack(ForceMap(w, h, w // 2, h // 2, *fill._windows()).scaled(strength))


def _grid(case, evaluate):
    """(fx, fy, g, fz) from evaluate(shift) at case's cells; NaN elsewhere and where not given."""
    grid = np.full((4, case.c2.height, case.c2.width), np.nan)
    for x, y in case.cells:
        grid[:, y, x] = evaluate(x - case.c2.width // 2, y - case.c2.height // 2)
    return grid


def _cells(case, product):
    """case's cells read in turn from one lattice.  Each makes at most one _field_sums
    call, in the lattice's form, which evaluates a point once for each element of c1 on
    it; no point is evaluated in two calls."""
    walked = field_lattice(case.c1, case.c2, case.params, product)
    real, calls = emforce._field_sums, []
    on = Counter(zip(case.c1.xs.tolist(), case.c1.ys.tolist()))

    def recording(c2, px, py, params, operands=None, **kwargs):
        calls.append((operands is not None, Counter(zip(px.tolist(), py.tolist()))))
        return real(c2, px, py, params, operands, **kwargs)

    def cell(dx, dy):
        first = len(calls)
        f = walked.cell(dx + case.c2.width // 2, dy + case.c2.height // 2)
        assert len(calls) - first <= 1 and all(form == (product and case.product) and all(
            n == on[px - dx, py - dy] for (px, py), n in points.items())
            for form, points in calls[first:])
        return (*np.multiply(f, case.params.strength), np.nan)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(emforce, "_field_sums", recording)
        grid = _grid(case, cell)
    assert sum(len(points) for _, points in calls) == len(set().union(*(p for _, p in calls)))
    return grid


def _bz_at_fold(case, dx, dy):
    """fx, fy and G folded over c1 from bz_at at each shifted element, at unit strength."""
    unit, fx, fy, g = replace(case.params, strength=1.0), 0.0, 0.0, 0.0
    for el in case.c1:
        b = bz_at(case.c2, float(el.x + dx), float(el.y + dy), unit)
        fx, fy, g = fx + el.ty * b, fy - el.tx * b, g + (abs(el.ty) + abs(el.tx)) * abs(b)
    return (*np.multiply((fx, fy, g), case.params.strength), np.nan)


def _element_sums(case, dx, dy):
    """force_on_element added over c1 in storage order from +0.0."""
    fx = fy = fz = 0.0
    for el in case.c1:
        f = force_on_element(el, case.c2, Vec2(float(dx), float(dy)), case.params)
        fx, fy, fz = fx + f.x, fy + f.y, fz + f.z
    return fx, fy, np.nan, fz


def _walk(fmap, start):
    """follow_path from the origin moved by start; refused as match_images refuses."""
    if isinstance(fmap, type):
        return fmap
    trace = follow_path(fmap, (fmap.ox + start[0], fmap.oy + start[1]), stop_at_origin=False)
    if trace.status is PathStatus.NO_FORCE and trace.steps == 0:
        raise ValueError("the force model sums nothing at the start shift")
    return trace


# name: route(case, result), where result(name) is another route's outcome
ROUTES = {
    "force_map": lambda case, _: force_map(case.c1, case.c2, case.params),
    "force_map_fast": lambda case, _: force_map_fast(case.c1, case.c2, case.params),
    "direct lattice": lambda case, _: _filled(case, False),
    "product values": lambda case, _: _filled(case, True).values,
    "direct values": lambda case, result: result("direct lattice").values,
    "direct map": lambda case, result: _windowed(result("direct lattice"), case.params.strength),
    "lattice cells": lambda case, _: _cells(case, True),
    "direct cells": lambda case, _: _cells(case, False),
    "total_force": lambda case, _: _grid(case, lambda dx, dy: np.insert(astuple(total_force(
        case.c1, case.c2, Vec2(float(dx), float(dy)), case.params)), 2, np.nan)),
    "element sums": lambda case, _: _grid(case, lambda dx, dy: _element_sums(case, dx, dy)),
    "bz_at fold": lambda case, _: _grid(case, lambda dx, dy: _bz_at_fold(case, dx, dy)),
    "match_images": lambda case, _: match_images(
        *case.match[:3], case.params, smooth=case.match[3], start_offset=case.match[4]).path,
    "fast walk": lambda case, result: _walk(result("force_map_fast"), case.match[4]),
    "reference walk": lambda case, result: _walk(result("force_map"), case.match[4]),
}


def _same_bytes(a, b):
    """Equal origins and bytes where both grids hold a value; G, which adds the magnitudes
    its force sums, bounds |F|."""
    if isinstance(a, ForceMap) and isinstance(b, ForceMap) and a.origin != b.origin:
        return False
    a, b = _stack(a), _stack(b)
    both = ~np.isnan(a) & ~np.isnan(b)
    return (a.shape == b.shape and both.any() and a[both].tobytes() == b[both].tobytes()
            and not any((np.hypot(f[0], f[1]) > f[2]).any() for f in (a, b)))


RELATIONS = {
    "bytes": _same_bytes,
    # equal lattice values; where the bytes differ, both are zeros
    "values": lambda a, b: (np.array_equal(a, b)
                            and not a[a.view(np.int64) != b.view(np.int64)].any()),
    "sectors": lambda a, b: np.array_equal(*(_sectors(f.fx, f.fy, f.g) for f in (a, b))),
    "labels": lambda a, b: np.array_equal(classify_map(a).codes, classify_map(b).codes),
    "path": lambda a, b: a == b,
}


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


@st.composite
def cases(draw):
    """An image pair through extraction, or a dyadic current pair, and random parameters."""
    match = None
    if draw(st.booleans()):
        moved, ref = draw(image_pairs())
        pct = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        ep, smooth = EdgeParams(pct, strict_nms=draw(st.booleans())), draw(st.booleans())
        c1, c2 = (extract_current(img, ep, smooth=smooth) for img in (moved, ref))
        match = (moved, ref, ep, smooth, (0, 0))
    else:
        c1, c2 = draw(dyadic_currents(7, 6)), draw(dyadic_currents(6, 5))
    params = ForceParams(height_px=draw(st.sampled_from([0.0, 0.3, 3.0, 8.0])),
                         min_r=draw(st.sampled_from([1e-9, 0.5, 1.0, 1.5, 2.5, 3.0])))
    rows = ([row for row in AGREEMENTS if match or "path" not in row] if len(c1) and len(c2)
            else ["fast map", "match path"])  # public routes refuse a current without elements
    cell = st.tuples(st.integers(0, c2.width - 1), st.integers(0, c2.height - 1))
    return Case("generated", c1, c2, params, rows,
                tuple(draw(st.lists(cell, min_size=1, max_size=3, unique=True))), match)


def every_cell(c2):
    return tuple((x, y) for y in range(c2.height) for x in range(c2.width))


def image_case(name, rows, img1, img2, params=ForceParams(), start=(0, 0), ep=EdgeParams()):
    """Two images, extracted as match_images does; every row and cell where rows is None."""
    c1, c2 = extract_current(img1, ep), extract_current(img2, ep)
    return Case(name, c1, c2, params, rows or tuple(AGREEMENTS),
                () if rows else every_cell(c2), (img1, img2, ep, False, start))


def fixed_cases():
    # 32 and 64 px at h 0, 5 and 8 and strengths 1 and 1.7; above the sizes the golden
    # files (64 px) and the generated pairs (19 px) pin, 16 seeded cells of a 256 px ellipse.
    big = tuple(map(tuple, np.random.default_rng(256).integers(0, 256, (16, 2)).tolist()))
    for kind, n in [(kind, n) for n in (32, 64) for kind in KINDS] + [("ellipse", 256)]:
        ref, o = synth_shape(kind, n, n), n // 2
        c1, c2 = extract_current(shift_image(ref, n // 8, -(n // 10))), extract_current(ref)
        cells = ((o, o), (o - n // 8, o + n // 10), (0, 0), (n - 1, 3), (5, n - 2))
        for h, s in ([(0.0, 1.0), (8.0, 1.0)] if n == 256 else
                     [(h, s) for h in (0.0, 5.0, 8.0) for s in (1.0, 1.7)]):
            yield Case(f"test_total_force_equals_the_fast_map_cell[{n}-{kind}-{h}-{s}]", c1, c2,
                       ForceParams(strength=s, height_px=h), ("sums",), big if n == 256 else cells)
    # test_walk_equals_fast_map_walk; self-pairs also take the rows of ..._discretize_ and
    # ..._classify_identically, the rectangle moved by (5, -4) at h 0 the reference walk's.
    for kind, h in [(kind, h) for kind in KINDS for h in (0.0, 8.0)]:
        img = synth_shape(kind, 32, 32)
        for shift, start in (((5, -4), (0, 0)), ((-6, -6), (0, 0)), ((3, -2), (0, 0)),
                             ((0, 0), (0, 0)), ((2, 1), (-9, 7))):
            rows = ("match path",) + {(0, 0): ("fast sectors", "fast labels")}.get(shift, ())
            rows += ("reference path",) * ((kind, h, shift) == ("rectangle", 0.0, (5, -4)))
            yield image_case(f"test_walk_equals_fast_map_walk[{kind}-{h}-{shift}-{start}]", rows,
                             shift_image(img, *shift), img, ForceParams(height_px=h), start)
    yield image_case("test_fast_and_reference_maps_classify_identically[square]", ("fast labels",),
                     *[synth_shape("square", 16, 16, side=6)] * 2)
    # test_lattice_cells_equal_the_fast_map: cells in a random order; a copy of element 3
    # shares its point, which a call then evaluates twice; c2's tangents in sixteenths take
    # the product form, random ones the direct form; blocks of 163 points, of which the
    # whole-lattice fill spans several, the last one shorter.
    rng = np.random.default_rng(31)
    c = random_current(rng)
    c1 = EdgeCurrent(16, 16, np.append(c.xs, c.xs[3]), np.append(c.ys, c.ys[3]),
                     np.append(c.tx, 2.5), np.append(c.ty, -1.0))
    assert sorted(Counter(zip(c1.xs.tolist(), c1.ys.tolist())).values())[-2:] == [1, 2]
    c2 = random_current(rng, width=12, height=10, n=100)
    points = (np.ptp(c1.xs) + 12) * (np.ptp(c1.ys) + 10)
    assert _BLOCK_TERMS // len(c2) == 163 and points > 2 * 163 and points % 163
    cells = tuple(every_cell(c2)[k] for k in rng.permutation(120))
    sixteenths = EdgeCurrent(12, 10, c2.xs, c2.ys, *np.round(16 * np.array([c2.tx, c2.ty])) / 16)
    for name, current, product in (("direct", c2, False), ("product", sixteenths, True)):
        yield Case(f"test_lattice_cells_equal_the_fast_map[{name}]", c1, current,
                   ForceParams(height_px=2.0), ("cells",), cells, product=product)
    # Product and direct forms: a zero numerator that the two forms sign differently;
    # 2000 elements of c2, which make blocks of 8 lattice points; and each close-pair setting
    # on many coincident pairs, both currents on one 7 x 6 grid.
    rng, kernel = np.random.default_rng(61), "test_product_form_equals_the_direct_kernel"
    close = dyadic_current(rng, 7, 6, 30), dyadic_current(rng, 7, 6, 40)
    for name, c1, c2, h, min_r in [
            (f"{kernel}[signed-zero]", single(2, 1, 0.5, 0.0), single(3, 2, -1.0, 0.0, 6, 5),
             0.0, 1e-9),
            (f"{kernel}[many]", dyadic_current(np.random.default_rng(53), 7, 6, 5),
             dyadic_current(np.random.default_rng(43), 6, 5, 2000), 0.3, 2.5),
            *((f"test_close_pairs_add_nothing[{h}-{min_r}]", *close, h, min_r)
              for h, min_r, *_ in CLOSE_PAIR_RULES)]:
        yield Case(name, c1, c2, ForceParams(height_px=h, min_r=min_r),
                   ("fast map", "direct values", "direct map", "cells", "direct cells"),
                   every_cell(c2))
    rng = np.random.default_rng(5)
    c1, c2 = (random_current(rng, width=10, height=10, n=8) for _ in range(2))
    yield Case("test_map_cells_hold_total_force", c1, c2, ForceParams(height_px=1.0),
               ("fast map", "sums"), ((0, 0), (5, 5), (9, 3), (2, 9)), product=False)
    rng = np.random.default_rng(17)
    yield Case("test_fast_map_matches_naive_map", random_current(rng), random_current(rng),
               ForceParams(strength=2.0, height_px=3.0), ("fast map",), product=False)
    rng = np.random.default_rng(29)
    c1, c2 = random_current(rng), random_current(rng, width=20, height=20, n=200)  # many blocks
    yield Case("test_fast_map_folds_bz_at_over_first_current", c1, c2,
               ForceParams(height_px=1.5), ("bz_at fold",), every_cell(c2), product=False)
    # test_total_force_accumulates_element_forces_exactly: 100 elements of c2 make blocks of
    # 163 rows, which 401 of c1 span with a shorter last one; a c2 longer than a block;
    # pairs within min_r; and x and y terms that are all -0.0.
    name = "test_total_force_accumulates_element_forces_exactly"
    rng = np.random.default_rng(7)
    yield Case(f"{name}[small]", random_current(rng), random_current(rng),
               ForceParams(height_px=2.0), ("element sums",), ((11, 7),), product=False)
    rng = np.random.default_rng(31)
    c1, c2 = random_current(rng, 32, 32, 401), random_current(rng, 32, 32, 100)
    assert len(c1) * len(c2) > 2 * _BLOCK_TERMS and len(c1) % (_BLOCK_TERMS // len(c2))
    yield Case(f"{name}[multi-block]", c1, c2, ForceParams(height_px=0.5), ("element sums",),
               ((14, 17),), product=False)
    rng = np.random.default_rng(37)
    c2 = random_current(rng, 140, 140, _BLOCK_TERMS + 300)
    yield Case(f"{name}[wide-c2]", random_current(rng, n=5), c2, ForceParams(),
               ("element sums",), ((110, 120),), product=False)
    rng = np.random.default_rng(41)
    c1, c2 = random_current(rng, n=40), random_current(rng, n=40)
    assert ((c1.xs[:, None] + 1 - c2.xs) ** 2 + (c1.ys[:, None] - c2.ys) ** 2 < 16).any()
    yield Case(f"{name}[close-guard]", c1, c2, ForceParams(min_r=4.0), ("element sums",),
               ((9, 8),), product=False)
    # Zero tangents whose signs make every x and y pair term -0.0: whatever sign the
    # element sums carry, every total and cell, which start at +0.0, stays +0.0.
    c1 = EdgeCurrent(8, 8, [1, 4, 6], [3, 5, 7], [0.0] * 3, [-0.0] * 3)
    c2 = single(2, 0, 1.0, 0.0)
    assert all(np.signbit(astuple(pair_force(el, c2.element(0), Vec2(0, 0)))[:2]).all()
               for el in c1)
    yield Case(f"{name}[negative-zero] test_lattice_cells_of_signed_zero_terms_are_positive_zero",
               c1, c2, ForceParams(), ("element sums", "sums", "fast map", "cells", "direct cells",
                                       "bz_at fold"), every_cell(c2))
    # One bright pixel: its eight edge points lie within 3 px, so the start sums nothing.
    dot = GrayImage(7, 7, np.pad([[255]], 3).astype(np.uint8))
    yield image_case("dot", None, dot, dot, ForceParams(min_r=3.0), ep=EdgeParams(0.2))


@pytest.mark.parametrize("case", [pytest.param(case, id=case.name) for case in fixed_cases()])
def test_fixed_routes_agree(case):
    outcomes = {}

    def result(route):
        """The route's result, or the class of the ValueError it raises, computed once."""
        if route not in outcomes:
            try:
                outcomes[route] = ROUTES[route](case, result)
            except ValueError as e:
                outcomes[route] = type(e)
        return outcomes[route]

    for row in case.rows:
        a, b = (result(route) for route in AGREEMENTS[row][:2])
        if isinstance(a, type) or isinstance(b, type):
            # Both refuse alike, or a per-cell route meets a map that sums nothing.
            grid = b if isinstance(a, type) else a
            assert a is b or isinstance(grid, np.ndarray) and not np.nan_to_num(grid[:3]).any(), row
        else:
            assert RELATIONS[AGREEMENTS[row][2]](a, b), row


@given(cases())
@settings(max_examples=100, deadline=None)
def test_routes_agree(case):
    test_fixed_routes_agree(case)
