import json
import math
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emmatch import (CurrentElement, EdgeCurrent, EmptyCurrentError, ForceMap,
                     ForceParams, Vec2, Vec3, bz_at, extract_current, force_map,
                     force_map_fast, force_map_tsv, force_on_element, match_images,
                     match_result_json, pair_force, shift_image, synth_shape, total_force)
from emmatch import emforce
from emmatch.emforce import _BLOCK_TERMS
from conftest import random_current

T_EAST = CurrentElement(0, 0, 1.0, 0.0)


def single(x, y, tx, ty, w=8, h=8):
    return EdgeCurrent(w, h, np.array([x]), np.array([y]),
                       np.array([tx]), np.array([ty]))


def empty_current(w=8, h=8):
    z = np.array([], dtype=np.int64)
    return EdgeCurrent(w, h, z, z, np.array([]), np.array([]))


def test_force_params_validation():
    with pytest.raises(ValueError):
        ForceParams(strength=0.0)
    with pytest.raises(ValueError):
        ForceParams(height_px=-1.0)
    with pytest.raises(ValueError):
        ForceParams(min_r=0.0)
    with pytest.raises(ValueError, match="nonzero square"):
        ForceParams(min_r=1e-200)  # squares to 0.0, which no distance is below
    p = ForceParams()
    assert (p.strength, p.height_px, p.min_r) == (1.0, 0.0, 1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["strength", "height_px", "min_r"])
def test_force_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ForceParams(**{field: value})


def test_stacked_parallel_elements_attract_vertically():
    f = pair_force(T_EAST, T_EAST, Vec2(0.0, 0.0), ForceParams(height_px=2.0))
    assert (f.x, f.y, f.z) == (0.0, 0.0, -0.25)


def test_parallel_elements_attract_in_plane():
    t2 = CurrentElement(0, 2, 1.0, 0.0)
    f = pair_force(T_EAST, t2, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (0.0, 0.25, 0.0)  # pulled toward t2 at +y


def test_antiparallel_elements_repel_in_plane():
    t2 = CurrentElement(0, 2, -1.0, 0.0)
    f = pair_force(T_EAST, t2, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (0.0, -0.25, 0.0)  # pushed away from t2


def test_side_by_side_parallel_wires_attract():
    t1 = CurrentElement(0, 0, 0.0, 1.0)
    t2 = CurrentElement(3, 0, 0.0, 1.0)
    f = pair_force(t1, t2, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (3.0 / 27.0, 0.0, 0.0)


def test_planar_force_falls_off_as_inverse_square():
    near = pair_force(T_EAST, CurrentElement(0, 2, 1.0, 0.0), Vec2(0.0, 0.0))
    far = pair_force(T_EAST, CurrentElement(0, 4, 1.0, 0.0), Vec2(0.0, 0.0))
    assert near.y == 0.25 and far.y == 0.0625
    assert near.y / far.y == 4.0


def test_coincident_elements_contribute_exactly_zero():
    f = pair_force(T_EAST, T_EAST, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (0.0, 0.0, 0.0)


def test_min_r_cutoff_is_strict():
    params = ForceParams(min_r=2.0)
    at_cut = pair_force(T_EAST, CurrentElement(0, 2, 1.0, 0.0), Vec2(0.0, 0.0), params)
    assert at_cut.y == 0.25  # r == min_r still contributes
    inside = pair_force(T_EAST, CurrentElement(0, 1, 1.0, 0.0), Vec2(0.0, 0.0), params)
    assert (inside.x, inside.y, inside.z) == (0.0, 0.0, 0.0)


def test_strength_scales_pair_force_exactly():
    t2 = CurrentElement(2, 3, -0.7, 1.9)
    base = pair_force(T_EAST, t2, Vec2(1.0, -1.0), ForceParams(height_px=1.5))
    double = pair_force(T_EAST, t2, Vec2(1.0, -1.0),
                        ForceParams(strength=2.0, height_px=1.5))
    assert (double.x, double.y, double.z) == (2 * base.x, 2 * base.y, 2 * base.z)


def test_shift_moves_the_first_element():
    t1 = CurrentElement(5, 3, 0.4, -0.2)
    t2 = CurrentElement(1, -2, -0.9, 0.6)
    moved = pair_force(t1, t2, Vec2(-5.0, -3.0))
    fixed = pair_force(CurrentElement(0, 0, 0.4, -0.2), t2, Vec2(0.0, 0.0))
    assert (moved.x, moved.y, moved.z) == (fixed.x, fixed.y, fixed.z)


def test_height_weakens_planar_pull():
    t2 = CurrentElement(0, 2, 1.0, 0.0)
    flat = pair_force(T_EAST, t2, Vec2(0.0, 0.0), ForceParams(height_px=0.0))
    lifted = pair_force(T_EAST, t2, Vec2(0.0, 0.0), ForceParams(height_px=8.0))
    assert 0.0 < lifted.y < flat.y
    assert lifted.z < 0.0  # planes still pull toward each other


def test_force_on_single_element_matches_pair_force():
    c2 = single(4, 1, -0.3, 2.0)
    params = ForceParams(strength=3.0, height_px=1.0)
    got = force_on_element(T_EAST, c2, Vec2(2.0, -1.0), params)
    want = pair_force(T_EAST, c2.element(0), Vec2(2.0, -1.0), params)
    assert (got.x, got.y, got.z) == (want.x, want.y, want.z)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_force_on_element_sums_pairs(seed):
    rng = np.random.default_rng(seed)
    c2 = random_current(rng)
    params = ForceParams(height_px=float(rng.uniform(0.0, 4.0)))
    el = CurrentElement(2, 3, float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
    shift = Vec2(1.0, -2.0)
    got = force_on_element(el, c2, shift, params)
    fx = fy = fz = 0.0
    scale = 0.0
    for j in range(len(c2)):
        f = pair_force(el, c2.element(j), shift, params)
        fx += f.x
        fy += f.y
        fz += f.z
        scale += abs(f.x) + abs(f.y) + abs(f.z)
    tol = 1e-12 * max(scale, 1e-30)
    assert abs(got.x - fx) <= tol
    assert abs(got.y - fy) <= tol
    assert abs(got.z - fz) <= tol


def _small_case():
    rng = np.random.default_rng(7)
    return (random_current(rng), random_current(rng), Vec2(3.0, -1.0),
            ForceParams(height_px=2.0))


def _multi_block_case():
    # 100 elements in c2 give blocks of _BLOCK_TERMS // 100 c1 rows; 401 c1
    # elements span several blocks and leave a partial last one.
    rng = np.random.default_rng(31)
    c1 = random_current(rng, width=32, height=32, n=401)
    c2 = random_current(rng, width=32, height=32, n=100)
    assert len(c1) * len(c2) > 2 * _BLOCK_TERMS
    assert len(c1) % (_BLOCK_TERMS // len(c2)) != 0
    return c1, c2, Vec2(-2.0, 1.0), ForceParams(height_px=0.5)


def _wide_c2_case():
    # c2 alone exceeds a block, so every block holds a single c1 row.
    rng = np.random.default_rng(37)
    c2 = random_current(rng, width=140, height=140, n=_BLOCK_TERMS + 300)
    return random_current(rng, n=5), c2, Vec2(40.0, 50.0), ForceParams()


def _close_guard_case():
    rng = np.random.default_rng(41)
    c1, c2 = random_current(rng, n=40), random_current(rng, n=40)
    shift, params = Vec2(1.0, 0.0), ForceParams(min_r=4.0)
    d2 = ((c1.xs[:, None] + shift.x - c2.xs) ** 2
          + (c1.ys[:, None] + shift.y - c2.ys) ** 2)
    assert (d2 < params.min_r ** 2).any()
    return c1, c2, shift, params


def _negative_zero_case():
    # Zero tangents with signs chosen so every x and y pair term is -0.0.
    # Whatever sign the element sums carry, the running total starts at +0.0
    # and must stay there.
    c1 = EdgeCurrent(8, 8, np.array([1, 4, 6]), np.array([3, 5, 7]),
                     np.array([0.0, 0.0, 0.0]), np.array([-0.0, -0.0, -0.0]))
    c2 = single(2, 0, 1.0, 0.0)
    params = ForceParams()
    for el in c1:
        f = pair_force(el, c2.element(0), Vec2(0.0, 0.0), params)
        assert math.copysign(1.0, f.x) == math.copysign(1.0, f.y) == -1.0
    return c1, c2, Vec2(0.0, 0.0), params


def test_total_force_accumulates_element_forces_exactly():
    for case in (_small_case, _multi_block_case, _wide_c2_case, _close_guard_case,
                 _negative_zero_case):
        c1, c2, shift, params = case()
        total = total_force(c1, c2, shift, params)
        fx = fy = fz = 0.0
        for i in range(len(c1)):
            f = force_on_element(c1.element(i), c2, shift, params)
            fx += f.x
            fy += f.y
            fz += f.z
        # Compare bytes, so the sign of a zero counts too.
        got = np.array([total.x, total.y, total.z]).tobytes()
        assert got == np.array([fx, fy, fz]).tobytes(), case.__name__


def test_lattice_cells_of_signed_zero_terms_are_positive_zero():
    # Every weighted term of every cell is +-0.0, and at the origin cell all
    # are -0.0 (see _negative_zero_case).  A cell's fold and the whole map's
    # window sums start at +0.0, so every fx and fy is +0.0.
    c1, c2, _, params = _negative_zero_case()
    zero = np.zeros((c2.height, c2.width)).tobytes()
    fmap = emforce._FieldLattice(c1, c2, params).force_map()
    assert fmap.fx.tobytes() == fmap.fy.tobytes() == zero
    lattice = emforce._FieldLattice(c1, c2, params)
    cells = [lattice.cell(x, y)[:2] for y in range(c2.height) for x in range(c2.width)]
    assert _byte_tuple(cells) == _byte_tuple(np.zeros((len(cells), 2)))


def test_bz_at_drives_planar_force():
    rng = np.random.default_rng(11)
    c2 = random_current(rng)
    params = ForceParams(strength=2.5, height_px=1.0)
    el = CurrentElement(5, 9, 1.7, -0.4)
    shift = Vec2(-2.0, 4.0)
    f = force_on_element(el, c2, shift, params)
    b = bz_at(c2, el.x + shift.x, el.y + shift.y, params)
    assert math.isclose(f.x, el.ty * b, rel_tol=1e-12)
    assert math.isclose(f.y, -el.tx * b, rel_tol=1e-12)


def test_force_on_element_weighs_bz_at():
    # At unit strength the in-plane force is (t1y, -t1x) times the field,
    # exactly: both read the same field sum.
    rng = np.random.default_rng(13)
    for _ in range(20):
        c2 = random_current(rng)
        params = ForceParams(height_px=float(rng.choice([0.0, 0.5, 3.0])),
                             min_r=float(rng.choice([1e-9, 2.0])))
        el = CurrentElement(int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                            float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        shift = Vec2(float(rng.integers(-4, 5)), float(rng.uniform(-4, 4)))
        f = force_on_element(el, c2, shift, params)
        b = bz_at(c2, el.x + shift.x, el.y + shift.y, params)
        assert _byte_tuple((f.x, f.y)) == _byte_tuple((el.ty * b, -el.tx * b))


def test_empty_second_current_gives_zero():
    c2 = empty_current()
    f = force_on_element(T_EAST, c2, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (0.0, 0.0, 0.0)
    assert bz_at(c2, 1.0, 2.0) == 0.0
    t = total_force(empty_current(), single(1, 1, 1.0, 0.0), Vec2(0.0, 0.0))
    assert (t.x, t.y, t.z) == (0.0, 0.0, 0.0)


def test_force_map_rejects_empty_currents():
    with pytest.raises(EmptyCurrentError):
        force_map(empty_current(), single(1, 1, 1.0, 0.0))
    with pytest.raises(EmptyCurrentError):
        force_map_fast(single(1, 1, 1.0, 0.0), empty_current())


def test_map_grid_comes_from_second_current():
    rng = np.random.default_rng(3)
    c1 = random_current(rng, width=16, height=16)
    c2 = random_current(rng, width=24, height=20)
    fmap = force_map(c1, c2)
    assert (fmap.width, fmap.height) == (24, 20)
    assert fmap.origin == (12, 10)


def test_map_cells_hold_total_force():
    rng = np.random.default_rng(5)
    c1 = random_current(rng, width=10, height=10, n=8)
    c2 = random_current(rng, width=10, height=10, n=8)
    params = ForceParams(height_px=1.0)
    fmap = force_map(c1, c2, params)
    for x, y in [(0, 0), (5, 5), (9, 3), (2, 9)]:
        want = total_force(c1, c2, Vec2(float(x - 5), float(y - 5)), params)
        got = fmap.cell(x, y)
        assert (got.x, got.y) == (want.x, want.y)
        # G adds the magnitudes of the element sums, so it bounds |F|
        assert fmap.g[y, x] >= math.hypot(got.x, got.y) > 0.0


def test_fast_map_matches_naive_map():
    rng = np.random.default_rng(17)
    c1 = random_current(rng)
    c2 = random_current(rng)
    params = ForceParams(strength=2.0, height_px=3.0)
    naive = force_map(c1, c2, params)
    fast = force_map_fast(c1, c2, params)
    assert (fast.width, fast.height, fast.origin) == (naive.width, naive.height, naive.origin)
    for name in ("fx", "fy", "g"):
        assert getattr(fast, name).tobytes() == getattr(naive, name).tobytes(), name


@pytest.mark.parametrize("kind", ["rectangle", "square", "ellipse", "circle"])
@pytest.mark.parametrize("n", [32, 64])
def test_total_force_equals_the_fast_map_cell(kind, n):
    # total_force at an integer shift weighs and folds the field values that
    # the fast map's cell does, so the two agree bit for bit.
    ref = synth_shape(kind, n, n)
    c1, c2 = extract_current(shift_image(ref, n // 8, -(n // 10))), extract_current(ref)
    for h in (0.0, 5.0, 8.0):
        for strength in (1.0, 1.7):
            params = ForceParams(strength=strength, height_px=h)
            fmap = force_map_fast(c1, c2, params)
            for x, y in ((fmap.ox, fmap.oy), (fmap.ox - n // 8, fmap.oy + n // 10),
                         (0, 0), (n - 1, 3), (5, n - 2)):
                f = total_force(c1, c2, Vec2(float(x - fmap.ox), float(y - fmap.oy)), params)
                cell = fmap.cell(x, y)
                assert _byte_tuple((f.x, f.y)) == _byte_tuple((cell.x, cell.y)), (h, x, y)


def test_fast_map_folds_bz_at_over_first_current():
    # A c2 of 200 elements makes the field lattice span several blocks.
    rng = np.random.default_rng(29)
    c1 = random_current(rng)
    c2 = random_current(rng, width=20, height=20, n=200)
    params = ForceParams(height_px=1.5)
    fmap = force_map_fast(c1, c2, params)
    for y in range(fmap.height):
        for x in range(fmap.width):
            fx = fy = g = 0.0
            for i in range(len(c1)):
                el = c1.element(i)
                b = bz_at(c2, float(el.x + x - fmap.ox), float(el.y + y - fmap.oy), params)
                fx += el.ty * b
                fy += -el.tx * b
                g += (abs(el.ty) + abs(el.tx)) * abs(b)
            assert (float(fmap.fx[y, x]), float(fmap.fy[y, x]), float(fmap.g[y, x])) == (fx, fy, g)


def test_lattice_cells_equal_the_fast_map(monkeypatch):
    # Cells read one at a time, in any order, fill only the lattice points
    # they need, and no point in two calls.  Within its one call a cell
    # evaluates a point once for each element of c1 on it: twice where the
    # appended copy of element 3 shares that element's point, once
    # elsewhere.  c2's tangents in sixteenths, as image currents have, take
    # the product form.  100 elements of c2 make blocks of 163 points, so
    # the fast map's whole-lattice fill spans four blocks, the last one
    # shorter.
    rng = np.random.default_rng(31)
    c = random_current(rng)
    c1 = EdgeCurrent(c.width, c.height, np.append(c.xs, c.xs[3]), np.append(c.ys, c.ys[3]),
                     np.append(c.tx, 2.5), np.append(c.ty, -1.0))
    on = Counter(zip(c1.xs.tolist(), c1.ys.tolist()))  # elements of c1 on each point
    assert sorted(on.values())[-2:] == [1, 2]
    c2 = random_current(rng, width=12, height=10, n=100)
    sixteenths = EdgeCurrent(12, 10, c2.xs, c2.ys, np.round(16 * c2.tx) / 16,
                             np.round(16 * c2.ty) / 16)
    params = ForceParams(height_px=2.0)
    calls, products, kept = [], [], []
    real = emforce._field_sums

    def recording(c2, px, py, params, operands=None):
        products.append(operands is not None)
        calls.append(Counter(zip(px.tolist(), py.tolist())))
        sums = real(c2, px, py, params, operands)
        kept.append(emforce._kept.buffers)  # every cell evaluates in the thread's one set
        return sums

    for current, product in ((c2, False), (sixteenths, True)):
        fmap = force_map_fast(c1, current, params)
        calls.clear()
        products.clear()
        with monkeypatch.context() as m:
            m.setattr(emforce, "_field_sums", recording)
            lattice = emforce._FieldLattice(c1, current, params)
            rows = _BLOCK_TERMS // len(current)
            assert rows == 163 and lattice.values.size % rows and lattice.values.size > 2 * rows
            cells = [(x, y) for y in range(fmap.height) for x in range(fmap.width)]
            for k in rng.permutation(len(cells)):
                x, y = cells[k]
                first = len(calls)
                assert lattice.cell(x, y) == (fmap.fx[y, x], fmap.fy[y, x], fmap.g[y, x])
                assert len(calls) - first <= 1
                dx, dy = x - fmap.ox, y - fmap.oy
                for call in calls[first:]:
                    assert all(n == on[px - dx, py - dy] for (px, py), n in call.items())
        assert sum(map(len, calls)) == len(set().union(*calls))  # no point in two calls
        assert 2 in set().union(*(call.values() for call in calls))
        assert products and set(products) == {product}
        assert all(k is kept[0] for k in kept)


@st.composite
def dyadic_currents(draw, width, height):
    """Up to 8 elements on a small grid, so positions repeat, with tangent
    components in sixteenths up to 2**20, zero and negative ones included."""
    n = draw(st.integers(1, 8))
    cells = st.lists(st.integers(0, width * height - 1), min_size=n, max_size=n)
    sixteenths = st.lists(st.one_of(st.integers(-64, 64), st.integers(-2 ** 24, 2 ** 24))
                          .map(lambda k: k / 16), min_size=n, max_size=n)
    xs, ys = np.divmod(np.array(draw(cells), dtype=np.int64), height)
    return EdgeCurrent(width, height, xs, ys, np.array(draw(sixteenths)),
                       np.array(draw(sixteenths)))


def dyadic_current(rng, width, height, n):
    """n elements anywhere on the grid, positions repeating, with tangent
    components in sixteenths up to 2**20."""
    tx, ty = rng.integers(-2 ** 24, 2 ** 24, size=(2, n)) / 16
    return EdgeCurrent(width, height, rng.integers(0, width, n), rng.integers(0, height, n),
                       tx, ty)


# 2000 elements of c2 make blocks of 8 lattice points, so lattices span blocks
MANY = dyadic_current(np.random.default_rng(43), 6, 5, 2000)


def _byte_tuple(values):
    return np.array(values, dtype=np.float64).tobytes()


@given(dyadic_currents(7, 6), dyadic_currents(6, 5), st.sampled_from([0.0, 0.3, 8.0]),
       st.sampled_from([1e-9, 2.5]))
# a zero numerator that the two forms sign differently
@example(single(2, 1, 0.5, 0.0), single(3, 2, -1.0, 0.0, 6, 5), 0.0, 1e-9)
@example(dyadic_current(np.random.default_rng(53), 7, 6, 5), MANY, 0.3, 2.5)
@settings(max_examples=60, deadline=None)
def test_product_form_equals_the_direct_kernel(c1, c2, h, min_r):
    params = ForceParams(height_px=h, min_r=min_r)

    def lattice(product):
        built = emforce._FieldLattice(c1, c2, params)
        assert built._operands is not None
        if not product:
            built._operands = None
        return built

    product, direct = lattice(True), lattice(False)
    fast, reference = product.force_map(), direct.force_map()
    # Equal lattice values; where the bytes differ, both are zeros.
    assert np.array_equal(product.values, direct.values)
    differ = product.values.view(np.int64) != direct.values.view(np.int64)
    assert not product.values[differ].any()
    for name in ("fx", "fy", "g"):
        assert getattr(fast, name).tobytes() == getattr(reference, name).tobytes()
    if reference.g.any():
        assert force_map_fast(c1, c2, params).fx.tobytes() == reference.fx.tobytes()
    else:  # no cell sums anything: every tangent is zero, or every pair lies within min_r
        for build in (force_map_fast, force_map):
            with pytest.raises(ValueError, match="sums nothing at any shift"):
                build(c1, c2, params)
    product, direct = lattice(True), lattice(False)
    for y in range(fast.height):
        for x in range(fast.width):
            assert _byte_tuple(product.cell(x, y)) == _byte_tuple(direct.cell(x, y))


def test_product_form_guard():
    coord, tangent, quantum = emforce._EXACT_COORD, emforce._EXACT_TANGENT, emforce._EXACT_QUANTUM
    assert emforce._is_exact([-2 ** 24, 0, 2 ** 24], coord, 1.0)
    assert not emforce._is_exact([2 ** 24 + 1], coord, 1.0)
    assert not emforce._is_exact([-2 ** 24 - 1], coord, 1.0)
    assert not emforce._is_exact([3.5], coord, 1.0)
    assert emforce._is_exact([-2.0 ** 20, 2.0 ** 20, 1 / 16, -0.0], tangent, quantum)
    assert not emforce._is_exact([1 / 32], tangent, quantum)
    assert not emforce._is_exact([2.0 ** 21], tangent, quantum)
    assert not emforce._is_exact([1e308], tangent, quantum)

    def current(x, tx, width=8):
        return EdgeCurrent(width, 8, np.array([1, x]), np.array([2, 5]),
                           np.array([1.0, tx]), np.array([-0.5, 3.0]))

    assert emforce._product_operands(current(3, 2.0 ** 20), 0.0) is not None
    # a 1/32 quantum, |t| = 2**21 and a coordinate past 2**24 keep the direct kernel
    for c in (current(3, 1 / 32), current(3, 2.0 ** 21), current(2 ** 24 + 1, 1.0, 2 ** 24 + 2)):
        assert emforce._product_operands(c, 0.0) is None
    lattice = emforce._FieldLattice(current(3, 1 / 32), current(4, 1 / 32), ForceParams())
    assert lattice._operands is None
    # An exact c2 keeps the direct form where the lattice reaches past 2**24:
    # at x = 2**27 the product form rounds r^2 otherwise.
    c2, params = current(3, 2.0 ** 20), ForceParams(height_px=0.3)
    lattice = emforce._FieldLattice(single(2 ** 27, 1, 1.0, 0.5, 2 ** 27 + 1, 4), c2, params)
    assert lattice._operands is None
    lattice.force_map()
    lh, lw = lattice.values.shape
    want = [[bz_at(c2, float(lattice._x0 + col), float(lattice._y0 + row), params)
             for col in range(lw)] for row in range(lh)]
    assert lattice.values.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("h, min_r", [(0.3, 1.5), (8.0, 1e-9)])
def test_blocks_share_no_state(h, min_r):
    # About 2000 elements of c2 make blocks of 8 points, and 43 points leave a
    # shorter last block; with min_r 1.5 some blocks hold close terms and
    # others none.  Every point must read as if evaluated alone.
    rng = np.random.default_rng(47)
    c2 = dyadic_current(rng, 40, 40, 2000)
    n = 43
    assert _BLOCK_TERMS // len(c2) == 8 and n % 8
    px, py = rng.integers(-5, 45, size=(2, n)).astype(np.float64)
    txs, tys = rng.normal(size=(2, n))
    params = ForceParams(height_px=h, min_r=min_r)
    operands = emforce._product_operands(c2, 0.0)
    assert operands is not None
    for form in (None, operands):
        alone = [emforce._field_sums(c2, px[i:i + 1], py[i:i + 1], params, form)
                 for i in range(n)]
        assert emforce._field_sums(c2, px, py, params, form).tobytes() == \
            np.concatenate(alone).tobytes()
    alone = [emforce._force_rows(px[i:i + 1], py[i:i + 1], txs[i:i + 1], tys[i:i + 1], c2, params)
             for i in range(n)]
    assert emforce._force_rows(px, py, txs, tys, c2, params).tobytes() == \
        np.concatenate(alone, axis=1).tobytes()


@pytest.mark.parametrize("h, masked", [(1.0, True), (2.0, False)])
def test_min_r_mask_on_both_sides_of_the_height(h, masked):
    # min_r 2: at h 1 a pair 1 apart in the plane is masked (r^2 = 2 < 4); at
    # h 2 no pair is (r^2 >= h^2 = 4), so the mask is skipped, and a pair at
    # planar distance 0 sits exactly on r^2 = min_r^2 and counts.  With t1y = 1
    # and power-of-two tangents, every sum below is exactly the pair_force sum.
    params = ForceParams(height_px=h, min_r=2.0)
    c1 = single(3, 3, -0.5, 1.0)
    c2 = EdgeCurrent(8, 8, np.array([4, 3]), np.array([3, 5]),
                     np.array([1.0, 0.5]), np.array([0.25, -1.0]))
    for form in (None, emforce._product_operands(c2, h)):
        ((_, _, _, close, _),) = emforce._terms(c2, np.array([3.0]), np.array([3.0]), params, form)
        assert (close is None) is not masked
    t1, pair = c1.element(0), (c2.element(0), c2.element(1))
    assert (pair_force(t1, pair[0], Vec2(0.0, 0.0), params) == Vec3(0.0, 0.0, 0.0)) is masked

    def want(sx, sy):
        a, b = (pair_force(t1, t2, Vec2(float(sx), float(sy)), params) for t2 in pair)
        return a.x + b.x, a.y + b.y, a.z + b.z

    walked = emforce._FieldLattice(c1, c2, params)
    whole = emforce._FieldLattice(c1, c2, params).force_map()
    for y in range(8):
        for x in range(8):
            fx, fy, fz = want(x - 4, y - 4)
            assert bz_at(c2, float(x - 1), float(y - 1), params) == fx  # t1 at 3 + (x - 4)
            assert total_force(c1, c2, Vec2(float(x - 4), float(y - 4)), params) == \
                Vec3(fx, fy, fz)
            cell = (fx, fy, 1.5 * abs(fx))  # L = fx, G = (|t1y| + |t1x|) |L|
            assert walked.cell(x, y) == cell
            assert (whole.fx[y, x], whole.fy[y, x], whole.g[y, x]) == cell


# (h, min_r, the h^2 the product rows hold, whether the product form masks)
CLOSE_PAIR_RULES = [
    (0.0, 1e-9, 0.0, False),   # coincident pairs only, r^2 floored at 1
    (0.0, 1.0, 0.0, False),    # min_r^2 = h^2 + 1: still coincident pairs only
    (3.0, 3.1, 9.0, True),     # h < min_r above h 0: only coincident pairs are close
    (8.0, 1e-9, 64.0, False),  # h >= min_r: no close pair
    (8.0, 8.06, 64.0, True),
    (0.5, 0.6, 0.0, True),     # h^2 is no integer, so the rows leave it out
    (2.5, 2.6, 0.0, True),
    (1.0, 2.0, 1.0, True),     # pairs 1 apart in the plane are close too
    (0.0, 1.5, 0.0, True),
]


@pytest.mark.parametrize("h, min_r, folded, masked", CLOSE_PAIR_RULES)
def test_close_pair_rule_of_the_product_form(h, min_r, folded, masked):
    # No mask runs where h >= min_r, nor at h 0 with min_r <= 1, where the
    # product form floors r^2 at 1.  Cells, with element positions of c1
    # landing on c2's at many shifts, stay byte-equal to the masked direct
    # form and equal to pair_force sums (exact here: one element of c1 with
    # t1y = 1, two of c2 with power-of-two tangents).
    params = ForceParams(height_px=h, min_r=min_r)
    c1 = single(3, 3, -0.5, 1.0)
    c2 = EdgeCurrent(8, 8, np.array([4, 3]), np.array([3, 5]),
                     np.array([1.0, 0.5]), np.array([0.25, -1.0]))
    operands = emforce._product_operands(c2, h)
    assert operands[2] == folded
    px, py = np.array([4.0, 3.0, 0.0, 4.0]), np.array([3.0, 5.0, 0.0, 4.0])
    closes = [close for _, _, _, close, _ in emforce._terms(c2, px, py, params, operands)]
    assert closes and all((close is not None) is masked for close in closes)
    t1, pair = c1.element(0), (c2.element(0), c2.element(1))
    walked, direct = (emforce._FieldLattice(c1, c2, params) for _ in range(2))
    assert walked._operands[2] == folded
    direct._operands = None
    whole = emforce._FieldLattice(c1, c2, params).force_map()
    for y in range(8):
        for x in range(8):
            a, b = (pair_force(t1, t2, Vec2(float(x - 4), float(y - 4)), params) for t2 in pair)
            fx = a.x + b.x
            cell = walked.cell(x, y)
            assert cell == (fx, 0.5 * fx, 1.5 * abs(fx))
            assert _byte_tuple(cell) == _byte_tuple(direct.cell(x, y))
            assert _byte_tuple(cell) == _byte_tuple((whole.fx[y, x], whole.fy[y, x],
                                                     whole.g[y, x]))
    # Many coincident pairs: both currents on one 7 x 6 grid.
    rng = np.random.default_rng(61)
    c1, c2 = dyadic_current(rng, 7, 6, 30), dyadic_current(rng, 7, 6, 40)
    product, direct = (emforce._FieldLattice(c1, c2, params) for _ in range(2))
    direct._operands = None
    fast, reference = product.force_map(), direct.force_map()
    for name in ("fx", "fy", "g"):
        assert getattr(fast, name).tobytes() == getattr(reference, name).tobytes()
    product, direct = (emforce._FieldLattice(c1, c2, params) for _ in range(2))
    direct._operands = None
    for y in range(6):
        for x in range(7):
            assert _byte_tuple(product.cell(x, y)) == _byte_tuple(direct.cell(x, y))


@pytest.mark.parametrize("h, min_r", [(0.0, 1e-9), (8.0, 1e-9), (1.0, 2.0)])
def test_lattice_buffers_carry_no_state_between_cells(h, min_r, monkeypatch):
    # 1000 elements of c2 give blocks of 16 points.  Walking every cell in
    # row-major order, the first cell evaluates all of c1's points across
    # several blocks and later ones fewer; the reused evaluation buffers
    # must leave each value as a fresh lattice's whole-map fill computes it.
    rng = np.random.default_rng(59)
    c1, c2 = dyadic_current(rng, 12, 10, 80), dyadic_current(rng, 9, 7, 1000)
    params = ForceParams(height_px=h, min_r=min_r)
    sizes = []
    real = emforce._field_sums

    def recording(c2, px, py, params, operands=None):
        sizes.append(len(px))
        return real(c2, px, py, params, operands)

    for product in (True, False):
        walked, fresh = (emforce._FieldLattice(c1, c2, params) for _ in range(2))
        if not product:
            walked._operands = fresh._operands = None
        fmap = fresh.force_map()
        rows = _BLOCK_TERMS // len(c2)
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(emforce, "_field_sums", recording)
            for y in range(c2.height):
                for x in range(c2.width):
                    assert _byte_tuple(walked.cell(x, y)) == \
                        _byte_tuple((fmap.fx[y, x], fmap.fy[y, x], fmap.g[y, x]))
        assert rows == 16 and max(sizes) > 2 * rows and len(set(sizes)) > 2
        filled = walked._filled
        assert filled.any()
        assert walked.values[filled].tobytes() == fresh.values[filled].tobytes()


def test_lattice_cell_whose_fold_overflows_is_an_error():
    # c2's huge tangent leaves the lattice value at the zero shift finite
    # (1e307 at distance 1), but c1's t1y of 100 overflows the fold there;
    # a cell farther away stays finite.
    c1, c2 = single(3, 3, 0.0, 100.0), single(3, 2, 1e307, 0.0)
    lattice = emforce._FieldLattice(c1, c2, ForceParams())
    assert all(math.isfinite(v) for v in lattice.cell(0, 0))
    with pytest.raises(ValueError, match=r"force at cell \(4, 4\) is not finite"):
        lattice.cell(4, 4)
    assert np.isfinite(lattice.values[lattice._filled]).all()


def test_threads_evaluate_in_their_own_buffers():
    # Three threads match, map and sum forces on different inputs at once,
    # a few rounds each.  Each result must equal a serial run's bytes, and
    # each thread must block in a set of buffers of its own.
    rect, ellipse = synth_shape("rectangle", 32, 32), synth_shape("ellipse", 32, 32)
    moved = shift_image(rect, 5, -4)
    c = extract_current(ellipse)
    tf_case = _multi_block_case()
    jobs = [
        lambda: json.dumps(match_result_json(match_images(moved, rect))).encode(),
        lambda: b"".join(getattr(force_map_fast(c, c, ForceParams(height_px=8.0)), name)
                         .tobytes() for name in ("fx", "fy", "g")),
        lambda: np.array(list(vars(total_force(*tf_case)).values())).tobytes(),
    ]
    serial = [job() for job in jobs]
    rounds = 3
    start = threading.Barrier(len(jobs), timeout=60)
    results, kept, errors = [[] for _ in jobs], [None] * len(jobs), []

    def work(k):
        try:
            for _ in range(rounds):
                start.wait()
                results[k].append(jobs[k]())
            kept[k] = emforce._kept.buffers  # held, so no later thread reuses the memory
        except BaseException as e:  # re-raised below, in the test's thread
            start.abort()
            errors.append(e)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the blocks too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    assert results == [[want] * rounds for want in serial]
    mine = emforce._kept.buffers
    for k, own in enumerate(kept):
        for other in kept[k + 1:] + [mine]:
            assert not any(np.shares_memory(a, b) for a in own for b in other)


def test_term_buffer_views_follow_replaced_buffers(monkeypatch):
    # In a fresh thread, a small evaluation leaves its views of the thread's
    # buffers cached; a c2 wider than a block replaces the buffers, which
    # must drop those views, so that the old set is released before the new
    # one is allocated, and the small shape, asked for again, blocks in the
    # new set.  Each evaluation's sums equal those of a fresh thread.
    rng = np.random.default_rng(67)
    small = random_current(rng, n=12)
    wide = random_current(rng, width=140, height=140, n=_BLOCK_TERMS + 300)
    px, py = rng.integers(-20, 40, size=(2, 30)).astype(np.float64)
    params = ForceParams(height_px=0.5)
    real, allocate = emforce._terms, np.empty

    def in_fresh_thread(work):
        out = []
        worker = threading.Thread(target=lambda: out.append(work()))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and out
        return out[0]

    def sequence():
        sums, blocks, released = [], [], []
        for c2 in (small, wide, small):
            old = [weakref.ref(a) for a in getattr(emforce._kept, "buffers", ())]

            def recording(*args):
                for block in real(*args):
                    blocks.append(all(np.shares_memory(a, emforce._kept.buffers[k])
                                      for a, k in ((block[1], 2), (block[2], 0))))
                    yield block

            def empty(shape, *args, **kwargs):
                if np.prod(shape) >= len(wide):  # a buffer of the new set
                    released.append(all(ref() is None for ref in old))
                return allocate(shape, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(emforce, "_terms", recording)
                m.setattr(np, "empty", empty)
                sums.append(emforce._field_sums(c2, px, py, params).tobytes())
        return sums, blocks, released

    sums, blocks, released = in_fresh_thread(sequence)
    assert blocks and all(blocks)
    # Only the wide c2 replaced the set, its four float buffers and its mask
    # each allocated after the old set was released.
    assert released == [True] * 5
    assert sums == [in_fresh_thread(lambda: emforce._field_sums(c2, px, py, params).tobytes())
                    for c2 in (small, wide, small)]


def test_interleaved_lattices_keep_their_own_fold_buffers():
    # Two lattices for pairs of different sizes, alive on one thread, read
    # their cells in turn: each must equal its own whole map's bytes.
    rect, ellipse = synth_shape("rectangle", 32, 32), synth_shape("ellipse", 32, 32)
    pairs = [(extract_current(shift_image(rect, 3, -2)), extract_current(rect),
              ForceParams(height_px=8.0)),
             (extract_current(shift_image(ellipse, -2, 1)), extract_current(ellipse),
              ForceParams())]
    assert len(pairs[0][0]) != len(pairs[1][0])
    walked = [emforce._FieldLattice(*pair) for pair in pairs]
    maps = [emforce._FieldLattice(*pair).force_map() for pair in pairs]
    for y in range(32):
        for x in range(32):
            for lattice, fmap in zip(walked, maps):
                assert _byte_tuple(lattice.cell(x, y)) == \
                    _byte_tuple((fmap.fx[y, x], fmap.fy[y, x], fmap.g[y, x]))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_strength_scales_whole_maps(seed):
    rng = np.random.default_rng(seed)
    c1 = random_current(rng, n=6)
    c2 = random_current(rng, n=6)
    base = force_map_fast(c1, c2, ForceParams(strength=1.0))
    scaled = force_map_fast(c1, c2, ForceParams(strength=4.0))
    assert np.array_equal(scaled.fx, 4.0 * base.fx)
    assert np.array_equal(scaled.fy, 4.0 * base.fy)
    assert np.array_equal(scaled.g, 4.0 * base.g)


def test_force_map_cell_bounds():
    rng = np.random.default_rng(19)
    fmap = force_map_fast(random_current(rng), random_current(rng))
    with pytest.raises(ValueError):
        fmap.cell(-1, 0)
    with pytest.raises(ValueError):
        fmap.cell(0, 16)
    with pytest.raises(ValueError, match=r"cell \(1.0, 0\) must be a pair of integers"):
        fmap.cell(1.0, 0)
    assert fmap.cell(np.int64(1), 0) == fmap.cell(1, 0)


def test_force_map_shape_validation():
    with pytest.raises(ValueError):
        ForceMap(4, 4, 2, 2, np.zeros((4, 3)), np.zeros((4, 4)))


def test_force_map_rejects_non_finite_cells():
    fx = np.zeros((3, 3))
    fx[1, 2] = math.nan
    with pytest.raises(ValueError, match="fx is not finite"):
        ForceMap(3, 3, 1, 1, fx, np.zeros((3, 3)))
    fy = np.zeros((3, 3))
    fy[0, 0] = -math.inf
    with pytest.raises(ValueError, match="fy is not finite"):
        ForceMap(3, 3, 1, 1, np.zeros((3, 3)), fy)
    with pytest.raises(ValueError, match="g is not finite"):
        ForceMap(3, 3, 1, 1, np.zeros((3, 3)), np.zeros((3, 3)), fy)


def test_force_map_rejects_negative_g():
    g = np.ones((3, 3))
    g[2, 1] = -1e-300
    with pytest.raises(ValueError, match="g is negative"):
        ForceMap(3, 3, 1, 1, np.zeros((3, 3)), np.zeros((3, 3)), g)


def test_overflowing_strength_is_rejected(rect_current):
    # The unit-strength forces exceed 1, so 1e308 overflows to infinity, and
    # the error names the strength that did it.
    huge = ForceParams(strength=1e308)
    blames_strength = r"^force is not finite at strength 1e\+308$"
    with pytest.raises(ValueError, match=blames_strength):
        total_force(rect_current, rect_current, Vec2(5.0, -4.0), huge)
    with pytest.raises(ValueError, match=blames_strength):
        force_map_fast(rect_current, rect_current, huge)
    with pytest.raises(ValueError, match=blames_strength):
        force_on_element(rect_current.element(0), rect_current, Vec2(5.0, -4.0), huge)
    with pytest.raises(ValueError, match=blames_strength):
        bz_at(rect_current, 3.0, 3.0, huge)


def test_overflowing_force_sum_is_named():
    # Tangents near 1e300 overflow the unscaled sums; the default strength
    # plays no part, so the error does not name it.
    c = EdgeCurrent(8, 8, np.array([1, 4]), np.array([2, 5]),
                    np.array([1e300, 1.0]), np.array([0.0, 1e300]))
    for evaluate in (lambda: total_force(c, c, Vec2(1.0, -1.0)),
                     lambda: force_on_element(c.element(1), c, Vec2(1.0, -1.0))):
        with pytest.raises(ValueError, match="^force sum is not finite$"):
            evaluate()


def test_force_map_tsv_layout():
    rng = np.random.default_rng(23)
    fmap = force_map_fast(random_current(rng, n=5), random_current(rng, n=5))
    lines = force_map_tsv(fmap).splitlines()
    assert lines[0] == "x\ty\tfx\tfy"
    assert len(lines) == 1 + fmap.width * fmap.height
    x, y, fx, fy = lines[1].split("\t")
    assert (int(x), int(y)) == (0, 0)
    assert float(fx) == fmap.cell(0, 0).x
    assert float(fy) == fmap.cell(0, 0).y
    # row-major: second row of output is the next cell to the east
    assert lines[2].split("\t")[:2] == ["1", "0"]
