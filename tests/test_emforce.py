import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emmatch import (CurrentElement, EdgeCurrent, ForceParams, Vec2, Vec3, bz_at, force_map,
                     force_map_fast, force_map_tsv, force_on_element, match_images,
                     match_result_json, pair_force, shift_image, synth_shape, total_force)
from emmatch import emforce
from emmatch.emforce import _BLOCK_TERMS
from conftest import CLOSE_PAIR_RULES, dyadic_current, field_lattice, random_current, single

T_EAST = CurrentElement(0, 0, 1.0, 0.0)


def empty_current(w=8, h=8):
    z = np.array([], dtype=np.int64)
    return EdgeCurrent(w, h, z, z, np.array([]), np.array([]))


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
    p = ForceParams()  # the default, whose min_r keeps out only coincident pairs
    assert (p.strength, p.height_px, p.min_r) == (1.0, 0.0, 1e-9)
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
        assert _bytes((f.x, f.y)) == _bytes((el.ty * b, -el.tx * b))


def test_empty_second_current_gives_zero():
    c2 = empty_current()
    f = force_on_element(T_EAST, c2, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (0.0, 0.0, 0.0)
    assert bz_at(c2, 1.0, 2.0) == 0.0
    t = total_force(empty_current(), single(1, 1, 1.0, 0.0), Vec2(0.0, 0.0))
    assert (t.x, t.y, t.z) == (0.0, 0.0, 0.0)


def test_map_grid_comes_from_second_current():
    rng = np.random.default_rng(3)
    c1 = random_current(rng, width=16, height=16)
    c2 = random_current(rng, width=24, height=20)
    fmap = force_map(c1, c2)
    assert (fmap.width, fmap.height) == (24, 20)
    assert fmap.origin == (12, 10)


def _bytes(value):
    """The float64 bytes of values, a force, or a map's fx, fy and g."""
    return np.array(astuple(value)[-3:] if is_dataclass(value) else value, np.float64).tobytes()


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


def _block_masks(monkeypatch, c2, px, py, params, operands=None):
    """The min_r mask each of _field_sums' blocks hands _row_sums, None where it masks nothing."""
    masks, real = [], emforce._row_sums

    def recording(num, r3, close, out):
        masks.append(close)
        real(num, r3, close, out)

    with monkeypatch.context() as m:
        m.setattr(emforce, "_row_sums", recording)
        emforce._field_sums(c2, px, py, params, operands)
    return masks


@pytest.mark.parametrize("h, masked", [(1.0, True), (2.0, False)])
def test_min_r_mask_on_both_sides_of_the_height(h, masked, monkeypatch):
    # min_r 2: at h 1 a pair 1 apart in the plane is masked (r^2 = 2 < 4); at
    # h 2 no pair is (r^2 >= h^2 = 4), so the mask is skipped, and a pair at
    # planar distance 0 sits exactly on r^2 = min_r^2 and counts.  With t1y = 1
    # and power-of-two tangents, every sum below is exactly the pair_force sum.
    params = ForceParams(height_px=h, min_r=2.0)
    c1 = single(3, 3, -0.5, 1.0)
    c2 = EdgeCurrent(8, 8, np.array([4, 3]), np.array([3, 5]),
                     np.array([1.0, 0.5]), np.array([0.25, -1.0]))
    for form in (None, emforce._product_operands(c2, h)):
        assert emforce._close_rule(h * h, 4.0, form is not None) == (False, masked)
        (close,) = _block_masks(monkeypatch, c2, np.array([3.0]), np.array([3.0]), params, form)
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


@pytest.mark.parametrize("h, min_r, folded, masked", CLOSE_PAIR_RULES)
def test_close_pair_rule_of_the_product_form(h, min_r, folded, masked, monkeypatch):
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
    # the product form floors r^2 where it does not mask below min_r; the direct form masks
    floored = h < min_r and not masked
    assert emforce._close_rule(h * h, min_r * min_r, True) == (floored, masked)
    assert emforce._close_rule(h * h, min_r * min_r, False) == (False, h < min_r)
    closes = _block_masks(monkeypatch, c2, px, py, params, operands)
    assert closes and all((close is not None) is masked for close in closes)
    t1, pair = c1.element(0), (c2.element(0), c2.element(1))
    walked, direct = field_lattice(c1, c2, params), field_lattice(c1, c2, params, False)
    assert walked._operands[2] == folded
    whole = field_lattice(c1, c2, params).force_map()
    for y in range(8):
        for x in range(8):
            a, b = (pair_force(t1, t2, Vec2(float(x - 4), float(y - 4)), params) for t2 in pair)
            fx = a.x + b.x
            cell = walked.cell(x, y)
            assert cell == (fx, 0.5 * fx, 1.5 * abs(fx))
            assert _bytes(cell) == _bytes(direct.cell(x, y))
            assert _bytes(cell) == _bytes((whole.fx[y, x], whole.fy[y, x], whole.g[y, x]))


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


@pytest.mark.parametrize("h, min_r", [(0.0, 1e-9), (0.3, 1.5), (1.0, 2.0), (8.0, 1e-9)])
def test_evaluations_share_no_state(h, min_r, monkeypatch):
    # Each evaluation blocks in buffers of its own, so in both forms each reads the bytes
    # it reads alone: two lattices walked in turn, against fresh whole-map fills; nested in
    # another's block, between its |r|^3 and sums (this once gave plausible wrong sums); and
    # on three threads switching every 10 us.  c2's 1000 and 2000 elements make blocks of 16
    # and 8 points, several of which a walk's first cell spans, later calls ending mid-block.
    rng = np.random.default_rng(59)
    pairs = [(dyadic_current(rng, 12, 10, 80), dyadic_current(rng, 9, 7, 1000)),
             (dyadic_current(rng, 10, 9, 50), dyadic_current(rng, 9, 8, 2000))]
    assert [_BLOCK_TERMS // len(c2) for _, c2 in pairs] == [16, 8]
    (c1, c2), (d1, d2) = pairs
    params = ForceParams(height_px=h, min_r=min_r)
    for product in (True, False):
        fills = [field_lattice(*pair, params, product) for pair in pairs]
        maps = [np.array(astuple(fill.force_map())[-3:]) for fill in fills]
        walked = [field_lattice(*pair, params, product) for pair in pairs]
        assert all(lat._operands is not None for lat in walked) is product
        for y, x in np.ndindex(8, 9):
            for lat, grid in zip(walked, maps):
                assert y >= lat.height or _bytes(lat.cell(x, y)) == grid[:, y, x].tobytes()
        for lat, fill in zip(walked, fills):
            assert lat.values[lat._filled].tobytes() == fill.values[lat._filled].tobytes()
        # The inner evaluations' c2 has as many elements as the outer ones'.
        outer = [lambda: total_force(c1, c2, Vec2(0.5, -0.25), params),
                 lambda: bz_at(c2, 2.5, 4.25, params),
                 lambda: field_lattice(c1, c2, params, product).cell(4, 3)]
        inner = [lambda: total_force(d1, c2, Vec2(-1.0, 2.0), params),
                 lambda: field_lattice(d1, c2, params, product).cell(5, 3)]
        alone, real = [_bytes(evaluate()) for evaluate in outer + inner], emforce._row_sums
        for k, evaluate in enumerate(outer):
            nested = []

            def spy(num, r3, close, out):
                if not nested:
                    nested.append(None)  # the inner evaluations' own blocks nest nothing
                    nested[:] = [_bytes(f()) for f in inner]
                real(num, r3, close, out)

            with monkeypatch.context() as m:
                m.setattr(emforce, "_row_sums", spy)
                assert [_bytes(evaluate())] + nested == [alone[k]] + alone[len(outer):]
    rect = synth_shape("rectangle", 32, 32)
    jobs = [lambda: json.dumps(match_result_json(match_images(shift_image(rect, 5, -4), rect))),
            lambda: _bytes(force_map_fast(c1, c2, params)),
            lambda: _bytes(total_force(d1, d2, Vec2(0.5, -0.25), params))]
    serial, start = [job() for job in jobs], threading.Barrier(len(jobs), timeout=60)

    def rounds(job):
        got = []
        for _ in range(3):
            start.wait()
            got.append(job())
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the blocks too
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(rounds, job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[want] * 3 for want in serial]


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
    assert fmap.cell(np.int64(1), 0) == fmap.cell(1, 0)
    # row-major: second row of output is the next cell to the east
    assert lines[2].split("\t")[:2] == ["1", "0"]
