import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emmatch import (CurrentElement, EdgeCurrent, ForceParams, Vec2, Vec3, bz_at,
                     extract_current, force_map_fast, force_map_tsv, force_on_element,
                     match_images, match_result_json, pair_force, shift_image, synth_shape,
                     total_force)
from emmatch import emforce, raster
from emmatch.emforce import _BLOCK_TERMS
from conftest import CLOSE_PAIR_RULES, dyadic_current, field_lattice, random_current, single

T_EAST = CurrentElement(0, 0, 1.0, 0.0)


def empty_current(w=8, h=8):
    z = np.array([], dtype=np.int64)
    return EdgeCurrent(w, h, z, z, np.array([]), np.array([]))


T_EAST_2 = CurrentElement(0, 2, 1.0, 0.0)  # T_EAST two cells south
SKEW_1, SKEW_2 = CurrentElement(2, 3, 1.0, 2.0), CurrentElement(0, 0, -1.0, 3.0)  # r^3 343 at h 6
NO_SHIFT = Vec2(0.0, 0.0)

# pair_force(t1, t2, shift1, params), and force_on_element on a current of t2 alone, exactly,
# params None for their default; each row's id names the test it replaced.  Four rows read
# against earlier ones: at twice the distance a quarter of the force, at twice the strength
# twice, moved with its shift the same, and lifted by h weaker in the plane.
PAIR_FORCES = [
    pytest.param(T_EAST, T_EAST, NO_SHIFT, ForceParams(height_px=2.0), Vec3(0.0, 0.0, -0.25),
                 id="stacked_parallel_elements_attract_vertically"),
    pytest.param(T_EAST, T_EAST_2, NO_SHIFT, None, Vec3(0.0, 0.25, 0.0),  # pulled toward +y
                 id="parallel_elements_attract_in_plane"),
    pytest.param(T_EAST, CurrentElement(0, 2, -1.0, 0.0), NO_SHIFT, None,
                 Vec3(0.0, -0.25, 0.0), id="antiparallel_elements_repel_in_plane"),
    pytest.param(CurrentElement(0, 0, 0.0, 1.0), CurrentElement(3, 0, 0.0, 1.0), NO_SHIFT, None,
                 Vec3(3.0 / 27.0, 0.0, 0.0), id="side_by_side_parallel_wires_attract"),
    pytest.param(T_EAST, T_EAST, NO_SHIFT, None, Vec3(0.0, 0.0, 0.0),
                 id="coincident_elements_contribute_exactly_zero"),
    pytest.param(T_EAST, T_EAST_2, NO_SHIFT, ForceParams(min_r=2.0), Vec3(0.0, 0.25, 0.0),
                 id="min_r_cutoff_is_strict-at-the-cut"),
    pytest.param(T_EAST, CurrentElement(0, 1, 1.0, 0.0), NO_SHIFT, ForceParams(min_r=2.0),
                 Vec3(0.0, 0.0, 0.0), id="min_r_cutoff_is_strict-inside"),
    pytest.param(T_EAST, CurrentElement(0, 4, 1.0, 0.0), NO_SHIFT, None, Vec3(0.0, 0.0625, 0.0),
                 id="planar_force_falls_off_as_inverse_square"),
    pytest.param(SKEW_1, SKEW_2, NO_SHIFT, ForceParams(height_px=6.0),
                 Vec3(-18 / 343, 9 / 343, -30 / 343), id="strength_scales_pair_force_exactly-1"),
    pytest.param(SKEW_1, SKEW_2, NO_SHIFT, ForceParams(strength=2.0, height_px=6.0),
                 Vec3(-36 / 343, 18 / 343, -60 / 343), id="strength_scales_pair_force_exactly-2"),
    pytest.param(CurrentElement(7, -1, 1.0, 2.0), SKEW_2, Vec2(-5.0, 4.0),
                 ForceParams(height_px=6.0), Vec3(-18 / 343, 9 / 343, -30 / 343),
                 id="shift_moves_the_first_element"),
    pytest.param(T_EAST, T_EAST_2, NO_SHIFT, ForceParams(height_px=1.5),  # r 2.5: 0.128 < 0.25
                 Vec3(0.0, 2.0 / 15.625, -1.5 / 15.625), id="height_weakens_planar_pull"),
    pytest.param(T_EAST, CurrentElement(4, 1, -0.3, 2.0), Vec2(2.0, -1.0),  # r^3 27, Bz 4.6
                 ForceParams(strength=3.0, height_px=1.0),
                 Vec3(0.0, -(0.3 * 2 + 4) / 27 * 3, 0.3 / 27 * 3),
                 id="force_on_single_element_matches_pair_force"),
]


@pytest.mark.parametrize("t1, t2, shift1, params, force", PAIR_FORCES)
def test_pair_force(t1, t2, shift1, params, force):
    # params None: unit strength, no height, and a min_r that keeps out coincident pairs
    assert params is not None or astuple(ForceParams()) == (1.0, 0.0, 1e-9)
    rest = (shift1,) if params is None else (shift1, params)
    assert pair_force(t1, t2, *rest) == force
    assert force_on_element(t1, single(t2.x, t2.y, t2.tx, t2.ty), *rest) == force


def test_force_on_element_weighs_bz_at():
    # The in-plane force is (t1y, -t1x) times the field: exactly at unit strength, where
    # both read the same field sum, and up to the rounding of the strength factor at 2.5.
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
        params = replace(params, strength=2.5)
        f = force_on_element(el, c2, shift, params)
        b = bz_at(c2, el.x + shift.x, el.y + shift.y, params)
        assert math.isclose(f.x, el.ty * b, rel_tol=1e-12)
        assert math.isclose(f.y, -el.tx * b, rel_tol=1e-12)


def test_empty_second_current_gives_zero():
    c2 = empty_current()
    assert c2.dropped == 0  # a current built without a count drops nothing
    f = force_on_element(T_EAST, c2, Vec2(0.0, 0.0))
    assert (f.x, f.y, f.z) == (0.0, 0.0, 0.0)
    assert bz_at(c2, 1.0, 2.0) == 0.0
    t = total_force(empty_current(), single(1, 1, 1.0, 0.0), Vec2(0.0, 0.0))
    assert (t.x, t.y, t.z) == (0.0, 0.0, 0.0)


def _bytes(value):
    """The float64 bytes of values, a force, or a map's fx, fy and g."""
    return np.array(astuple(value)[-3:] if is_dataclass(value) else value, np.float64).tobytes()


def two_at(x, tx, width=8):
    return EdgeCurrent(width, 8, np.array([1, x]), np.array([2, 5]),
                       np.array([1.0, tx]), np.array([-0.5, 3.0]))


# a c2 whose last column is 2**24 is exact; a 1/32 quantum, |t| = 2**21 and a
# column past 2**24 keep the direct kernel
@pytest.mark.parametrize("x, tx, width, product", [
    (3, 2.0 ** 20, 8, True), (2 ** 24, 1.0, 2 ** 24 + 1, True), (3, 1 / 32, 8, False),
    (3, 2.0 ** 21, 8, False), (2 ** 24 + 1, 1.0, 2 ** 24 + 2, False)], ids=[
    "exact", "last-column-2**24", "quantum-1/32", "tangent-2**21", "last-column-past-2**24"])
def test_product_operands_guard(x, tx, width, product):
    assert (emforce._product_operands(two_at(x, tx, width), 0.0) is not None) is product


# One element of c1 at (x, y) spans lattice columns x - 4 to x + 3 and rows y - 4 to
# y + 3 against an 8 x 8 px c2; against a 16 px wide c2, columns x - 8 to x + 7.
@pytest.mark.parametrize("x, y, width, product", [
    (2 ** 24 - 3, 1, 8, True), (2 ** 24 - 2, 1, 8, False), (1, 2 ** 24 - 3, 8, True),
    (1, 2 ** 24 - 2, 8, False), (1, 2 ** 24 - 3, 16, True)], ids=[
    "last-column-2**24", "last-column-past-2**24", "last-row-2**24", "last-row-past-2**24",
    "last-row-2**24-wide"])
def test_lattice_product_form_bound(x, y, width, product):
    lattice = emforce._FieldLattice(single(x, y, 1.0, 0.5, x + 1, y + 1),
                                    two_at(3, 2.0 ** 20, width), ForceParams(height_px=0.3))
    assert (lattice._operands is not None) is product


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
    # h^2 joins the rows only as an integer below 2**50
    h2 = [emforce._product_operands(two_at(3, 1.0), h)[2] for h in (2.0 ** 25 - 1, 2.0 ** 25)]
    assert h2 == [(2.0 ** 25 - 1) ** 2, 0.0]

    lattice = emforce._FieldLattice(two_at(3, 1 / 32), two_at(4, 1 / 32), ForceParams())
    assert lattice._operands is None
    # An exact c2 keeps the direct form where the lattice reaches past 2**24:
    # at x = 2**27 the product form rounds r^2 otherwise.
    c2, params = two_at(3, 2.0 ** 20), ForceParams(height_px=0.3)
    lattice = emforce._FieldLattice(single(2 ** 27, 1, 1.0, 0.5, 2 ** 27 + 1, 4), c2, params)
    assert lattice._operands is None
    lattice._fill()
    lh, lw = lattice.values.shape
    want = [[bz_at(c2, float(lattice._x0 + col), float(lattice._y0 + row), params)
             for col in range(lw)] for row in range(lh)]
    assert lattice.values.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("h, min_r, folded", CLOSE_PAIR_RULES)
def test_close_pairs_add_nothing(h, min_r, folded):
    # c1's element lands on each of c2's at some shift, and near it at others.  With t1y = 1
    # and power-of-two tangents, bz_at, total_force, the walked cells and the whole map
    # equal pair_force sums exactly, and the walked cells the direct form's bytes.
    params = ForceParams(height_px=h, min_r=min_r)
    c1 = single(3, 3, -0.5, 1.0)
    c2 = EdgeCurrent(8, 8, np.array([4, 3]), np.array([3, 5]),
                     np.array([1.0, 0.5]), np.array([0.25, -1.0]))
    t1, pair = c1.element(0), (c2.element(0), c2.element(1))
    walked, direct = field_lattice(c1, c2, params), field_lattice(c1, c2, params, False)
    assert walked._operands[2] == folded
    whole = field_lattice(c1, c2, params).force_map()
    for y in range(8):
        for x in range(8):
            shift = Vec2(float(x - 4), float(y - 4))
            a, b = (pair_force(t1, t2, shift, params) for t2 in pair)
            fx, fy, fz = a.x + b.x, a.y + b.y, a.z + b.z
            assert bz_at(c2, float(x - 1), float(y - 1), params) == fx  # t1 at 3 + (x - 4)
            assert total_force(c1, c2, shift, params) == Vec3(fx, fy, fz)
            cell = walked.cell(x, y)
            assert cell == (fx, fy, 1.5 * abs(fx))  # L = fx, G = (|t1y| + |t1x|) |L|
            assert _bytes(cell) == _bytes(direct.cell(x, y))
            assert _bytes(cell) == _bytes((whole.fx[y, x], whole.fy[y, x], whole.g[y, x]))


@pytest.mark.parametrize("t1x, t1y", [(0.0, 100.0), (100.0, 0.0), (10.0, 10.0)])
def test_lattice_cell_whose_fold_overflows_is_an_error(t1x, t1y):
    # c2's huge tangent leaves the lattice value at the zero shift finite
    # (1e307 at distance 1), but c1's tangent overflows the fold there: G
    # with fx, G with fy while fx stays 0, or G alone while fx and fy are
    # 1e308 and -1e308; a cell farther away stays finite.
    c1, c2 = single(3, 3, t1x, t1y), single(3, 2, 1e307, 0.0)
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

            def spy(num, r3, out):
                if not nested:
                    nested.append(None)  # the inner evaluations' own blocks nest nothing
                    nested[:] = [_bytes(f()) for f in inner]
                real(num, r3, out)

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


@pytest.mark.parametrize("chunk", [1, 100], ids=["one-row-chunks", "partial-last-chunk"])
def test_force_map_tsv_layout(monkeypatch, chunk):
    rng = np.random.default_rng(23)
    fmap = force_map_fast(random_current(rng, n=5), random_current(rng, n=5))
    whole = force_map_tsv(fmap)
    # 256 rows: whole chunks at the default size, 256 of 1 row, or 100 + 100 + 56
    monkeypatch.setattr(raster, "_TSV_ROWS", chunk)
    assert force_map_tsv(fmap) == whole
    lines = whole.splitlines()
    assert lines[0] == "x\ty\tfx\tfy"
    assert len(lines) == 1 + fmap.width * fmap.height
    x, y, fx, fy = lines[1].split("\t")
    assert (int(x), int(y)) == (0, 0)
    assert float(fx) == fmap.cell(0, 0).x
    assert float(fy) == fmap.cell(0, 0).y
    assert fmap.cell(np.int64(1), 0) == fmap.cell(1, 0)
    # row-major: second row of output is the next cell to the east
    assert lines[2].split("\t")[:2] == ["1", "0"]


@pytest.mark.parametrize("n", [64, 128])
def test_force_map_tsv_peak_memory(n):
    # Rows are formatted a chunk at a time, so the writer holds its chunks, the
    # joined text and the index columns: about 2.4 times the text here, where one
    # string per row took about 6.1.
    c = extract_current(synth_shape("ellipse", n, n))
    fmap = force_map_fast(c, c, ForceParams(height_px=8.0))
    size = len(force_map_tsv(fmap))
    tracemalloc.start()
    try:
        force_map_tsv(fmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * size
