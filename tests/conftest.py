import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import emmatch
from emmatch import Direction8, EdgeCurrent, GrayImage, extract_current, synth_shape
from emmatch import emforce

# `pytest --hypothesis-profile=ci` (the CI run): the same examples on every
# run, and a failing one printed as a blob that @reproduce_failure replays.
settings.register_profile("ci", derandomize=True, print_blob=True)

def package_env():
    """This environment for a child interpreter that imports this process's emmatch."""
    # Lead the child's path with the directory this process imported emmatch
    # from, so it runs the same code as the in-process tests.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(emmatch.__file__).resolve().parents[1])]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The README's glyph per discretized direction, None (balanced) included.
GLYPHS = {Direction8.E: ">", Direction8.SE: "\\", Direction8.S: "v", Direction8.SW: "/",
          Direction8.W: "<", Direction8.NW: ",", Direction8.N: "^", Direction8.NE: "`",
          None: "."}


@pytest.fixture(scope="session")
def square_img():
    return synth_shape("square", 32, 32, side=12)


@pytest.fixture(scope="session")
def rect_img():
    return synth_shape("rectangle", 32, 32)


@pytest.fixture(scope="session")
def ellipse_img():
    return synth_shape("ellipse", 32, 32)


@pytest.fixture(scope="session")
def square_current(square_img):
    return extract_current(square_img)


@pytest.fixture(scope="session")
def rect_current(rect_img):
    return extract_current(rect_img)


@pytest.fixture(scope="session")
def ellipse_current(ellipse_img):
    return extract_current(ellipse_img)


# The shapes the matching tests use, as perfbench's workloads do.
KINDS = ("rectangle", "square", "ellipse", "circle")


def random_current(rng: np.random.Generator, width: int = 16, height: int = 16,
                   n: int = 12) -> EdgeCurrent:
    """A small synthetic current with distinct positions and nonzero tangents."""
    cells = rng.choice(width * height, size=n, replace=False)
    xs = (cells % width).astype(np.int64)
    ys = (cells // width).astype(np.int64)
    tx = rng.uniform(-100.0, 100.0, size=n)
    ty = rng.uniform(-100.0, 100.0, size=n)
    # nudge any (0, 0) tangent off zero
    tx = np.where((tx == 0.0) & (ty == 0.0), 1.0, tx)
    return EdgeCurrent(width, height, xs, ys, tx, ty)


def single(x, y, tx, ty, w=8, h=8):
    return EdgeCurrent(w, h, np.array([x]), np.array([y]), np.array([tx]), np.array([ty]))


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


def field_lattice(c1, c2, params, product=True):
    """c2's field lattice for c1, in the direct form unless product."""
    built = emforce._FieldLattice(c1, c2, params)
    if not product:
        built._operands = None
    return built


# (h, min_r, the h^2 the product rows hold): where h < min_r, pairs closer than min_r get an
# infinite r^2; where h >= min_r, no pair is that close
CLOSE_PAIR_RULES = [
    (0.0, 1e-9, 0.0),   # coincident pairs only
    (0.0, 1.0, 0.0),    # min_r^2 = h^2 + 1: still coincident pairs only
    (3.0, 3.1, 9.0),    # h < min_r above h 0: only coincident pairs are close
    (8.0, 1e-9, 64.0),  # h >= min_r: no close pair
    (8.0, 8.06, 64.0),
    (0.5, 0.6, 0.0),    # h^2 is no integer, so the rows leave it out
    (2.5, 2.6, 0.0),
    (1.0, 2.0, 1.0),    # pairs 1 apart in the plane are close too
    (2.0, 2.0, 4.0),    # h = min_r: a coincident pair lies on min_r and counts
    (0.0, 1.5, 0.0),
]


def dyadic_current(rng, width, height, n):
    """n elements anywhere on the grid, positions repeating, with tangent
    components in sixteenths up to 2**20."""
    tx, ty = rng.integers(-2 ** 24, 2 ** 24, size=(2, n)) / 16
    return EdgeCurrent(width, height, rng.integers(0, width, n), rng.integers(0, height, n),
                       tx, ty)


# Whitespace between tokens: whitespace bytes and '#' comments, each comment
# ended by a line break.
WHITESPACE = st.sampled_from([bytes([c]) for c in b" \t\n\r\x0b\x0c"])
COMMENT = st.builds(lambda text, eol: b"#" + text + eol,
                    st.binary(max_size=4).map(lambda t: t.replace(b"\n", b"").replace(b"\r", b"")),
                    st.sampled_from([b"\n", b"\r"]))
SEPARATOR = st.lists(st.one_of(WHITESPACE, COMMENT), min_size=1, max_size=3).map(b"".join)


@st.composite
def pgm_streams(draw):
    """A valid P5 or P2 stream with comments wherever whitespace may go, and its image."""
    w, h, maxval = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 255))
    px = draw(st.lists(st.integers(0, maxval), min_size=w * h, max_size=w * h))
    magic = draw(st.sampled_from([b"P5", b"P2"]))
    data = draw(st.one_of(st.just(b""), SEPARATOR)) + magic
    for field in (w, h, maxval):
        data += draw(SEPARATOR) + str(field).encode()
    if magic == b"P5":
        data += draw(WHITESPACE) + bytes(px)
    else:
        data += b"".join(draw(SEPARATOR) + str(v).encode() for v in px)
    data += draw(st.one_of(st.just(b""), SEPARATOR))
    return data, GrayImage(w, h, np.array(px).reshape(h, w))


# One edit of a byte stream: (operation, position modulo the length + 1, byte).
MUTATION = st.tuples(st.sampled_from(["replace", "insert", "delete", "cut"]),
                     st.integers(0, 10 ** 6), st.sampled_from(b"0123456789 \t\n\r\x0b#P25-x\x00\xff"))


def mutate(data: bytes, mutations) -> bytes:
    """data with each MUTATION applied in turn."""
    data = bytearray(data)
    for op, where, byte in mutations:
        i = where % (len(data) + 1)
        if op == "insert":
            data.insert(i, byte)
        elif op == "cut":
            del data[i:]
        elif data and op == "replace":
            data[min(i, len(data) - 1)] = byte
        elif data:
            del data[min(i, len(data) - 1)]
    return bytes(data)
