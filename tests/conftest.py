import numpy as np
import pytest
from hypothesis import settings

from emmatch import EdgeCurrent, extract_current, synth_shape

# `pytest --hypothesis-profile=ci` (the CI run): the same examples on every
# run, and a failing one printed as a blob that @reproduce_failure replays.
settings.register_profile("ci", derandomize=True, print_blob=True)


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
