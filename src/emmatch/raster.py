"""Grayscale raster type, PGM/PPM serialization, and synthetic test shapes.

A PGM header and a plain (P2) raster are read through one token regex, so
a '#' comment may stand wherever whitespace may.  The package's TSV dumps
share one writer, _tsv.

Screen coordinates throughout: x grows to the right, y grows downward,
pixel (0, 0) is the top-left corner.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

import numpy as np

# A PGM token (group 1) is a run of bytes that are neither whitespace nor '#';
# a '#' comment runs to the end of its line and is skipped like whitespace.
_TOKEN = re.compile(rb"#[^\r\n]*|([^\s#]+)")


class PnmFormatError(ValueError):
    """Malformed PGM stream. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _frozen_copy(value, dtype, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Read-only C-contiguous copy of value as dtype, never a view of the caller's array.

    ValueError on another shape, or on a cast numpy's same_kind rule forbids.
    """
    arr = np.asarray(value)
    if arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape} does not match {shape}")
    if not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise ValueError(f"{name} dtype {arr.dtype} does not cast to {np.dtype(dtype)} "
                         "under numpy's same_kind rule")
    arr = np.array(arr, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def _grid_cell(cell: tuple, width: int, height: int, name: str) -> tuple[int, int]:
    """cell as two Python ints; ValueError unless both are integers on the width x height grid."""
    x, y = cell
    try:
        x, y = operator.index(x), operator.index(y)
    except TypeError:
        raise ValueError(f"{name} ({x}, {y}) must be a pair of integers") from None
    if not (0 <= x < width and 0 <= y < height):
        raise ValueError(f"{name} ({x}, {y}) outside {width}x{height} map")
    return x, y


def _grid_origin(width: int, height: int) -> tuple[int, int]:
    """The zero-shift cell (width // 2, height // 2) of a width x height shift grid."""
    return width // 2, height // 2


def _store_grid_size(value) -> None:
    """Store value's width and height as Python ints; ValueError unless both are integers >= 1."""
    w, h = value.width, value.height
    message = f"{type(value).__name__} size {w}x{h} must be two integers of at least 1"
    try:
        size = operator.index(w), operator.index(h)
    except TypeError:
        raise ValueError(message) from None
    if min(size) < 1:
        raise ValueError(message)
    object.__setattr__(value, "width", size[0])
    object.__setattr__(value, "height", size[1])


def _store_grid_origin(value) -> None:
    """_store_grid_size, then store value's origin (ox, oy) as ints; ValueError off the grid."""
    _store_grid_size(value)
    ox, oy = _grid_cell((value.ox, value.oy), value.width, value.height, "origin")
    object.__setattr__(value, "ox", ox)
    object.__setattr__(value, "oy", oy)


def _tsv(names: str, *columns: list) -> str:
    """Header of space-separated names, then one tab-separated line per row of tolist() columns."""
    rows = ["\t".join(names.split())]
    rows += ["\t".join(map(repr, row)) for row in zip(*columns)]
    return "\n".join(rows) + "\n"


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit grayscale raster: a read-only uint8 copy of integers in [0, 255]."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), dtype uint8, row-major

    def __post_init__(self):
        _store_grid_size(self)
        px = np.asarray(self.pixels)
        if not np.issubdtype(px.dtype, np.integer):
            raise ValueError(f"pixel dtype must be integral, got {px.dtype}")
        if px.size and (px.min() < 0 or px.max() > 255):
            raise ValueError("intensities must lie in [0, 255]")
        px = _frozen_copy(px.astype(np.uint8, copy=False),  # lossless after the range check
                          np.uint8, (self.height, self.width), "pixels")
        object.__setattr__(self, "pixels", px)

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.pixels, other.pixels))

    __hash__ = None


# No numpy array is longer than _MAX_SIDE along one axis: it bounds a width
# or height, and so every number in a PGM stream.
_MAX_SIDE = int(np.iinfo(np.intp).max)
_MAX_DIGITS = len(str(_MAX_SIDE))


def _digits_value(tok: bytes) -> tuple[int, str]:
    """Value of a digit token of any length, and how a message shows it."""
    digits = tok.lstrip(b"0") or b"0"
    if len(digits) > _MAX_DIGITS:  # above every bound, and maybe too long for int()
        return _MAX_SIDE + 1, f"of {len(digits)} digits"
    return int(digits), digits.decode()


def _header_int(token: tuple, what: str, upper: int = _MAX_SIDE) -> tuple[int, int]:
    tok, at = token
    if tok is None:
        raise PnmFormatError("unexpected end of data in header", at)
    if not tok.isdigit():
        raise PnmFormatError(f"expected unsigned integer for {what}, got {tok!r}", at)
    value, shown = _digits_value(tok)
    if value <= 0:
        raise PnmFormatError(f"{what} must be positive, got {value}", at)
    if value > upper:
        raise PnmFormatError(f"{what} {shown} exceeds supported maximum {upper}", at)
    return value, at + len(tok)


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) or plain (P2) PGM stream with maxval up to 255."""
    data = bytes(data)
    # Each header or plain-raster token with its byte offset, then (None, len(data)).
    tokens = itertools.chain(((m[1], m.start()) for m in _TOKEN.finditer(data) if m[1]),
                             [(None, len(data))])
    magic, end = next(tokens)
    if magic is None:
        raise PnmFormatError("unexpected end of data in header", end)
    if magic == b"P6":
        raise PnmFormatError("P6 is a color PPM, expected grayscale PGM (P5 or P2)", 0)
    if magic not in (b"P5", b"P2"):
        raise PnmFormatError(f"not a PGM stream, magic {magic!r}", 0)
    width, _ = _header_int(next(tokens), "width")
    height, _ = _header_int(next(tokens), "height")
    maxval, pos = _header_int(next(tokens), "maxval", upper=255)
    need = width * height
    if magic == b"P5":
        if not data[pos:pos + 1].isspace():
            raise PnmFormatError("expected single whitespace byte after maxval", pos)
        payload = data[pos + 1:pos + 1 + need]
        if len(payload) < need:
            raise PnmFormatError(f"truncated raster, expected {need} bytes, got {len(payload)}",
                                 len(data))
        px = np.frombuffer(payload, np.uint8)
        over = np.flatnonzero(px > maxval)
        if over.size:
            raise PnmFormatError(f"sample {px[over[0]]} exceeds maxval {maxval}",
                                 pos + 1 + int(over[0]))
        return GrayImage(width, height, px.reshape(height, width))

    px = []
    for tok, at in itertools.islice(tokens, need):
        if tok is None:
            raise PnmFormatError(f"truncated raster, expected {need} samples, got {len(px)}", at)
        if not tok.isdigit():
            raise PnmFormatError(f"expected ASCII sample, got {tok!r}", at)
        value, shown = _digits_value(tok)
        if value > maxval:
            raise PnmFormatError(f"sample {shown} exceeds maxval {maxval}", at)
        px.append(value)
    return GrayImage(width, height, np.array(px, np.uint8).reshape(height, width))


def save_pgm(img: GrayImage) -> bytes:
    """Serialize to binary PGM (P5) with maxval 255."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def save_ppm(rgb: np.ndarray) -> bytes:
    """Serialize an (height, width, 3) uint8 array to binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (height, width, 3) array, got shape {rgb.shape}")
    if rgb.size == 0:  # a PNM header's sides must be positive
        raise ValueError(f"raster width and height must be positive, got shape {rgb.shape}")
    if rgb.dtype != np.uint8:
        if not np.issubdtype(rgb.dtype, np.integer) or rgb.min() < 0 or rgb.max() > 255:
            raise ValueError("color samples must be integers in [0, 255]")
        rgb = rgb.astype(np.uint8)
    h, w = rgb.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + rgb.tobytes()


def _filled_box(width: int, height: int, cx: float, cy: float,
                bw: int, bh: int) -> GrayImage:
    if bw <= 0 or bh <= 0:
        raise ValueError(f"box dimensions must be positive, got {bw}x{bh}")
    x0 = int(np.floor(cx - bw / 2.0 + 0.5))
    y0 = int(np.floor(cy - bh / 2.0 + 0.5))
    if x0 < 0 or y0 < 0 or x0 + bw > width or y0 + bh > height:
        raise ValueError(f"{bw}x{bh} box at ({cx}, {cy}) exceeds {width}x{height} image")
    px = np.zeros((height, width), dtype=np.uint8)
    px[y0:y0 + bh, x0:x0 + bw] = 255
    return GrayImage(width, height, px)


def _filled_ellipse(width: int, height: int, cx: float, cy: float,
                    a: float, b: float) -> GrayImage:
    if a <= 0 or b <= 0:
        raise ValueError(f"semi-axes must be positive, got ({a}, {b})")
    if cx - a < 0 or cx + a > width or cy - b < 0 or cy + b > height:
        raise ValueError(f"ellipse ({a}, {b}) at ({cx}, {cy}) exceeds {width}x{height} image")
    # A pixel is foreground exactly when its center lies inside the ellipse.
    xs = np.arange(width, dtype=np.float64) + 0.5
    ys = np.arange(height, dtype=np.float64) + 0.5
    with np.errstate(over="ignore"):  # tiny semi-axes: an infinite square lies outside
        nx = (xs - cx) / a
        ny = (ys - cy) / b
        inside = nx[None, :] ** 2 + ny[:, None] ** 2 <= 1.0
    return GrayImage(width, height, np.where(inside, 255, 0).astype(np.uint8))


def synth_shape(kind: str, width: int, height: int, *,
                side: int | None = None,
                rect: tuple[int, int] | None = None,
                semi_axes: tuple[float, float] | None = None,
                radius: float | None = None,
                length: int | None = None,
                thickness: int = 1,
                horizontal: bool = True,
                center: tuple[float, float] | None = None) -> GrayImage:
    """Rasterize a centered bright test shape (255) on a black background (0).

    Kinds: square, rectangle, ellipse, circle, line.  Geometry parameters
    default to proportions of the image size, so a bare kind gives a usable
    shape.  The default center is the geometric image center.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    # NaN fails every bounds comparison below, so it would draw an empty image.
    for name, value in (("center", center), ("semi_axes", semi_axes), ("radius", radius)):
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    cx, cy = center if center is not None else (width / 2.0, height / 2.0)
    if kind == "square":
        s = side if side is not None else 3 * min(width, height) // 8
        return _filled_box(width, height, cx, cy, s, s)
    if kind == "rectangle":
        rw, rh = rect if rect is not None else (width // 2, height // 4)
        return _filled_box(width, height, cx, cy, rw, rh)
    if kind == "ellipse":
        a, b = semi_axes if semi_axes is not None else (5.0 * width / 16.0, 3.0 * height / 16.0)
        return _filled_ellipse(width, height, cx, cy, a, b)
    if kind == "circle":
        r = radius if radius is not None else 5.0 * min(width, height) / 16.0
        return _filled_ellipse(width, height, cx, cy, r, r)
    if kind == "line":
        n = length if length is not None else (width // 2 if horizontal else height // 2)
        bw, bh = (n, thickness) if horizontal else (thickness, n)
        return _filled_box(width, height, cx, cy, bw, bh)
    raise ValueError(f"unknown shape kind {kind!r}")


def shift_image(img: GrayImage, dx: int, dy: int) -> GrayImage:
    """Translate image content by integer (dx, dy), filling vacated pixels with 0."""
    out = np.zeros_like(img.pixels)
    w, h = img.width, img.height
    sx0, sx1 = max(0, -dx), min(w, w - dx)
    sy0, sy1 = max(0, -dy), min(h, h - dy)
    if sx0 < sx1 and sy0 < sy1:
        out[sy0 + dy:sy1 + dy, sx0 + dx:sx1 + dx] = img.pixels[sy0:sy1, sx0:sx1]
    return GrayImage(w, h, out)
