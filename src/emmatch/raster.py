"""Grayscale raster type, PGM/PPM serialization, and synthetic test shapes.

Screen coordinates throughout: x grows to the right, y grows downward,
pixel (0, 0) is the top-left corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WS = frozenset(b" \t\n\r\x0b\x0c")


class PnmFormatError(ValueError):
    """Malformed PGM stream. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 8-bit grayscale raster."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width), dtype uint8, row-major

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width}x{self.height}")
        px = np.asarray(self.pixels)
        if px.shape != (self.height, self.width):
            raise ValueError(f"pixel array shape {px.shape} does not match height x width "
                             f"({self.height}, {self.width})")
        if px.dtype != np.uint8:
            if not np.issubdtype(px.dtype, np.integer):
                raise ValueError(f"pixel dtype must be integral, got {px.dtype}")
            if px.size and (px.min() < 0 or px.max() > 255):
                raise ValueError("intensities must lie in [0, 255]")
            px = px.astype(np.uint8)
        else:
            px = px.copy()
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.pixels, other.pixels))

    __hash__ = None


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Return the next whitespace-delimited header token and the offset past it.

    Comment lines (from '#' to end of line) are skipped like whitespace.
    """
    n = len(data)
    while pos < n:
        c = data[pos]
        if c == 0x23:  # '#'
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        elif c in _WS:
            pos += 1
        else:
            break
    if pos >= n:
        raise PnmFormatError("unexpected end of data in header", pos)
    start = pos
    while pos < n and data[pos] not in _WS and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str, upper: int | None = None) -> tuple[int, int]:
    tok, end = _next_token(data, pos)
    if not tok.isdigit():
        raise PnmFormatError(f"expected unsigned integer for {what}, got {tok!r}",
                             end - len(tok))
    value = int(tok)
    if value <= 0:
        raise PnmFormatError(f"{what} must be positive, got {value}", end - len(tok))
    if upper is not None and value > upper:
        raise PnmFormatError(f"{what} {value} exceeds supported maximum {upper}", end - len(tok))
    return value, end


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) or ASCII (P2) PGM stream with maxval up to 255."""
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic == b"P6":
        raise PnmFormatError("P6 is a color PPM, expected grayscale PGM (P5 or P2)", 0)
    if magic not in (b"P5", b"P2"):
        raise PnmFormatError(f"not a PGM stream, magic {magic!r}", 0)
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval", upper=255)

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WS:
            raise PnmFormatError("expected single whitespace byte after maxval", pos)
        pos += 1
        need = width * height
        payload = data[pos:pos + need]
        if len(payload) < need:
            raise PnmFormatError(f"truncated raster, expected {need} bytes, got {len(payload)}",
                                 len(data))
        px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
        return GrayImage(width, height, px)

    values = np.empty(width * height, dtype=np.uint8)
    for i in range(width * height):
        value, pos = _header_int_sample(data, pos, maxval)
        values[i] = value
    return GrayImage(width, height, values.reshape(height, width))


def _header_int_sample(data: bytes, pos: int, maxval: int) -> tuple[int, int]:
    tok, end = _next_token(data, pos)
    if not tok.isdigit():
        raise PnmFormatError(f"expected ASCII sample, got {tok!r}", end - len(tok))
    value = int(tok)
    if value > maxval:
        raise PnmFormatError(f"sample {value} exceeds maxval {maxval}", end - len(tok))
    return value, end


def save_pgm(img: GrayImage) -> bytes:
    """Serialize to binary PGM (P5) with maxval 255."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def save_ppm(rgb: np.ndarray) -> bytes:
    """Serialize an (height, width, 3) uint8 array to binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected (height, width, 3) array, got shape {rgb.shape}")
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
