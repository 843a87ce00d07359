"""Command-line front end.

Subcommands cover the full pipeline: synthesize test shapes, extract edge
masks and currents, evaluate forces and force maps, classify the shift
grid, and match image pairs.  Maps come from force_map_fast; the library's
force_map is its reference.  The text renderings of a map's forces and a
current's tangents draw through one glyph grid.  Exit codes: 0 success,
2 bad arguments or unreadable input, 1 processing failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .edgecurrent import (EdgeCurrent, EdgeParams, EmptyCurrentError, build_current,
                          current_tsv, extract_current, mask_image, nms_mask,
                          threshold_mask)
from .emforce import (ForceMap, ForceParams, Vec2, force_map_fast, force_map_tsv,
                      total_force)
from .gradient import sobel_field
from .matchmap import (ClassificationMap, Direction8, classification_rgb, classify_map,
                       match_images, match_result_json, summarize_map, _direction_of)
from .raster import GrayImage, load_pgm, save_pgm, save_ppm, shift_image, synth_shape

GLYPHS = {
    Direction8.E: ">", Direction8.S: "v", Direction8.W: "<", Direction8.N: "^",
    Direction8.SE: "\\", Direction8.SW: "/", Direction8.NE: "`", Direction8.NW: ",",
    None: ".",
}


class ArgumentCheckError(ValueError):
    """Bad command-line value detected after argparse."""


def _glyph_grid(width: int, height: int, xs: list, ys: list, vx: list, vy: list) -> str:
    """Character grid with the glyph of (vx[i], vy[i]) at cell (xs[i], ys[i]), '.' elsewhere."""
    grid = [["."] * width for _ in range(height)]
    for x, y, gx, gy in zip(xs, ys, vx, vy):
        grid[y][x] = GLYPHS[_direction_of(gx, gy)]
    return "\n".join(map("".join, grid)) + "\n"


def render_direction_glyphs(fmap: ForceMap) -> str:
    """Character grid of the map's discretized force directions."""
    ys, xs = np.indices(fmap.fx.shape).reshape(2, -1).tolist()
    return _glyph_grid(fmap.width, fmap.height, xs, ys,
                       fmap.fx.ravel().tolist(), fmap.fy.ravel().tolist())


def render_current_glyphs(current: EdgeCurrent) -> str:
    """Character grid of element tangent directions, '.' where no element."""
    return _glyph_grid(current.width, current.height, current.xs.tolist(),
                       current.ys.tolist(), current.tx.tolist(), current.ty.tolist())


def render_classification_ppm(cls_map: ClassificationMap) -> bytes:
    """Binary PPM of the classification colors."""
    return save_ppm(classification_rgb(cls_map))


def _pair(text: str, what: str, cast, sep: str = ",") -> tuple:
    """Parse two finite numbers joined by sep: "X,Y", or "WxH" with sep "x"."""
    try:
        values = tuple(cast(part) for part in text.lower().split(sep))
    except ValueError:
        values = ()
    if len(values) != 2:
        raise ArgumentCheckError(f"{what} must be two numbers joined by {sep!r}, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ArgumentCheckError(f"{what} must be finite, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1; failures exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _edge_params(args) -> EdgeParams:
    try:
        return EdgeParams(threshold_pct=args.threshold, strict_nms=args.strict_nms)
    except ValueError as e:
        raise ArgumentCheckError(str(e))


def _force_params(args) -> ForceParams:
    try:
        return ForceParams(strength=args.strength, height_px=args.height, min_r=args.min_r)
    except ValueError as e:
        raise ArgumentCheckError(str(e))


def _load_image(path: str) -> GrayImage:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ArgumentCheckError(f"cannot read {path}: {e}")
    return load_pgm(data)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ArgumentCheckError(f"cannot create output directory {out}: {e}")
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_bytes((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _currents_for(args) -> tuple[EdgeCurrent, EdgeCurrent]:
    img1 = _load_image(args.img1)
    img2 = _load_image(args.img2)
    ep = _edge_params(args)
    c1 = extract_current(img1, ep, smooth=args.smooth)
    c2 = extract_current(img2, ep, smooth=args.smooth)
    if len(c1) == 0 or len(c2) == 0:
        raise EmptyCurrentError("no edge points extracted from "
                                + (args.img1 if len(c1) == 0 else args.img2))
    return c1, c2


def _cmd_synth(args) -> int:
    kw = {}
    if args.side is not None:
        kw["side"] = args.side
    if args.rect is not None:
        rw, rh = _pair(args.rect, "--rect", float, "x")
        if not (rw.is_integer() and rh.is_integer()):
            raise ArgumentCheckError(f"--rect sides must be whole numbers, got {args.rect!r}")
        kw["rect"] = (int(rw), int(rh))
    if args.semi_axes is not None:
        kw["semi_axes"] = _pair(args.semi_axes, "--semi-axes", float, "x")
    if args.radius is not None:
        kw["radius"] = args.radius
    if args.length is not None:
        kw["length"] = args.length
    if args.thickness != 1:
        kw["thickness"] = args.thickness
    if args.vertical:
        kw["horizontal"] = False
    if args.center is not None:
        kw["center"] = _pair(args.center, "--center", float)
    width = args.width if args.width is not None else args.size
    height = args.height if args.height is not None else args.size
    try:
        img = synth_shape(args.kind, width, height, **kw)
    except ValueError as e:
        raise ArgumentCheckError(str(e))
    if args.shift is not None:
        dx, dy = _pair(args.shift, "--shift", int)
        img = shift_image(img, dx, dy)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(save_pgm(img))
    print(f"wrote {out} ({img.width}x{img.height}, "
          f"{int(np.count_nonzero(img.pixels))} foreground px)")
    return 0


def _cmd_edges(args) -> int:
    img = _load_image(args.image)
    ep = _edge_params(args)
    out = _out_dir(args)
    field = sobel_field(img, smooth=args.smooth)
    coarse = threshold_mask(field, ep)
    mask = nms_mask(field, coarse, ep)
    current = build_current(field, mask)
    (out / "edges.pgm").write_bytes(save_pgm(mask_image(mask)))
    _write_json(out / "edges.json", {
        "width": img.width,
        "height": img.height,
        "max_magnitude": float(field.magnitude.max()),
        "threshold": float(ep.threshold_pct * field.magnitude.max()),
        "thresholded_points": coarse.count,
        "edge_points": mask.count,
        "elements": len(current),
        "dropped_zero_gradient": current.dropped,
    })
    print(f"wrote {out / 'edges.pgm'} and {out / 'edges.json'} "
          f"({mask.count} edge points)")
    return 0


def _cmd_current(args) -> int:
    img = _load_image(args.image)
    ep = _edge_params(args)
    out = _out_dir(args)
    current = extract_current(img, ep, smooth=args.smooth)
    (out / "current.tsv").write_bytes(current_tsv(current).encode("utf-8"))
    (out / "current.txt").write_bytes(render_current_glyphs(current).encode("utf-8"))
    print(f"wrote {out / 'current.tsv'} and {out / 'current.txt'} "
          f"({len(current)} elements, {current.dropped} dropped)")
    return 0


def _cmd_force(args) -> int:
    c1, c2 = _currents_for(args)
    fp = _force_params(args)
    sx, sy = _pair(args.shift, "--shift", float) if args.shift else (0.0, 0.0)
    f = total_force(c1, c2, Vec2(sx, sy), fp)
    print(json.dumps({"fx": f.x, "fy": f.y, "fz": f.z}, sort_keys=True))
    return 0


def _cmd_map(args) -> int:
    c1, c2 = _currents_for(args)
    fp = _force_params(args)
    # Glyphs come from the unit-strength map, as classify's labels do, so the
    # zero-force cutoff cannot turn a weakly scaled force into a balance.
    unit = force_map_fast(c1, c2, replace(fp, strength=1.0))
    fmap = unit.scaled(fp.strength)  # force_map_fast's own last step
    out = _out_dir(args)
    (out / "force_map.tsv").write_bytes(force_map_tsv(fmap).encode("utf-8"))
    (out / "force_map.txt").write_bytes(render_direction_glyphs(unit).encode("utf-8"))
    print(f"wrote {out / 'force_map.tsv'} and {out / 'force_map.txt'} "
          f"({fmap.width}x{fmap.height}, origin {fmap.origin})")
    return 0


def _cmd_classify(args) -> int:
    c1, c2 = _currents_for(args)
    # Labels carry no magnitudes; at unit strength the zero-force cutoff
    # cannot turn a weakly scaled force into a balance.
    fp = replace(_force_params(args), strength=1.0)
    cls = classify_map(force_map_fast(c1, c2, fp), max_steps=args.max_steps)
    out = _out_dir(args)
    (out / "classification.ppm").write_bytes(render_classification_ppm(cls))
    summary = summarize_map(cls)
    _write_json(out / "classification.json", {
        "width": cls.width,
        "height": cls.height,
        "origin": [cls.ox, cls.oy],
        "counts": summary,
    })
    print(f"wrote {out / 'classification.ppm'} and {out / 'classification.json'} "
          f"(convergence {summary['convergence']}, divergence {summary['divergence']}, "
          f"locally_trapped {summary['locally_trapped']})")
    return 0


def _cmd_match(args) -> int:
    img1 = _load_image(args.img1)
    img2 = _load_image(args.img2)
    ep = _edge_params(args)
    fp = _force_params(args)
    start = _pair(args.start, "--start", int) if args.start else (0, 0)
    ox, oy = img2.width // 2, img2.height // 2
    if not (0 <= ox + start[0] < img2.width and 0 <= oy + start[1] < img2.height):
        raise ArgumentCheckError(f"--start {start} leaves the "
                                 f"{img2.width}x{img2.height} shift grid")
    result = match_images(img1, img2, ep, fp, start_offset=start,
                          max_steps=args.max_steps, smooth=args.smooth)
    payload = match_result_json(result)
    out = _out_dir(args)
    _write_json(out / "match.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _add_edge_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=0.20,
                   help="edge threshold as a fraction of the max gradient magnitude "
                        "(default 0.20)")
    p.add_argument("--strict-nms", action="store_true",
                   help="thin with strict > comparisons (suppresses plateau edges)")
    p.add_argument("--smooth", action="store_true",
                   help="apply 3x3 binomial smoothing before the gradient")


def _add_force_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strength", type=float, default=1.0,
                   help="overall force scale constant (default 1)")
    p.add_argument("--height", type=float, default=0.0,
                   help="vertical separation between the current planes in pixels "
                        "(default 0)")
    p.add_argument("--min-r", type=float, default=1e-9,
                   help="pairs closer than this contribute no force (default 1e-9)")


def _add_pair_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--img1", required=True, help="moving image (PGM)")
    p.add_argument("--img2", required=True, help="reference image (PGM)")


def _add_out_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for output files (default .)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="emmatch",
        description="Match grayscale images under integer shift by simulating "
                    "magnetic forces between their edge currents.",
        epilog="Direction glyphs in text outputs: > v < ^ east south west north, "
               "\\ southeast, / southwest, ` northeast, , northwest, . balanced.")
    sub = p.add_subparsers(dest="command", required=True)
    max_steps_help = ("walk budget; a spent budget or a cycle of 3+ cells is trapped "
                      "(default none: every walk ends by its first revisited cell)")

    s = sub.add_parser("synth", help="rasterize a synthetic test shape to PGM")
    s.add_argument("--kind", required=True,
                   choices=("square", "rectangle", "ellipse", "circle", "line"))
    s.add_argument("--size", type=int, default=32, help="image side length (default 32)")
    s.add_argument("--width", type=int, help="image width (overrides --size)")
    s.add_argument("--height", type=int, help="image height (overrides --size)")
    s.add_argument("--side", type=int, help="square side length")
    s.add_argument("--rect", help="rectangle size as WxH")
    s.add_argument("--semi-axes", help="ellipse semi-axes as AxB")
    s.add_argument("--radius", type=float, help="circle radius")
    s.add_argument("--length", type=int, help="line length")
    s.add_argument("--thickness", type=int, default=1, help="line thickness (default 1)")
    s.add_argument("--vertical", action="store_true", help="draw the line vertically")
    s.add_argument("--center", help="shape center as X,Y (default image center)")
    s.add_argument("--shift", help="translate the result by DX,DY before writing")
    s.add_argument("--out", required=True, help="output PGM path")
    s.set_defaults(func=_cmd_synth)

    e = sub.add_parser("edges", help="extract the edge mask of an image")
    e.add_argument("image", help="input PGM")
    _add_edge_flags(e)
    _add_out_dir(e)
    e.set_defaults(func=_cmd_edges)

    c = sub.add_parser("current", help="extract the edge current of an image")
    c.add_argument("image", help="input PGM")
    _add_edge_flags(c)
    _add_out_dir(c)
    c.set_defaults(func=_cmd_current)

    f = sub.add_parser("force", help="total force between two images at one shift")
    _add_pair_inputs(f)
    f.add_argument("--shift", help="translation of img1's current as DX,DY (default 0,0)")
    _add_edge_flags(f)
    _add_force_flags(f)
    f.set_defaults(func=_cmd_force)

    m = sub.add_parser("map", help="force map over every integer shift")
    _add_pair_inputs(m)
    _add_edge_flags(m)
    _add_force_flags(m)
    _add_out_dir(m)
    m.set_defaults(func=_cmd_map)

    k = sub.add_parser("classify", help="classify every shift cell by path outcome")
    _add_pair_inputs(k)
    _add_edge_flags(k)
    _add_force_flags(k)
    k.add_argument("--max-steps", type=_positive_int, help=max_steps_help)
    _add_out_dir(k)
    k.set_defaults(func=_cmd_classify)

    t = sub.add_parser("match", help="estimate the shift between two images")
    _add_pair_inputs(t)
    _add_edge_flags(t)
    _add_force_flags(t)
    t.add_argument("--start", help="initial offset on the shift grid as DX,DY (default 0,0)")
    t.add_argument("--max-steps", type=_positive_int, help=max_steps_help)
    _add_out_dir(t)
    t.set_defaults(func=_cmd_match)

    return p


# Flags taking an X,Y value, where X may be negative.  argparse reads a
# separate "-3,2" token as an option name, so fuse these into --flag=value.
_PAIR_FLAGS = ("--shift", "--start", "--center")


def _fuse_negative_pairs(argv: list) -> list:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _PAIR_FLAGS and len(nxt) >= 2 and nxt[0] == "-" and nxt[1] in "0123456789.":
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_fuse_negative_pairs(list(argv)))
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except ArgumentCheckError as e:
        print(f"emmatch: error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # includes PnmFormatError, EmptyCurrentError
        print(f"emmatch: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
