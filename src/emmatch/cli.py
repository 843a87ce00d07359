"""Command-line front end.

Subcommands cover the full pipeline: synthesize test shapes, extract edge
masks and currents, evaluate forces and force maps, classify the shift
grid, and match image pairs.  Maps come from force_map_fast; the library's
force_map is its reference.  Glyphs draw through one grid; every command
writes its files, synth's --out included, through one writer once the
result exists.  Exit codes: 0 success, 2 bad arguments, unreadable input
or an unusable output path (checked before any write), 1 processing
failure, running out of memory and write errors included.  A command that
fails writes nothing: a failed write leaves no file and no directory it made.
The writer takes each file as text or bytes and encodes text a slice at a
time as it writes, so a map's TSV is never held as text and bytes at once.
Run as the emmatch script or as ``python -m emmatch.cli``, a finished command
calls gc.freeze() before exit, so the collection that the interpreter's shutdown
runs skips the tens of thousands of objects the imports made, which die with the
process anyway.  main() itself never freezes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .edgecurrent import (EdgeCurrent, EdgeParams, EmptyCurrentError, build_current,
                          current_tsv, extract_current, mask_image, nms_mask,
                          sobel_field, threshold_mask, _cut)
from .emforce import (ForceMap, ForceParams, Vec2, force_map_fast, force_map_tsv,
                      total_force)
from .matchmap import (ClassificationMap, classification_rgb, classify_map, match_images,
                       match_result_json, summarize_map, _BALANCED, _map_sectors, _sectors)
from .raster import (GrayImage, load_pgm, save_pgm, save_ppm, shift_image, synth_shape,
                     _grid_origin)

# Glyph per matchmap._sectors index: the eight directions clockwise from east, then balanced.
_GLYPHS = np.array(list(">\\v/<,^`."))

# _emit writes a file this many characters or bytes at a time.
_WRITE_SLICE = 1 << 20


class ArgumentCheckError(ValueError):
    """Bad command-line value detected after argparse."""


def _glyph_grid(sectors: np.ndarray) -> str:
    """One line of glyphs per row of a (height, width) array of sector indices."""
    return "".join("".join(row) + "\n" for row in _GLYPHS[sectors].tolist())


def render_direction_glyphs(fmap: ForceMap) -> str:
    """Character grid of the map's discretized force directions, a block of rows at a time."""
    return "".join(_glyph_grid(sectors) for _, sectors in _map_sectors(fmap))


def render_current_glyphs(current: EdgeCurrent) -> str:
    """Character grid of element tangent directions, '.' where no element."""
    sectors = np.full((current.height, current.width), _BALANCED)
    sectors[current.ys, current.xs] = _sectors(current.tx, current.ty)
    return _glyph_grid(sectors)


def render_classification_ppm(cls_map: ClassificationMap) -> bytes:
    """Binary PPM of the classification colors."""
    return save_ppm(classification_rgb(cls_map))


def _pair(text: str, what: str, cast, sep: str = ",") -> tuple:
    """Parse two finite numbers joined by sep: "X,Y", or "WxH" with sep "x".

    A whole number past float's range counts as not finite.
    """
    try:
        values = tuple(cast(part) for part in text.lower().split(sep))
    except ValueError:
        values = ()
    if len(values) != 2:
        raise ArgumentCheckError(f"{what} must be two numbers joined by {sep!r}, got {text!r}")
    try:
        finite = all(math.isfinite(v) for v in values)
    except OverflowError:  # a whole number past float's range
        finite = False
    if not finite:
        raise ArgumentCheckError(f"{what} must be finite, got {text!r}")
    return values


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


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(out_dir, files: dict, detail: str | None = None) -> int:
    """Write each named file, text or bytes, into out_dir, then report them if given a detail.

    Every path is checked before any byte is written, and an unusable one
    exits 2: a name that is empty (as a trailing separator leaves it), "."
    or "..", an out_dir that cannot be created, or a file path taken by a
    directory.

    Each file is written under a temporary sibling name, _WRITE_SLICE
    characters or bytes at a time (text encoded as UTF-8 slice by slice), and
    renamed into place only once every write has succeeded.  The temporary name,
    ".emmatch-PID-INDEX.tmp", does not depend on the file's name, so any
    name the file system accepts can be written.  If a write or rename fails,
    the temporaries and the directories this call made are removed and the
    error is re-raised, so files that existed before keep their bytes.
    """
    for name in files:
        if name in ("", os.curdir, os.pardir):
            raise ArgumentCheckError(
                f"cannot write {os.path.join(out_dir, name)}: it names a directory")
    out = Path(out_dir)
    created = []  # the directories mkdir makes, innermost first
    try:
        missing = out
        while not missing.exists():
            created.append(missing)
            missing = missing.parent
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ArgumentCheckError(f"cannot create output directory {out}: {e}")
    paths = {out / name: data for name, data in files.items()}
    for path in paths:
        if path.is_dir():
            raise ArgumentCheckError(f"cannot write {path}: it is a directory")
    temps = {path.with_name(f".emmatch-{os.getpid()}-{index}.tmp"): path
             for index, path in enumerate(paths)}
    try:
        for temp, data in zip(temps, paths.values()):
            with temp.open("wb") as fh:
                for i in range(0, len(data), _WRITE_SLICE):
                    part = data[i:i + _WRITE_SLICE]
                    fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        for temp, path in temps.items():
            temp.replace(path)
    except BaseException:
        for temp in temps:
            try:
                temp.unlink()
            except OSError:  # never written, or already renamed into place
                pass
        for directory in created:
            try:
                directory.rmdir()
            except OSError:  # holds a file renamed into place
                pass
        raise
    if detail is not None:
        print(f"wrote {' and '.join(map(str, paths))} ({detail})")
    return 0


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
    rect = semi_axes = center = None
    if args.rect is not None:
        rw, rh = _pair(args.rect, "--rect", float, "x")
        if not (rw.is_integer() and rh.is_integer()):
            raise ArgumentCheckError(f"--rect sides must be whole numbers, got {args.rect!r}")
        rect = (int(rw), int(rh))
    if args.semi_axes is not None:
        semi_axes = _pair(args.semi_axes, "--semi-axes", float, "x")
    if args.center is not None:
        center = _pair(args.center, "--center", float)
    width = args.width if args.width is not None else args.size
    height = args.height if args.height is not None else args.size
    try:
        img = synth_shape(args.kind, width, height, side=args.side, rect=rect,
                          semi_axes=semi_axes, radius=args.radius, length=args.length,
                          thickness=args.thickness, horizontal=not args.vertical,
                          center=center)
    except ValueError as e:
        raise ArgumentCheckError(str(e))
    if args.shift is not None:
        dx, dy = _pair(args.shift, "--shift", int)
        img = shift_image(img, dx, dy)
    head, name = os.path.split(args.out)
    return _emit(head, {name: save_pgm(img)}, f"{img.width}x{img.height}, "
                 f"{int(np.count_nonzero(img.pixels))} foreground px")


def _cmd_edges(args) -> int:
    img = _load_image(args.image)
    ep = _edge_params(args)
    field = sobel_field(img, smooth=args.smooth)
    coarse = threshold_mask(field, ep)
    mask = nms_mask(field, coarse, ep)
    current = build_current(field, mask)
    return _emit(args.out_dir, {"edges.pgm": save_pgm(mask_image(mask)), "edges.json": _json({
        "width": img.width,
        "height": img.height,
        "max_magnitude": float(field.magnitude.max()),
        "threshold": _cut(ep, float(field.magnitude.max())),
        "thresholded_points": coarse.count,
        "edge_points": mask.count,
        "elements": len(current),
        "dropped_zero_gradient": current.dropped,
    })}, f"{mask.count} edge points")


def _cmd_current(args) -> int:
    img = _load_image(args.image)
    current = extract_current(img, _edge_params(args), smooth=args.smooth)
    return _emit(args.out_dir, {"current.tsv": current_tsv(current),
                                "current.txt": render_current_glyphs(current)},
                 f"{len(current)} elements, {current.dropped} dropped")


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
    # rounding or underflow of scaled forces cannot move one.
    unit = force_map_fast(c1, c2, replace(fp, strength=1.0))
    glyphs = render_direction_glyphs(unit)
    fmap = unit.scaled(fp.strength)  # force_map_fast's own last step
    del unit  # so that its planes are freed before the TSV's text is made
    return _emit(args.out_dir, {"force_map.tsv": force_map_tsv(fmap), "force_map.txt": glyphs},
                 f"{fmap.width}x{fmap.height}, origin {fmap.origin}")


def _cmd_classify(args) -> int:
    c1, c2 = _currents_for(args)
    # Labels carry no magnitudes; at unit strength the rounding or underflow
    # of scaled forces cannot change one.
    fp = replace(_force_params(args), strength=1.0)
    cls = classify_map(force_map_fast(c1, c2, fp))
    summary = summarize_map(cls)
    report = _json({
        "width": cls.width,
        "height": cls.height,
        "origin": [cls.ox, cls.oy],
        "counts": summary,
    })
    return _emit(args.out_dir, {"classification.ppm": render_classification_ppm(cls),
                                "classification.json": report},
                 ", ".join(f"{label} {n}" for label, n in summary.items()))


def _cmd_match(args) -> int:
    img1 = _load_image(args.img1)
    img2 = _load_image(args.img2)
    ep = _edge_params(args)
    fp = _force_params(args)
    start = _pair(args.start, "--start", int) if args.start else (0, 0)
    ox, oy = _grid_origin(img2.width, img2.height)
    if not (0 <= ox + start[0] < img2.width and 0 <= oy + start[1] < img2.height):
        raise ArgumentCheckError(f"--start {start} leaves the "
                                 f"{img2.width}x{img2.height} shift grid")
    result = match_images(img1, img2, ep, fp, start_offset=start, smooth=args.smooth)
    payload = match_result_json(result)
    _emit(args.out_dir, {"match.json": _json(payload)})
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
    _add_out_dir(k)
    k.set_defaults(func=_cmd_classify)

    t = sub.add_parser("match", help="estimate the shift between two images")
    _add_pair_inputs(t)
    _add_edge_flags(t)
    _add_force_flags(t)
    t.add_argument("--start", help="initial offset on the shift grid as DX,DY (default 0,0)")
    _add_out_dir(t)
    t.set_defaults(func=_cmd_match)

    return p


# Flags taking an X,Y value, where X may be negative.  argparse reads a
# separate "-3,2" token as an option name, so fuse these into --flag=value.
_PAIR_FLAGS = ("--shift", "--start", "--center")


def _fuse_negative_pairs(argv: list) -> list:
    out = []
    for tok in argv:
        negative = len(tok) >= 2 and tok[0] == "-" and tok[1] in "0123456789."
        if negative and out and out[-1] in _PAIR_FLAGS:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
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
    except MemoryError as e:  # numpy's message names the array it could not allocate
        print(f"emmatch: error: out of memory{': ' if str(e) else ''}{e}", file=sys.stderr)
        return 1


def console_main() -> int:
    """main() on sys.argv, then freeze the collector: the emmatch script's entry point."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
