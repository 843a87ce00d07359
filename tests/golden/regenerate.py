"""Regenerate the golden outputs in this directory.

From the repository root, with the package importable:

    PYTHONPATH=src python tests/golden/regenerate.py

It writes two plain JSON files:

- matches.json: match_images' shift, status, steps and path, and the
  classify_map counts of the moved image's self-pair, for each bundled kind
  at 32 and 64 px, at heights 0 and 8, moved by two fixed shifts per size;
  and on each kind's first 32 px pair, at seven (height_px, min_r) settings
  that cover the force evaluator's three close-pair rules.
- cli-sha256.json: the sha256 of every file the CLI writes (synth, edges,
  current, map, classify and match) for one 32 px pair per kind, and of
  what force prints for that pair at a fractional shift, once at each of
  FORCE_SETTINGS.

tests/test_golden.py builds the same bytes in process and compares them with
the committed files exactly.  CI runs it, with the rest of the suite,
against the installed package, so this file holds the only definition of
what the golden outputs are.  Regenerate only with a change that means to
move an output, and name every entry that moved.  The committed files were
made with Python 3.11.7 and numpy 2.4.6.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from emmatch import (ForceParams, classify_map, extract_current, force_map_fast,
                     match_images, match_result_json, shift_image, summarize_map,
                     synth_shape)
from emmatch.cli import main

HERE = Path(__file__).resolve().parent
KINDS = ("rectangle", "square", "ellipse", "circle")
SIZES = (32, 64)
HEIGHTS = (0.0, 8.0)
# (height_px, min_r): no close pair where h >= min_r; otherwise pairs closer
# than min_r, at h 0 with min_r <= 1 coincident pairs only, add nothing.
CLOSE_PAIR_SETTINGS = ((0.0, 1e-9), (5.0, 1e-9), (8.0, 1e-9), (3.0, 3.1), (8.0, 8.06),
                       (0.0, 1.5), (2.5, 2.6))
# The CLI pair: the moved image at the first planted shift against the reference.
CLI_HEIGHT = "8"
# force's shift and its (listing key, force flags) settings: the h^2 fold
# with no close pair, and the direct form with close pairs.
FORCE_SHIFT = "0.5,-0.25"
FORCE_SETTINGS = (("force/h8.json", ("--height", "8")),
                  ("force/h3-min-r3.1.json", ("--height", "3", "--min-r", "3.1")))


def planted_shifts(size: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two fixed shifts within +-size/8 per axis, in opposite quadrants."""
    return (size // 8, -(size // 10)), (-(size // 10), size // 8)


def _outcome(compute):
    """compute(), or the class name of the ValueError it raises."""
    try:
        return compute()
    except ValueError as e:
        return {"error": type(e).__name__}


def _case(kind: str, size: int, shift: tuple[int, int], h: float, min_r: float) -> dict:
    ref = synth_shape(kind, size, size)
    moved = shift_image(ref, *shift)
    fp = ForceParams(height_px=h, min_r=min_r)
    c = extract_current(moved)
    return {
        "kind": kind, "size": size, "shift": list(shift), "height_px": h, "min_r": min_r,
        "match": _outcome(lambda: match_result_json(match_images(moved, ref, force_params=fp))),
        "classify_self": _outcome(lambda: summarize_map(classify_map(force_map_fast(c, c, fp)))),
    }


def _lines(records: list) -> bytes:
    """A JSON list with one compact record per line."""
    rows = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    return f"[\n{rows}\n]\n".encode("utf-8")


def matches() -> bytes:
    cases = [(kind, size, shift, h, 1e-9) for kind in KINDS for size in SIZES
             for h in HEIGHTS for shift in planted_shifts(size)]
    cases += [(kind, 32, planted_shifts(32)[0], h, min_r)
              for kind in KINDS for h, min_r in CLOSE_PAIR_SETTINGS]
    return _lines([_case(*case) for case in cases])


def _cli(*argv: str) -> bytes:
    """What emmatch argv prints, as the console script writes it; RuntimeError unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"emmatch {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def cli_outputs() -> bytes:
    """The sha256 listing of every CLI output file."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in KINDS:
            d = Path(tmp) / kind
            ref, moved = str(d / "ref.pgm"), str(d / "moved.pgm")
            dx, dy = planted_shifts(32)[0]
            _cli("synth", "--kind", kind, "--size", "32", "--out", ref)
            _cli("synth", "--kind", kind, "--size", "32", "--shift", f"{dx},{dy}", "--out", moved)
            _cli("edges", moved, "--out-dir", str(d / "edges"))
            _cli("current", moved, "--out-dir", str(d / "current"))
            pair = ("--img1", moved, "--img2", ref, "--height", CLI_HEIGHT)
            _cli("map", *pair, "--out-dir", str(d / "map"))
            _cli("classify", "--img1", moved, "--img2", moved, "--height", CLI_HEIGHT,
                 "--out-dir", str(d / "classify"))
            _cli("match", *pair, "--out-dir", str(d / "match"))
            outputs = {path.relative_to(d).as_posix(): path.read_bytes()
                       for path in d.rglob("*") if path.is_file()}
            for key, flags in FORCE_SETTINGS:
                outputs[key] = _cli("force", "--img1", moved, "--img2", ref,
                                    "--shift", FORCE_SHIFT, *flags)
            for key, data in outputs.items():
                digests[f"{kind}/{key}"] = hashlib.sha256(data).hexdigest()
    return (json.dumps(digests, indent=1, sort_keys=True) + "\n").encode("utf-8")


def golden_files() -> dict[str, bytes]:
    """Every golden file's name and bytes, computed afresh."""
    return {"matches.json": matches(), "cli-sha256.json": cli_outputs()}


if __name__ == "__main__":
    for name, data in golden_files().items():
        (HERE / name).write_bytes(data)
        print(f"wrote {HERE / name}")
