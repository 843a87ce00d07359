"""The CLI's exit contract: a table of refusals, which write nothing; a table of
successes, which write the library's bytes and nothing else; and generated
command lines, which exit 0, 1 or 2 and rerun alike."""

import argparse
import io
import json
import os
import re
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GLYPHS, MUTATION, mutate, pgm_streams
from emmatch import (EdgeParams, ForceParams, GrayImage, Vec2, build_current,
                     classification_rgb, classify_map, current_tsv, discretize8,
                     extract_current, force_map_fast, force_map_tsv, mask_image, match_images,
                     match_result_json, nms_mask, save_pgm, save_ppm, shift_image, sobel_field,
                     summarize_map, synth_shape, threshold_mask, total_force)
from emmatch.cli import build_parser, main, render_direction_glyphs
from emmatch.edgecurrent import _cut

ERROR_LINE = re.compile(r"^emmatch(?: [a-z]+)?: error: ", re.M)  # cli.main's or argparse's


def tree(root: Path) -> dict:
    """Every path under root, with each file's bytes (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def run_in(work: Path, argv: list) -> tuple:
    """Code, stdout and stderr of cli.main(argv) run in work, every warning an error."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(work)
    try:
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


RECT = synth_shape("rectangle", 32, 32)
IMAGES = {"rect": RECT, "moved": shift_image(RECT, 5, -4), "moved_3_m2": shift_image(RECT, 3, -2),
          "c": synth_shape("circle", 32, 32), "ellipse": synth_shape("ellipse", 32, 32),
          **{name: GrayImage(n, n, np.zeros((n, n), dtype=np.uint8))
             for name, n in (("blank", 32), ("tiny", 2))}}


@pytest.fixture(scope="module")
def sandbox(tmp_path_factory):
    """Every input and obstacle the rows need; each row runs in its own copy."""
    d = tmp_path_factory.mktemp("sandbox")
    for name, img in IMAGES.items():
        (d / f"{name}.pgm").write_bytes(save_pgm(img))
    (d / "bad.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    (d / "afile").write_bytes(b"")
    for taken in ("taken", "d/classification.ppm", "d/match.json"):
        (d / taken).mkdir(parents=True)
    return d


PAIR, BACK = "--img1 moved.pgm --img2 rect.pgm", "--img1 rect.pgm --img2 moved.pgm"
PAST_FLOAT = "9" * 309  # a whole number past float's range, which int() still reads
SAME, NEAR = "--img1 rect.pgm --img2 rect.pgm", "--img1 moved_3_m2.pgm --img2 rect.pgm"
GONE = [("bench", "bench", "invalid choice: 'bench'")] + [
    (f"{cmd}-{flag}", f"{cmd} --{flag} {value}", f"unrecognized arguments: --{flag} {value}")
    for flag, value, cmds in (("mode", "naive", ("map", "classify")),
                              ("workers", "2", ("map", "classify")),
                              ("max-steps", "3", ("match", "classify"))) for cmd in cmds]
# (id, argv, exit code, stderr fragment); an id names a refusal, then its case.
REFUSALS = [
    ("synth_rejects_unknown_kind", "synth --kind blob --out x.pgm", 2, "invalid choice: 'blob'"),
    ("synth_rejects_oversized_shape", "synth --kind square --size 16 --side 30 --out x.pgm", 2,
     "exceeds 16x16 image"),
    *[(f"synth_rejects_malformed_rect-{rect}", f"synth --kind rectangle --rect {rect} --out x.pgm",
       2, "--rect") for rect in ("16by8", "2.5x3")],
    *[(f"overflowing_strength_is_a_processing_error-{cmd}",
       f"{cmd} {BACK} --strength 1e308{tail}", 1, "not finite")
      for cmd, tail in (("force", ""), ("map", " --out-dir out"))],
    *[(f"match_with_a_force_model_that_sums_nothing_fails-{flag}-{value}",
       f"match {NEAR} --out-dir out --{flag} {value}", 1, "sums nothing at the start shift")
      for flag, value in (("min-r", "1000"), ("height", "1e200"))],
    *[(f"map_and_classify_with_a_force_model_that_sums_nothing_fail-{cmd}-{flag}-{value}",
       f"{cmd} {NEAR} --{flag} {value} --out-dir out", 1, "sums nothing at any shift")
      for flag, value in (("min-r", "60"), ("height", "1e200")) for cmd in ("map", "classify")],
    # a start one cell past each edge of the grid; SUCCESSES starts on two corners
    *[(f"match_start_must_stay_on_grid-{start}", f"match {SAME} --start {start}", 2,
       "leaves the 32x32 shift grid") for start in ("16,0", "-17,0", "0,16", "0,-17")],
    # a negative pair value is fused to its flag only where it starts like a number
    *[(f"malformed_shift_is_an_argument_error-{case}", f"synth --kind line --shift {value}", 2,
       fragment) for case, value, fragment in (
        ("dot", "-. --out x.pgm", "--shift must be two numbers joined by ','"),
        ("dash", "- --out x.pgm", "--shift must be two numbers joined by ','"),
        ("missing", "--out x.pgm", "argument --shift: expected one argument"))],
    ("negative_command_is_an_argument_error", "-1", 2, "invalid choice: '-1'"),
    ("missing_input_is_an_argument_error", "force --img1 nope.pgm --img2 rect.pgm", 2,
     "cannot read"),
    ("malformed_image_is_a_processing_error", "edges bad.pgm --out-dir out", 1, "byte offset"),
    *[(f"failed_command_leaves_no_out_dir-{cmd}", f"{cmd} tiny.pgm --out-dir out", 1,
       "at least 3x3") for cmd in ("edges", "current")],
    *[(f"blank_image_is_a_processing_error-{cmd}-{one}-{two}",
       f"{cmd} --img1 {one}.pgm --img2 {two}.pgm{'' if cmd == 'force' else ' --out-dir out'}", 1,
       "edge points" if cmd == "match" else "no edge points extracted from blank.pgm")
      for cmd in ("match", "force", "map", "classify")
      for one, two in (("blank", "rect"), ("rect", "blank"))],
    ("bad_threshold_is_an_argument_error", f"classify {SAME} --threshold 1.5 --out-dir out", 2,
     "threshold_pct"),
    ("bad_strength_is_an_argument_error-strength", f"force {SAME} --strength 0", 2, "strength"),
    ("bad_strength_is_an_argument_error-min-r", f"force {SAME} --min-r 1e-200", 2,
     "min_r must have a nonzero square"),
    *[(f"non_finite_force_param_is_an_argument_error-{flag}-{value}",
       f"match {PAIR} --{flag}={value} --out-dir out", 2, "must be finite")
      for flag, value in (("height", "nan"), ("height", "inf"), ("strength", "nan"),
                          ("min-r", "nan"), ("strength", "-inf"))],
    *[(f"non_finite_geometry_is_an_argument_error-{case}", argv, 2, "must be finite")
      for case, argv in (
        ("shift-nan", f"force --shift nan,0 {SAME}"), ("shift-inf", f"force --shift inf,0 {SAME}"),
        ("center-nan", "synth --kind circle --center nan,nan --out x.pgm"),
        ("radius-nan", "synth --kind circle --radius nan --out x.pgm"),
        ("semi-axes-nan", "synth --kind ellipse --semi-axes nanx3 --out x.pgm"),
        ("rect-inf", "synth --kind rectangle --rect infx8 --out x.pgm"))],
    *[(f"map_evaluator_selection_is_gone-{case}", f"{argv} {PAIR} --out-dir out", 2, message)
      for case, argv, message in GONE],
    *[(f"output_directory_under_a_file_is_an_argument_error-{argv.split()[0]}", argv, 2,
       "emmatch: error: cannot create output directory afile")
      for argv in ("synth --kind circle --out afile/c.pgm", "edges c.pgm --out-dir afile/d")],
    *[(f"output_file_taken_by_a_directory_is_an_argument_error-{argv.split()[0]}", argv, 2,
       f"emmatch: error: cannot write {taken}: it is a directory\n") for argv, taken in (
        ("synth --kind circle --out taken", "taken"),
        ("classify --img1 c.pgm --img2 c.pgm --out-dir d", "d/classification.ppm"),
        ("match --img1 c.pgm --img2 c.pgm --out-dir d", "d/match.json"))],
    *[(f"synth_out_naming_a_directory_is_an_argument_error-{case}",
       f"synth --kind circle --out {out}", 2,
       f"emmatch: error: cannot write {out}: it names a directory\n")
      for case, out in (("slash", "new/"), ("dot", "new/."), ("dotdot", "new/.."))],
    # Each used to escape main as OverflowError, once a size was halved as a float
    # or a pair checked with math.isfinite.
    *[(f"whole_number_past_float_range_is_an_argument_error-{flag}", argv.format(PAST_FLOAT), 2,
       fragment) for flag, argv, fragment in (
        *[(flag, f"synth --kind square --{flag} {{}} --out x.pgm",
           "image dimensions must be at most") for flag in ("size", "width", "height")],
        *[(flag, f"synth --kind {kind} --{flag} {{}} --out x.pgm", "exceeds 32x32 image")
          for kind, flag in (("square", "side"), ("line", "length"), ("line", "thickness"))],
        ("shift", "synth --kind square --shift {},0 --out x.pgm", "--shift must be finite"),
        ("start", f"match {SAME} --start 0,{{}} --out-dir out", "--start must be finite"))],
]


@pytest.mark.parametrize("argv, code, fragment", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_writes_nothing(sandbox, tmp_path, argv, code, fragment):
    work = Path(shutil.copytree(sandbox, tmp_path / "work"))
    before = tree(work)
    got, out, err = run_in(work, argv.split())
    assert (got, out) == (code, "")
    assert fragment in err and ERROR_LINE.search(err), err
    assert tree(work) == before


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def wrote(files: dict, detail: str) -> tuple:
    """The stdout line and the files of a command that reports what it wrote."""
    return f"wrote {' and '.join(files)} ({detail})\n", files


def synth(out: str, detail: str, kind: str, shift=(0, 0), **kw) -> tuple:
    """synth's outputs: the 32 px shape, moved by shift."""
    return wrote({out: save_pgm(shift_image(synth_shape(kind, 32, 32, **kw), *shift))}, detail)


def currents(one: str, two: str) -> tuple:
    return extract_current(IMAGES[one]), extract_current(IMAGES[two])


def force_line(fx: float, fy: float, fz: float) -> str:
    return json.dumps({"fx": fx, "fy": fy, "fz": fz}, sort_keys=True) + "\n"


def force(one: str, two: str, shift: tuple) -> tuple:
    f = total_force(*currents(one, two), Vec2(*shift))
    return force_line(f.x, f.y, f.z), {}


def force_from_map(one: str, two: str, shift: tuple, fp: ForceParams) -> tuple:
    """fx and fy read off the map's cell at shift; fz, which the map lacks, from total_force."""
    c1, c2 = currents(one, two)
    fmap = force_map_fast(c1, c2, fp)
    cell = fmap.cell(fmap.ox + shift[0], fmap.oy + shift[1])
    return force_line(cell.x, cell.y, total_force(c1, c2, Vec2(*shift), fp).z), {}


def edges(name: str, p: EdgeParams, smooth: bool) -> tuple:
    """edges' outputs by the staged route."""
    img = IMAGES[name]
    field = sobel_field(img, smooth)
    coarse = threshold_mask(field, p)
    mask = nms_mask(field, coarse, p)
    c, top = build_current(field, mask), float(field.magnitude.max())
    return wrote({"out/edges.pgm": save_pgm(mask_image(mask)), "out/edges.json": json_bytes({
        "width": img.width, "height": img.height, "max_magnitude": top,
        "threshold": _cut(p, top), "thresholded_points": coarse.count,
        "edge_points": mask.count, "elements": len(c), "dropped_zero_gradient": c.dropped,
    })}, f"{mask.count} edge points")


def current(name: str, smooth: bool) -> tuple:
    """current's outputs; the glyph of each element's tangent, "." where none."""
    c = extract_current(IMAGES[name], smooth=smooth)
    rows = [["."] * c.width for _ in range(c.height)]
    for x, y, tx, ty in zip(c.xs.tolist(), c.ys.tolist(), c.tx.tolist(), c.ty.tolist()):
        rows[y][x] = GLYPHS[discretize8(Vec2(tx, ty))]
    glyphs = "".join("".join(row) + "\n" for row in rows)
    return wrote({"out/current.tsv": current_tsv(c).encode(), "out/current.txt": glyphs.encode()},
                 f"{len(c)} elements, {c.dropped} dropped")


def map_outputs(one: str, two: str, fp: ForceParams) -> tuple:
    """map's outputs; the glyphs are the unit-strength map's."""
    c1, c2 = currents(one, two)
    fmap, unit = force_map_fast(c1, c2, fp), force_map_fast(c1, c2, replace(fp, strength=1.0))
    return wrote({"out/force_map.tsv": force_map_tsv(fmap).encode(),
                  "out/force_map.txt": render_direction_glyphs(unit).encode()},
                 f"{fmap.width}x{fmap.height}, origin {fmap.origin}")


def classify(one: str, two: str, fp: ForceParams) -> tuple:
    cls = classify_map(force_map_fast(*currents(one, two), fp))
    counts = summarize_map(cls)
    return wrote({"out/classification.ppm": save_ppm(classification_rgb(cls)),
                  "out/classification.json": json_bytes({
                      "width": cls.width, "height": cls.height, "origin": [cls.ox, cls.oy],
                      "counts": counts})},
                 ", ".join(f"{label} {n}" for label, n in counts.items()))


def match(one: str, two: str, start=(0, 0), smooth=False) -> tuple:
    payload = match_result_json(match_images(IMAGES[one], IMAGES[two], start_offset=start,
                                             smooth=smooth))
    return json.dumps(payload, sort_keys=True) + "\n", {"out/match.json": json_bytes(payload)}


LONG = "a" * 250  # a legal name, too long for a temporary name built around it
H8 = ForceParams(height_px=8.0)
# (id, argv, a call giving the stdout and {path: bytes}); an id names a success, then its case.
SUCCESSES = [
    ("synth_writes_matching_pgm", "synth --kind square --size 32 --side 12 --out out/sq.pgm",
     partial(synth, "out/sq.pgm", "32x32, 144 foreground px", "square", side=12)),
    *[(f"synth_{case}", f"synth --kind rectangle --rect 16x8 --shift {dx},{dy} --out out/m.pgm",
       partial(synth, "out/m.pgm", "32x32, 128 foreground px", "rectangle", (dx, dy),
               rect=(16, 8)))
      for case, dx, dy in (("applies_shift", 5, -4), ("accepts_negative_leading_shift", -3, 2))],
    ("synth_draws_a_line_one_pixel_thick", "synth --kind line --out out/l.pgm",
     partial(synth, "out/l.pgm", "32x32, 16 foreground px", "line")),
    ("synth_with_a_tiny_radius_writes_a_blank_image_quietly",
     "synth --kind circle --radius 1e-200 --out out/c.pgm",
     partial(synth, "out/c.pgm", "32x32, 0 foreground px", "circle", radius=1e-200)),
    ("synth_writes_a_long_name", f"synth --kind circle --out {LONG}",
     partial(synth, LONG, "32x32, 316 foreground px", "circle")),
    ("force_accepts_negative_pair_shift", f"force {SAME} --shift -6,-6",
     partial(force, "rect", "rect", (-6, -6))),
    ("force_reports_restoring_pull", f"force {SAME} --shift 5,-4",
     partial(force, "rect", "rect", (5, -4))),
    ("force_defaults_to_the_zero_shift", f"force {SAME}", partial(force, "rect", "rect", (0, 0))),
    *[(f"force_equals_the_map_row_of_its_shift-{dx},{dy}",
       f"force {PAIR} --height 8 --strength 2.5 --shift {dx},{dy}",
       partial(force_from_map, "moved", "rect", (dx, dy),
               ForceParams(strength=2.5, height_px=8.0)))
      for dx, dy in ((-5, 4), (3, -7))],
    *[(f"edges_outputs-{kind}-{case}", f"edges {kind}.pgm {flags} --out-dir out",
       partial(edges, kind, p, "--smooth" in flags))
      for kind in ("rect", "ellipse") for case, flags, p in (
        ("plain", "", EdgeParams()), ("smooth", "--smooth", EdgeParams()),
        ("strict-0.35", "--strict-nms --threshold 0.35", EdgeParams(0.35, strict_nms=True)))],
    ("current_outputs", "current rect.pgm --out-dir out", partial(current, "rect", False)),
    ("current_smooth_writes_the_smoothed_current", "current rect.pgm --smooth --out-dir out",
     partial(current, "rect", True)),
    ("map_outputs", f"map {PAIR} --out-dir out",
     partial(map_outputs, "moved", "rect", ForceParams())),
    *[(f"map_glyphs_ignore_strength-{s}", f"map {SAME} --height 8 --strength {s} --out-dir out",
       partial(map_outputs, "rect", "rect", replace(H8, strength=float(s))))
      for s in ("1", "1e-20")],
    ("classify_outputs", f"classify {SAME} --height 8 --out-dir out",
     partial(classify, "rect", "rect", H8)),
    *[(f"classify_ignores_strength-{s}",
       f"classify {SAME} --height 8 --strength {s} --out-dir out",
       partial(classify, "rect", "rect", replace(H8, strength=float(s)))) for s in ("1", "1e-20")],
    # Cells with G = 0 and their feeders are locally trapped, the origin at min_r 30.
    *[(f"classify_traps_cells_that_sum_nothing-{r}", f"classify {NEAR} --min-r {r} --out-dir out",
       partial(classify, "moved_3_m2", "rect", ForceParams(min_r=float(r))))
      for r in ("20", "30", "40")],
    ("match_outputs", f"match {PAIR} --out-dir out", partial(match, "moved", "rect")),
    ("match_smooth_equals_the_library_match", f"match {PAIR} --smooth --out-dir out",
     partial(match, "moved", "rect", smooth=True)),
    ("match_accepts_negative_start", f"match {SAME} --start -2,-2 --out-dir out",
     partial(match, "rect", "rect", start=(-2, -2))),
    *[(f"match_accepts_a_start_in_a_corner-{dx},{dy}",
       f"match {SAME} --start {dx},{dy} --out-dir out",
       partial(match, "rect", "rect", start=(dx, dy))) for dx, dy in ((-16, -16), (15, 15))],
]


@pytest.mark.parametrize("argv, expected", [row[1:] for row in SUCCESSES],
                         ids=[row[0] for row in SUCCESSES])
def test_success_writes_the_library_output(sandbox, tmp_path, argv, expected):
    stdout, files = expected()
    work = Path(shutil.copytree(sandbox, tmp_path / "work"))
    want = tree(work)
    for name, data in files.items():
        want.update({parent.as_posix(): None for parent in Path(name).parents[:-1]})
        want[name] = data
    assert run_in(work, argv.split()) == (0, stdout, "")
    assert tree(work) == want


def test_success_rows_keep_their_flags_apart():
    # --smooth changes the current; --strength changes no label and no glyph,
    # and not every glyph is a balance.
    expected = {row[0]: row[2] for row in SUCCESSES}

    def files(name):
        return expected[name]()[1]

    assert (files("current_smooth_writes_the_smoothed_current")["out/current.tsv"]
            != files("current_outputs")["out/current.tsv"])
    assert files("classify_ignores_strength-1") == files("classify_ignores_strength-1e-20")
    glyphs = [files(f"map_glyphs_ignore_strength-{s}")["out/force_map.txt"] for s in ("1", "1e-20")]
    assert glyphs[0] == glyphs[1] and set(glyphs[0].decode()) - set(".\n")


(COMMANDS,) = [a.choices for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
IMAGE_ARGS = ("image", "img1", "img2")  # each reads the file named after it, as image.pgm
# Numbers at and past float's edges, pairs and paths.  None but PAST_FLOAT, which
# every command refuses before it allocates, is above 64, synth's largest side.
VALUES = ["0", "-0", "1", "3", "0.35", "64", "nan", "inf", "1e-200", "1e-320", "1e300",
          PAST_FLOAT, "-3,2", "1,1", "2.5x3", "4x3", "d/.", "out/x.pgm"]


@st.composite
def image_files(draw):
    """PGM bytes: a valid stream or a 3-12 px shape, one time in five mutated."""
    data = draw(st.one_of(pgm_streams().map(lambda stream: stream[0]), st.builds(
        lambda kind, w, h: save_pgm(synth_shape(kind, w, h)),
        st.sampled_from(["square", "ellipse", "circle", "line"]),  # a rectangle needs 4 px
        st.integers(3, 12), st.integers(3, 12))))
    if draw(st.integers(0, 4)) == 0:
        data = mutate(data, draw(st.lists(MUTATION, min_size=1, max_size=3)))
    return data


def values(action: argparse.Action):
    return st.sampled_from(sorted(action.choices) if action.choices else VALUES)


@st.composite
def command_lines(draw):
    """argv: a subcommand, its required arguments and at most two of its optional flags;
    and the image files it reads, by name."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [a for a in COMMANDS[command]._actions if not isinstance(a, argparse._HelpAction)]
    argv, files = [command], {}
    for a in actions:
        if a.dest in IMAGE_ARGS:
            files[f"{a.dest}.pgm"] = draw(image_files())
            argv += [*a.option_strings[:1], f"{a.dest}.pgm"]
        elif not a.option_strings or a.required:
            argv += [*a.option_strings[:1], draw(values(a))]
    optional = [a for a in actions if a.option_strings and not a.required]
    for a in draw(st.lists(st.sampled_from(optional), max_size=2, unique=True)):
        argv += [a.option_strings[-1], *([draw(values(a))] if a.nargs != 0 else [])]
    return argv, files


@given(command_lines())
# Mended bugs: a numpy overflow warning, a directory left by a refused --out, and
# an OverflowError that escaped main.
@example((["synth", "--kind", "circle", "--radius", "1e-200", "--out", "x.pgm"], {}))
@example((["synth", "--kind", "circle", "--out", "d/."], {}))
@example((["synth", "--kind", "square", "--size", PAST_FLOAT, "--out", "x.pgm"], {}))
@example((["match", "--img1", "img1.pgm", "--img2", "img2.pgm", "--start", f"0,{PAST_FLOAT}"],
          {f"img{i}.pgm": save_pgm(synth_shape("square", 8, 8)) for i in (1, 2)}))
@settings(max_examples=120, deadline=None)
def test_generated_command_lines_keep_the_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for work in (Path(tmp, "first"), Path(tmp, "rerun")):
            work.mkdir()
            for name, data in files.items():
                (work / name).write_bytes(data)
            code, out, err = run_in(work, argv)
            assert code in (0, 1, 2)
            if code:  # only a first run may fail: a rerun repeats a success
                assert not runs and ERROR_LINE.search(err) and tree(work) == files, err
                return
            assert err == ""
            assert argv[0] != "synth" or (work / argv[argv.index("--out") + 1]).is_file()
            runs.append((out, tree(work)))
        assert runs[0] == runs[1]
