"""The CLI's exit contract, over a table of refusals and generated command lines."""

import argparse
import io
import os
import re
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MUTATION, mutate, pgm_streams
from emmatch import GrayImage, save_pgm, shift_image, synth_shape
from emmatch.cli import build_parser, main

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


@pytest.fixture(scope="module")
def sandbox(tmp_path_factory):
    """Every input and obstacle the refusals need; each row runs in its own copy."""
    d = tmp_path_factory.mktemp("sandbox")
    rect = synth_shape("rectangle", 32, 32)
    for name, img in [("rect", rect), ("moved", shift_image(rect, 5, -4)),
                      ("moved_3_m2", shift_image(rect, 3, -2)),
                      ("c", synth_shape("circle", 32, 32)),
                      *[(name, GrayImage(n, n, np.zeros((n, n), dtype=np.uint8)))
                        for name, n in (("blank", 32), ("tiny", 2))]]:
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
    ("match_start_must_stay_on_grid", f"match {SAME} --start 40,0", 2, "--start"),
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
