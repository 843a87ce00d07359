import ast
import importlib.metadata
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import emmatch
from emmatch import (EdgeParams, ForceParams, GrayImage, Vec2, classify_map,
                     current_tsv, extract_current, force_map_fast,
                     force_map_tsv, load_pgm, match_images, match_result_json,
                     nms_mask, save_pgm, shift_image, sobel_field, synth_shape,
                     threshold_mask, total_force)
from emmatch.cli import build_parser, main, render_classification_ppm
from emmatch.edgecurrent import _cut

GLYPH_SET = set(">v<^\\/`,.")


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    d = tmp_path_factory.mktemp("shapes")
    rect = synth_shape("rectangle", 32, 32)
    (d / "rect.pgm").write_bytes(save_pgm(rect))
    (d / "moved.pgm").write_bytes(save_pgm(shift_image(rect, 5, -4)))
    blank = GrayImage(32, 32, np.zeros((32, 32), dtype=np.uint8))
    (d / "blank.pgm").write_bytes(save_pgm(blank))
    (d / "bad.pgm").write_bytes(b"P5\n9 9\n255\nshort")
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_matching_pgm(tmp_path, capsys):
    out = tmp_path / "sq.pgm"
    code, stdout, _ = run(capsys, "synth", "--kind", "square", "--size", "32",
                          "--side", "12", "--out", str(out))
    assert code == 0
    assert "144 foreground px" in stdout
    assert load_pgm(out.read_bytes()) == synth_shape("square", 32, 32, side=12)


def test_synth_applies_shift(tmp_path, capsys):
    out = tmp_path / "moved.pgm"
    code, _, _ = run(capsys, "synth", "--kind", "rectangle", "--rect", "16x8",
                     "--shift", "5,-4", "--out", str(out))
    assert code == 0
    want = shift_image(synth_shape("rectangle", 32, 32, rect=(16, 8)), 5, -4)
    assert load_pgm(out.read_bytes()) == want


def test_synth_accepts_negative_leading_shift(tmp_path, capsys):
    out = tmp_path / "moved.pgm"
    code, _, _ = run(capsys, "synth", "--kind", "rectangle", "--rect", "16x8",
                     "--shift", "-3,2", "--out", str(out))
    assert code == 0
    want = shift_image(synth_shape("rectangle", 32, 32, rect=(16, 8)), -3, 2)
    assert load_pgm(out.read_bytes()) == want


def test_force_accepts_negative_pair_shift(shapes, capsys):
    code, stdout, _ = run(capsys, "force", "--img1", str(shapes / "rect.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--shift", "-6,-6")
    assert code == 0
    c = extract_current(synth_shape("rectangle", 32, 32))
    want = total_force(c, c, Vec2(-6.0, -6.0))
    doc = json.loads(stdout)
    assert (doc["fx"], doc["fy"], doc["fz"]) == (want.x, want.y, want.z)


def test_synth_rejects_unknown_kind(tmp_path, capsys):
    code, _, _ = run(capsys, "synth", "--kind", "blob",
                     "--out", str(tmp_path / "x.pgm"))
    assert code == 2  # argparse choice failure


def test_synth_rejects_oversized_shape(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--kind", "square", "--size", "16",
                       "--side", "30", "--out", str(tmp_path / "x.pgm"))
    assert code == 2
    assert "error" in err


def test_synth_rejects_malformed_rect(tmp_path, capsys):
    for rect in ("16by8", "2.5x3"):
        code, stdout, err = run(capsys, "synth", "--kind", "rectangle", "--rect", rect,
                                "--out", str(tmp_path / "x.pgm"))
        assert code == 2
        assert "--rect" in err
        assert stdout == "" and not (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize("kind", ["rectangle", "ellipse"])
@pytest.mark.parametrize("extra", [(), ("--smooth",), ("--strict-nms", "--threshold", "0.35")],
                         ids=["plain", "smooth", "strict-0.35"])
def test_edges_outputs(kind, extra, tmp_path, capsys):
    img = synth_shape(kind, 32, 32)
    (tmp_path / "in.pgm").write_bytes(save_pgm(img))
    code, stdout, _ = run(capsys, "edges", str(tmp_path / "in.pgm"), *extra,
                          "--out-dir", str(tmp_path / "out"))
    assert code == 0
    doc = json.loads((tmp_path / "out" / "edges.json").read_text())
    smooth = "--smooth" in extra
    p = EdgeParams(0.35, strict_nms=True) if "--strict-nms" in extra else EdgeParams()
    f = sobel_field(img, smooth)
    mask = nms_mask(f, threshold_mask(f, p), p)
    current = extract_current(img, p, smooth)
    assert doc["width"] == 32 and doc["height"] == 32
    assert doc["max_magnitude"] == float(f.magnitude.max())
    assert doc["threshold"] == _cut(p, float(f.magnitude.max()))
    assert doc["elements"] == len(current)
    assert doc["dropped_zero_gradient"] == current.dropped
    assert doc["edge_points"] == mask.count == len(current) + current.dropped
    assert doc["thresholded_points"] >= doc["edge_points"]
    mask_img = load_pgm((tmp_path / "out" / "edges.pgm").read_bytes())
    assert np.array_equal(mask_img.pixels == 255, mask.mask)
    assert np.array_equal(mask_img.pixels != 0, mask.mask)


def test_current_outputs(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "current", str(shapes / "rect.pgm"),
                          "--out-dir", str(tmp_path))
    assert code == 0
    current = extract_current(synth_shape("rectangle", 32, 32))
    assert (tmp_path / "current.tsv").read_text() == current_tsv(current)
    glyphs = (tmp_path / "current.txt").read_text().splitlines()
    assert len(glyphs) == 32 and all(len(row) == 32 for row in glyphs)
    assert set("".join(glyphs)) <= GLYPH_SET
    drawn = sum(ch != "." for ch in "".join(glyphs))
    assert drawn == len(current)


def test_current_smooth_writes_the_smoothed_current(shapes, tmp_path, capsys):
    for name, extra in (("raw", []), ("smooth", ["--smooth"])):
        code, _, _ = run(capsys, "current", str(shapes / "rect.pgm"), *extra,
                         "--out-dir", str(tmp_path / name))
        assert code == 0
    smooth = (tmp_path / "smooth" / "current.tsv").read_text()
    rect = synth_shape("rectangle", 32, 32)
    assert smooth == current_tsv(extract_current(rect, EdgeParams(), smooth=True))
    assert smooth != (tmp_path / "raw" / "current.tsv").read_text()


def test_force_reports_restoring_pull(shapes, capsys):
    code, stdout, _ = run(capsys, "force", "--img1", str(shapes / "rect.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--shift", "5,-4")
    assert code == 0
    doc = json.loads(stdout)
    c = extract_current(synth_shape("rectangle", 32, 32))
    want = total_force(c, c, Vec2(5.0, -4.0))
    assert (doc["fx"], doc["fy"], doc["fz"]) == (want.x, want.y, want.z)
    assert doc["fx"] < 0 and doc["fy"] > 0  # pulled back toward alignment


@pytest.mark.parametrize("shift", [(-5, 4), (3, -7)])
def test_force_equals_the_map_row_of_its_shift(shapes, tmp_path, capsys, shift):
    # One in-plane force formula: the force command's fx and fy at an integer
    # shift are the map's at that cell, at a height and a strength that are
    # not the defaults.
    pair = ["--img1", str(shapes / "moved.pgm"), "--img2", str(shapes / "rect.pgm"),
            "--height", "8", "--strength", "2.5"]
    code, stdout, _ = run(capsys, "force", *pair, "--shift", "{},{}".format(*shift))
    assert code == 0
    doc = json.loads(stdout)
    assert run(capsys, "map", *pair, "--out-dir", str(tmp_path))[0] == 0
    cell = "{}\t{}\t".format(16 + shift[0], 16 + shift[1])  # origin (16, 16)
    (row,) = [line for line in (tmp_path / "force_map.tsv").read_text().splitlines()
              if line.startswith(cell)]
    fx, fy = map(float, row.split("\t")[2:])
    assert (doc["fx"], doc["fy"]) == (fx, fy)


def test_map_outputs(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "map", "--img1", str(shapes / "moved.pgm"),
                          "--img2", str(shapes / "rect.pgm"),
                          "--out-dir", str(tmp_path))
    assert code == 0
    c1 = extract_current(shift_image(synth_shape("rectangle", 32, 32), 5, -4))
    c2 = extract_current(synth_shape("rectangle", 32, 32))
    want = force_map_tsv(force_map_fast(c1, c2))
    assert (tmp_path / "force_map.tsv").read_text() == want
    rows = (tmp_path / "force_map.txt").read_text().splitlines()
    assert len(rows) == 32 and all(len(r) == 32 for r in rows)
    assert set("".join(rows)) <= GLYPH_SET
    assert "origin (16, 16)" in stdout


def test_classify_outputs(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "classify", "--img1", str(shapes / "rect.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--height", "8",
                          "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "classification.json").read_text())
    assert doc["counts"] == {"convergence": 999, "divergence": 25,
                             "locally_trapped": 0}
    assert doc["origin"] == [16, 16]
    c = extract_current(synth_shape("rectangle", 32, 32))
    cls = classify_map(force_map_fast(c, c, ForceParams(height_px=8.0)))
    assert (tmp_path / "classification.ppm").read_bytes() == render_classification_ppm(cls)
    assert "convergence 999" in stdout


def test_classify_ignores_strength(shapes, tmp_path, capsys):
    dirs = [tmp_path / "default", tmp_path / "weak"]
    for d, extra in zip(dirs, ([], ["--strength", "1e-20"])):
        assert run(capsys, "classify", "--img1", str(shapes / "rect.pgm"),
                   "--img2", str(shapes / "rect.pgm"), "--height", "8",
                   *extra, "--out-dir", str(d))[0] == 0
    for name in ("classification.json", "classification.ppm"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_map_glyphs_ignore_strength(shapes, tmp_path, capsys):
    dirs = [tmp_path / "default", tmp_path / "weak"]
    for d, extra in zip(dirs, ([], ["--strength", "1e-20"])):
        assert run(capsys, "map", "--img1", str(shapes / "rect.pgm"),
                   "--img2", str(shapes / "rect.pgm"), "--height", "8",
                   *extra, "--out-dir", str(d))[0] == 0
    glyphs = (dirs[0] / "force_map.txt").read_bytes()
    assert (dirs[1] / "force_map.txt").read_bytes() == glyphs
    assert set(glyphs.decode()) - set(".\n")  # not every cell drawn as a balance
    c = extract_current(synth_shape("rectangle", 32, 32))
    weak = force_map_fast(c, c, ForceParams(strength=1e-20, height_px=8.0))
    assert (dirs[1] / "force_map.tsv").read_text() == force_map_tsv(weak)


@pytest.mark.parametrize("command", ["force", "map"])
def test_overflowing_strength_is_a_processing_error(shapes, tmp_path, capsys, command):
    out = tmp_path / "out"
    extra = ["--out-dir", str(out)] if command == "map" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow must not surface as a numpy warning
        code, stdout, err = run(capsys, command, "--img1", str(shapes / "rect.pgm"),
                                "--img2", str(shapes / "moved.pgm"),
                                "--strength", "1e308", *extra)
    assert code == 1
    assert "not finite" in err
    assert stdout == "" and not out.exists()


def test_match_outputs(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "match", "--img1", str(shapes / "moved.pgm"),
                          "--img2", str(shapes / "rect.pgm"),
                          "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(stdout)
    assert doc == json.loads((tmp_path / "match.json").read_text())
    assert doc["detected_shift"] == [5, -4]
    assert doc["status"] == "Matched"
    assert doc["path"][0] == [16, 16]


def test_match_smooth_equals_the_library_match(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "match", "--img1", str(shapes / "moved.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--smooth",
                          "--out-dir", str(tmp_path))
    assert code == 0
    rect = synth_shape("rectangle", 32, 32)
    want = match_images(shift_image(rect, 5, -4), rect, smooth=True)
    assert stdout == json.dumps(match_result_json(want), sort_keys=True) + "\n"


def test_match_accepts_negative_start(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "match", "--img1", str(shapes / "rect.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--start", "-2,-2",
                          "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["path"][0] == [14, 14]


@pytest.mark.parametrize("flags", [["--min-r", "1000"], ["--height", "1e200"]])
def test_match_with_a_force_model_that_sums_nothing_fails(tmp_path, capsys, flags):
    rect = synth_shape("rectangle", 32, 32)
    (tmp_path / "rect.pgm").write_bytes(save_pgm(rect))
    (tmp_path / "moved.pgm").write_bytes(save_pgm(shift_image(rect, 3, -2)))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "match", "--img1", str(tmp_path / "moved.pgm"),
                            "--img2", str(tmp_path / "rect.pgm"), "--out-dir", str(out), *flags)
    assert code == 1
    assert "sums nothing at the start shift" in err
    assert stdout == "" and not out.exists()


@pytest.fixture(scope="module")
def moved_3_m2(tmp_path_factory):
    """The 32 px rectangle and a copy moved by (3, -2), as PGM files."""
    d = tmp_path_factory.mktemp("moved_3_m2")
    rect = synth_shape("rectangle", 32, 32)
    (d / "rect.pgm").write_bytes(save_pgm(rect))
    (d / "moved.pgm").write_bytes(save_pgm(shift_image(rect, 3, -2)))
    return d


@pytest.mark.parametrize("min_r, counts", [
    ("20", {"convergence": 1, "divergence": 992, "locally_trapped": 31}),
    ("30", {"convergence": 0, "divergence": 440, "locally_trapped": 584}),
    ("40", {"convergence": 0, "divergence": 7, "locally_trapped": 1017}),
])
def test_classify_traps_cells_that_sum_nothing(moved_3_m2, tmp_path, capsys, min_r, counts):
    # Cells with G = 0 and their feeders are locally trapped; at min_r 30 the
    # origin is one of them, where it used to read as convergent.
    code, stdout, _ = run(capsys, "classify", "--img1", str(moved_3_m2 / "moved.pgm"),
                          "--img2", str(moved_3_m2 / "rect.pgm"), "--min-r", min_r,
                          "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads((tmp_path / "classification.json").read_text())["counts"] == counts
    c1 = extract_current(shift_image(synth_shape("rectangle", 32, 32), 3, -2))
    c2 = extract_current(synth_shape("rectangle", 32, 32))
    cls = classify_map(force_map_fast(c1, c2, ForceParams(min_r=float(min_r))))
    assert (tmp_path / "classification.ppm").read_bytes() == render_classification_ppm(cls)
    assert f"locally_trapped {counts['locally_trapped']}" in stdout


@pytest.mark.parametrize("command", ["map", "classify"])
@pytest.mark.parametrize("flags", [["--min-r", "60"], ["--height", "1e200"]])
def test_map_and_classify_with_a_force_model_that_sums_nothing_fail(moved_3_m2, tmp_path, capsys,
                                                                    command, flags):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--img1", str(moved_3_m2 / "moved.pgm"),
                            "--img2", str(moved_3_m2 / "rect.pgm"), *flags, "--out-dir", str(out))
    assert code == 1
    assert "sums nothing at any shift" in err
    assert stdout == "" and not out.exists()


def test_match_start_must_stay_on_grid(shapes, capsys):
    code, _, err = run(capsys, "match", "--img1", str(shapes / "rect.pgm"),
                       "--img2", str(shapes / "rect.pgm"), "--start", "40,0")
    assert code == 2
    assert "--start" in err


def test_missing_input_is_an_argument_error(shapes, capsys):
    code, _, err = run(capsys, "force", "--img1", str(shapes / "nope.pgm"),
                       "--img2", str(shapes / "rect.pgm"))
    assert code == 2
    assert "cannot read" in err


def test_malformed_image_is_a_processing_error(shapes, tmp_path, capsys):
    code, _, err = run(capsys, "edges", str(shapes / "bad.pgm"),
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "byte offset" in err


@pytest.mark.parametrize("argv", [["synth", "--kind", "circle", "--out", "afile/c.pgm"],
                                  ["edges", "c.pgm", "--out-dir", "afile/d"]],
                         ids=["synth", "edges"])
def test_output_directory_under_a_file_is_an_argument_error(tmp_path, capsys, monkeypatch,
                                                            argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"")
    (tmp_path / "c.pgm").write_bytes(save_pgm(synth_shape("circle", 32, 32)))
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("emmatch: error: cannot create output directory afile")
    assert stdout == "" and (tmp_path / "afile").read_bytes() == b""


@pytest.mark.parametrize("argv, taken", [
    (["synth", "--kind", "circle", "--out", "taken"], "taken"),
    (["classify", "--img1", "c.pgm", "--img2", "c.pgm", "--out-dir", "d"],
     os.path.join("d", "classification.ppm")),
    (["match", "--img1", "c.pgm", "--img2", "c.pgm", "--out-dir", "d"],
     os.path.join("d", "match.json"))], ids=["synth", "classify", "match"])
def test_output_file_taken_by_a_directory_is_an_argument_error(tmp_path, capsys, monkeypatch,
                                                               argv, taken):
    # a bad output argument, like an unusable --out-dir: checked before any write
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.pgm").write_bytes(save_pgm(synth_shape("circle", 32, 32)))
    (tmp_path / taken).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err == f"emmatch: error: cannot write {taken}: it is a directory\n"
    assert stdout == "" and sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["edges", "current"])
def test_failed_command_leaves_no_out_dir(tmp_path, capsys, command):
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(save_pgm(GrayImage(2, 2, np.zeros((2, 2), dtype=np.uint8))))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, str(tiny), "--out-dir", str(out))
    assert code == 1
    assert "at least 3x3" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 9.31 GiB for an array with shape (100000, 100000)"),
     "emmatch: error: out of memory: Unable to allocate 9.31 GiB for an array with shape "
     "(100000, 100000)\n"),
    (MemoryError(), "emmatch: error: out of memory\n"),
])
def test_running_out_of_memory_is_a_processing_error(tmp_path, capsys, monkeypatch, error,
                                                     message):
    # A callee that cannot allocate stands in for a huge --size; no test allocates one.
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(emmatch.cli, "synth_shape", exhausted)
    out = tmp_path / "big.pgm"
    code, stdout, stderr = run(capsys, "synth", "--kind", "rectangle", "--size", "100000",
                               "--out", str(out))
    assert (code, stdout, stderr) == (1, "", message)
    assert not out.exists()


def test_synth_with_a_tiny_radius_writes_a_blank_image_quietly(tmp_path):
    # The inside test's squares overflow to infinity, which lies outside; no
    # numpy warning may reach stderr.
    out = tmp_path / "c.pgm"
    proc = run_python("import sys; from emmatch.cli import main; sys.exit(main())",
                      ["synth", "--kind", "circle", "--radius", "1e-200", "--out", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "0 foreground px" in proc.stdout
    assert not load_pgm(out.read_bytes()).pixels.any()


def test_blank_image_is_a_processing_error(shapes, tmp_path, capsys):
    blank, rect = str(shapes / "blank.pgm"), str(shapes / "rect.pgm")
    out = tmp_path / "out"
    for command in ("match", "force", "map", "classify"):
        for img1, img2 in ((blank, rect), (rect, blank)):
            argv = [command, "--img1", img1, "--img2", img2]
            if command != "force":  # force prints its result and has no --out-dir
                argv += ["--out-dir", str(out)]
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            if command == "match":
                assert "edge points" in err
            else:
                assert f"no edge points extracted from {blank}" in err
            assert not out.exists()


def test_bad_threshold_is_an_argument_error(shapes, tmp_path, capsys):
    code, _, err = run(capsys, "classify", "--img1", str(shapes / "rect.pgm"),
                       "--img2", str(shapes / "rect.pgm"), "--threshold", "1.5",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "threshold_pct" in err


def test_bad_strength_is_an_argument_error(shapes, capsys):
    # A min_r whose square underflows to 0.0 would disable the close-pair guard.
    for flag, value, message in (("--strength", "0", "strength"),
                                 ("--min-r", "1e-200", "min_r must have a nonzero square")):
        code, stdout, err = run(capsys, "force", "--img1", str(shapes / "rect.pgm"),
                                "--img2", str(shapes / "rect.pgm"), flag, value)
        assert code == 2
        assert message in err
        assert stdout == ""


@pytest.mark.parametrize("flag,value", [("--height", "nan"), ("--height", "inf"),
                                        ("--strength", "nan"), ("--min-r", "nan"),
                                        ("--strength", "-inf")])
def test_non_finite_force_param_is_an_argument_error(shapes, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code, _, err = run(capsys, "match", "--img1", str(shapes / "moved.pgm"),
                       "--img2", str(shapes / "rect.pgm"), f"{flag}={value}",
                       "--out-dir", str(out))
    assert code == 2
    assert "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["force", "--shift", "nan,0"], ["force", "--shift", "inf,0"],
    ["synth", "--kind", "circle", "--center", "nan,nan"],
    ["synth", "--kind", "circle", "--radius", "nan"],
    ["synth", "--kind", "ellipse", "--semi-axes", "nanx3"],
    ["synth", "--kind", "rectangle", "--rect", "infx8"]],
    ids=["shift-nan", "shift-inf", "center-nan", "radius-nan", "semi-axes-nan", "rect-inf"])
def test_non_finite_geometry_is_an_argument_error(shapes, tmp_path, capsys, argv):
    out = tmp_path / "x.pgm"
    inputs = (["--img1", str(shapes / "rect.pgm"), "--img2", str(shapes / "rect.pgm")]
              if argv[0] == "force" else ["--out", str(out)])
    code, stdout, err = run(capsys, *argv, *inputs)
    assert code == 2
    assert "must be finite" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["map", "classify"])
def test_workers_flag_is_rejected(shapes, tmp_path, capsys, command):
    out = tmp_path / "out"
    code, _, err = run(capsys, command, "--img1", str(shapes / "moved.pgm"),
                       "--img2", str(shapes / "rect.pgm"), "--workers", "2",
                       "--out-dir", str(out))
    assert code == 2
    assert "unrecognized arguments: --workers 2" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["bench"], "invalid choice: 'bench'"),
    (["map", "--mode", "naive"], "unrecognized arguments: --mode naive"),
    (["classify", "--mode", "naive"], "unrecognized arguments: --mode naive"),
    (["match", "--max-steps", "3"], "unrecognized arguments: --max-steps 3"),
    (["classify", "--max-steps", "3"], "unrecognized arguments: --max-steps 3")],
    ids=["bench", "map-mode", "classify-mode", "match-max-steps", "classify-max-steps"])
def test_map_evaluator_selection_is_gone(shapes, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--img1", str(shapes / "moved.pgm"),
                            "--img2", str(shapes / "rect.pgm"), "--out-dir", str(out))
    assert code == 2
    assert message in err
    assert stdout == "" and not out.exists()


def test_reruns_are_byte_identical(shapes, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(capsys, "match", "--img1", str(shapes / "moved.pgm"),
                   "--img2", str(shapes / "rect.pgm"), "--out-dir", str(d))[0] == 0
        assert run(capsys, "classify", "--img1", str(shapes / "moved.pgm"),
                   "--img2", str(shapes / "rect.pgm"), "--out-dir", str(d))[0] == 0
    for name in ("match.json", "classification.json", "classification.ppm"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"


def declared_console_script(name):
    """The `module:function` target of `name` in pyproject's [project.scripts]."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] declares no {name!r}"
    return scripts[name]


def run_python(code, argv=(), cwd=None):
    """Run `code` in a fresh interpreter that imports this process's emmatch."""
    # Lead the child's path with the directory this process imported emmatch
    # from, so it runs the same code as the in-process tests.
    package_root = str(Path(emmatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_console_script(target, argv, cwd):
    """Run `target` in a fresh interpreter the way pip's console-script wrapper does."""
    module, _, attr = target.partition(":")
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'emmatch'\n"
               f"sys.exit({attr}())\n")
    return run_python(wrapper, argv, cwd)


def test_console_entry_point(tmp_path):
    target = declared_console_script("emmatch")
    out = tmp_path / "c.pgm"
    proc = run_console_script(target, ["synth", "--kind", "circle", "--radius", "10",
                                       "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert load_pgm(out.read_bytes()) == synth_shape("circle", 32, 32, radius=10.0)
    bad = run_console_script(target, ["synth", "--kind", "blob", "--out", str(out)],
                             cwd=tmp_path)
    assert bad.returncode == 2, bad.stderr


@pytest.mark.skipif(shutil.which("emmatch") is None,
                    reason="no installed emmatch console script on PATH")
def test_installed_console_script(tmp_path):
    installed = importlib.metadata.entry_points(group="console_scripts").select(name="emmatch")
    assert [ep.value for ep in installed] == [declared_console_script("emmatch")]
    out = tmp_path / "c.pgm"
    proc = subprocess.run(["emmatch", "synth", "--kind", "circle", "--radius", "10",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert load_pgm(out.read_bytes()) == synth_shape("circle", 32, 32, radius=10.0)


def test_help_exits_cleanly(capsys):
    code, stdout, _ = run(capsys, "--help")
    assert code == 0
    assert "synth" in stdout and "match" in stdout


def test_cli_imports_no_undeclared_dependency():
    # numpy is the only declared runtime dependency; scipy merely happens to
    # be installed, and the retired map thread pool used concurrent.futures.
    proc = run_python("import sys, emmatch.cli\n"
                      "print(','.join(m for m in ('scipy', 'concurrent.futures')"
                      " if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Runs match and map on a 32 px pair, then names each watched module that
# they loaded on top of the imports.
HEAVY_MODULE_PROBE = """\
import sys
from emmatch.cli import main
watched = ('numpy.ma', 'numpy.fft')
loaded = {m for m in watched if m in sys.modules}
args = ['--img1', 'moved.pgm', '--img2', 'ref.pgm']
for argv in (['synth', '--kind', 'rectangle', '--out', 'ref.pgm'],
             ['synth', '--kind', 'rectangle', '--shift', '3,-2', '--out', 'moved.pgm'],
             ['match', *args, '--out-dir', 'match'],
             ['map', *args, '--out-dir', 'map']):
    assert main(argv) == 0, argv
print('new modules:', ','.join(m for m in watched if m in sys.modules and m not in loaded))
"""


def test_match_and_map_load_no_heavy_numpy_module(tmp_path):
    # numpy.ma (which np.unique imports) alone adds 1.7 MiB of peak RSS, and
    # numpy.fft more.  numpy before 2.0 imports both with numpy itself, so only
    # a module the commands load on top of their imports counts.
    proc = run_python(HEAVY_MODULE_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "new modules: "
    assert (tmp_path / "match" / "match.json").is_file() and any((tmp_path / "map").iterdir())


def test_readme_pipeline_lists_the_modules():
    # One numbered item per module of the package, in pipeline order: no
    # module imports one that a later item names.
    text = README.read_text(encoding="utf-8")
    pipeline = text.split("## Pipeline", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^(\d+)\. \*\*(\w+)\*\*", pipeline, re.M)
    assert [int(n) for n, _ in items] == list(range(1, len(items) + 1))
    listed = [name for _, name in items]
    package = Path(emmatch.__file__).parent
    assert sorted(listed) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    for i, name in enumerate(listed):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert imported <= set(listed[:i]), name


def test_readme_documents_the_cli(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    table = text.split("Subcommands:", 1)[1].split("Common flags", 1)[0]
    documented = re.findall(r"^\| `([a-z]+)` ", table, re.M)
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    assert documented == list(subparsers.choices)

    round_trip = re.search(r"round trip.*?```sh\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for line in round_trip.splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "emmatch"
        code, stdout, err = run(capsys, *argv)
        assert code == 0, err
    shown = re.search(r"```json\n(.*?)\n```", text, re.S).group(1)
    want = json.loads(shown.split(', "path"', 1)[0] + "}")
    assert set(want) == {"detected_shift", "status", "steps"}
    got = json.loads(stdout)
    assert {key: got[key] for key in want} == want
