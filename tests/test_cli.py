import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emmatch
from emmatch import (EdgeParams, ForceParams, GrayImage, Vec2, classify_map,
                     current_tsv, extract_current, force_map_fast,
                     force_map_tsv, load_pgm, save_pgm, shift_image,
                     synth_shape, total_force)
from emmatch.cli import main, render_classification_ppm

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
    code, _, err = run(capsys, "synth", "--kind", "rectangle", "--rect", "16by8",
                       "--out", str(tmp_path / "x.pgm"))
    assert code == 2
    assert "--rect" in err


def test_edges_outputs(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "edges", str(shapes / "rect.pgm"),
                          "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "edges.json").read_text())
    current = extract_current(synth_shape("rectangle", 32, 32))
    assert doc["width"] == 32 and doc["height"] == 32
    assert doc["elements"] == len(current)
    assert doc["edge_points"] == len(current) + doc["dropped_zero_gradient"]
    assert doc["thresholded_points"] >= doc["edge_points"]
    assert doc["threshold"] == pytest.approx(0.20 * doc["max_magnitude"])
    mask_img = load_pgm((tmp_path / "edges.pgm").read_bytes())
    assert int(np.count_nonzero(mask_img.pixels)) == doc["edge_points"]


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


def test_force_reports_restoring_pull(shapes, capsys):
    code, stdout, _ = run(capsys, "force", "--img1", str(shapes / "rect.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--shift", "5,-4")
    assert code == 0
    doc = json.loads(stdout)
    c = extract_current(synth_shape("rectangle", 32, 32))
    want = total_force(c, c, Vec2(5.0, -4.0))
    assert (doc["fx"], doc["fy"], doc["fz"]) == (want.x, want.y, want.z)
    assert doc["fx"] < 0 and doc["fy"] > 0  # pulled back toward alignment


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


def test_classify_naive_mode_agrees(tmp_path, capsys):
    img = tmp_path / "sq.pgm"
    img.write_bytes(save_pgm(synth_shape("square", 16, 16, side=6)))
    fast_dir = tmp_path / "fast"
    naive_dir = tmp_path / "naive"
    assert run(capsys, "classify", "--img1", str(img), "--img2", str(img),
               "--out-dir", str(fast_dir))[0] == 0
    assert run(capsys, "classify", "--img1", str(img), "--img2", str(img),
               "--mode", "naive", "--out-dir", str(naive_dir))[0] == 0
    assert ((fast_dir / "classification.json").read_bytes()
            == (naive_dir / "classification.json").read_bytes())


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


def test_match_accepts_negative_start(shapes, tmp_path, capsys):
    code, stdout, _ = run(capsys, "match", "--img1", str(shapes / "rect.pgm"),
                          "--img2", str(shapes / "rect.pgm"), "--start", "-2,-2",
                          "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["path"][0] == [14, 14]


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


def test_blank_image_is_a_processing_error(shapes, tmp_path, capsys):
    code, _, err = run(capsys, "match", "--img1", str(shapes / "blank.pgm"),
                       "--img2", str(shapes / "rect.pgm"),
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "edge points" in err


def test_bad_threshold_is_an_argument_error(shapes, tmp_path, capsys):
    code, _, err = run(capsys, "classify", "--img1", str(shapes / "rect.pgm"),
                       "--img2", str(shapes / "rect.pgm"), "--threshold", "1.5",
                       "--out-dir", str(tmp_path))
    assert code == 2
    assert "threshold_pct" in err


def test_bad_strength_is_an_argument_error(shapes, capsys):
    code, _, err = run(capsys, "force", "--img1", str(shapes / "rect.pgm"),
                       "--img2", str(shapes / "rect.pgm"), "--strength", "0")
    assert code == 2
    assert "strength" in err


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


@pytest.mark.parametrize("command,flag,value", [
    ("match", "--max-steps", "0"), ("match", "--max-steps", "-3"),
    ("classify", "--max-steps", "0")])
def test_count_below_one_is_an_argument_error(shapes, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    code, _, err = run(capsys, command, "--img1", str(shapes / "moved.pgm"),
                       "--img2", str(shapes / "rect.pgm"), flag, value, "--out-dir", str(out))
    assert code == 2
    assert f"argument {flag}: must be at least 1" in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("command", ["map", "classify", "bench"])
def test_workers_flag_is_rejected(shapes, tmp_path, capsys, command):
    out = tmp_path / "out"
    code, _, err = run(capsys, command, "--img1", str(shapes / "moved.pgm"),
                       "--img2", str(shapes / "rect.pgm"), "--workers", "2",
                       "--out-dir", str(out))
    assert code == 2
    assert "unrecognized arguments: --workers 2" in err
    assert not out.exists()


def test_bench_reports_agreement(tmp_path, capsys):
    img = tmp_path / "sq.pgm"
    img.write_bytes(save_pgm(synth_shape("square", 16, 16, side=6)))
    code, stdout, _ = run(capsys, "bench", "--img1", str(img), "--img2", str(img),
                          "--out-dir", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["cells"] == 256
    assert doc["naive_seconds"] > 0 and doc["fast_seconds"] > 0
    assert doc["max_abs_difference"] <= 1e-9 * max(doc["max_abs_force"], 1.0)
    assert "speedup" in stdout


def test_reruns_are_byte_identical(shapes, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(capsys, "match", "--img1", str(shapes / "moved.pgm"),
                   "--img2", str(shapes / "rect.pgm"), "--out-dir", str(d))[0] == 0
        assert run(capsys, "classify", "--img1", str(shapes / "moved.pgm"),
                   "--img2", str(shapes / "rect.pgm"), "--out-dir", str(d))[0] == 0
    for name in ("match.json", "classification.json", "classification.ppm"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name):
    """The `module:function` target of `name` in pyproject's [project.scripts]."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] declares no {name!r}"
    return scripts[name]


def run_console_script(target, argv, cwd):
    """Run `target` in a fresh interpreter the way pip's console-script wrapper does."""
    module, _, attr = target.partition(":")
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'emmatch'\n"
               f"sys.exit({attr}())\n")
    # Lead the child's path with the directory this process imported emmatch
    # from, so it runs the same code as the in-process tests.
    package_root = str(Path(emmatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", wrapper, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


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
