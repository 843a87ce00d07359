import ast
import errno
import gc
import importlib.metadata
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import emmatch
from conftest import package_env, traced_peak
from emmatch import (EdgeParams, cli, extract_current, load_pgm, save_pgm, shift_image,
                     synth_shape)
from emmatch.cli import build_parser, main


@pytest.fixture(scope="module")
def shapes(tmp_path_factory):
    d = tmp_path_factory.mktemp("shapes")
    rect = synth_shape("rectangle", 32, 32)
    (d / "rect.pgm").write_bytes(save_pgm(rect))
    (d / "moved.pgm").write_bytes(save_pgm(shift_image(rect, 5, -4)))
    return d


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class DiskFull:
    """A binary file whose write number fail_at finds the disk full."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


# (map's file that the disk fills at, counted from 1, the write that fails, _emit's slice)
@pytest.mark.parametrize("file, write, write_slice", [
    pytest.param(2, 1, cli._WRITE_SLICE, id="second-file"),
    pytest.param(1, 2, 64, id="second-text-slice"),  # the TSV, once 64 characters are on disk
])
def test_a_failed_write_leaves_nothing(shapes, tmp_path, capsys, monkeypatch, file, write,
                                       write_slice):
    # No new out-dir, no temporary or truncated file, and an old TSV keeps its bytes.
    old = tmp_path / "old"
    old.mkdir()
    (old / "force_map.tsv").write_bytes(b"earlier bytes")
    monkeypatch.setattr(cli, "_WRITE_SLICE", write_slice)
    path_open, written = Path.open, []

    def disk_full(path, mode="r", *args, **kwargs):
        fh = path_open(path, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        written.append(path)
        return DiskFull(fh, write) if len(written) == file else fh

    monkeypatch.setattr(Path, "open", disk_full)
    for out in (tmp_path / "new", old):
        written.clear()
        code, stdout, err = run(capsys, "map", "--img1", str(shapes / "moved.pgm"),
                                "--img2", str(shapes / "rect.pgm"), "--out-dir", str(out))
        assert (code, stdout) == (1, "") and "No space left on device" in err
    assert sorted(tmp_path.rglob("*")) == [old, old / "force_map.tsv"]
    assert (old / "force_map.tsv").read_bytes() == b"earlier bytes"


def test_emit_peak_memory(tmp_path):
    # Text goes out a 1 MiB slice at a time, each encoded as it is written, so _emit
    # holds a slice and its bytes (2 MiB here), never the whole file's bytes.
    text = "0\t1.5\n" * (4 * 2 ** 20 // 6)
    assert traced_peak(lambda: cli._emit(tmp_path, {"a.tsv": text})) <= 3 * 2 ** 20
    assert (tmp_path / "a.tsv").read_bytes() == text.encode("utf-8")


def test_current_glyphs_peak_memory():
    # The grid holds a byte per pixel and row end until one translation makes the text,
    # about 4 bytes per pixel in all.
    current = extract_current(synth_shape("ellipse", 256, 256), EdgeParams())
    assert traced_peak(lambda: cli.render_current_glyphs(current)) <= 8 * 256 * 256


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
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=package_env(),
                          capture_output=True, text=True)


# Prints, once the interpreter starts to exit, how many objects the collector has frozen.
FREEZE_PROBE = ("import atexit, gc\n"
                "atexit.register(lambda: print('frozen objects:', gc.get_freeze_count()))\n")


def frozen_at_exit(stdout):
    """stdout without the freeze probe's last line, and the count that line reports."""
    head, _, last = stdout.rpartition("frozen objects: ")
    return head, int(last)


def run_console_script(target, argv, cwd):
    """Run `target` in a fresh interpreter the way pip's console-script wrapper does."""
    module, _, attr = target.partition(":")
    wrapper = (f"{FREEZE_PROBE}"
               f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'emmatch'\n"
               f"sys.exit({attr}())\n")
    return run_python(wrapper, argv, cwd)


def test_console_entry_point(tmp_path):
    # The script exits with main's code, and its finished command froze the collector.
    target = declared_console_script("emmatch")
    out = tmp_path / "c.pgm"
    proc = run_console_script(target, ["synth", "--kind", "circle", "--radius", "10",
                                       "--out", str(out)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert load_pgm(out.read_bytes()) == synth_shape("circle", 32, 32, radius=10.0)
    assert frozen_at_exit(proc.stdout)[1] > 0
    bad = run_console_script(target, ["synth", "--kind", "blob", "--out", str(out)],
                             cwd=tmp_path)
    assert bad.returncode == 2, bad.stderr
    assert frozen_at_exit(bad.stdout)[1] > 0


@pytest.mark.parametrize("argv, code", [
    (["match", "--img1", "moved.pgm", "--img2", "rect.pgm", "--out-dir", "out"], 0),
    (["map", "--img1", "blank.pgm", "--img2", "rect.pgm", "--out-dir", "out"], 1),
    (["map", "--img1", "moved.pgm", "--out-dir", "out"], 2),
], ids=["success", "processing-failure", "bad-argument"])
def test_module_run_as_main(shapes, tmp_path, capsys, monkeypatch, argv, code):
    # `python -m emmatch.cli` exits as main does, with main's output, and freezes the
    # collector once the command returns; main itself never freezes.
    inputs = {name: (shapes / name).read_bytes() for name in ("rect.pgm", "moved.pgm")}
    inputs["blank.pgm"] = b"P5\n32 32\n255\n" + bytes(32 * 32)
    trees = {side: tmp_path / side for side in ("module", "main")}
    for tree in trees.values():
        tree.mkdir()
        for name, data in inputs.items():
            (tree / name).write_bytes(data)
    proc = run_python(FREEZE_PROBE + "import runpy\n"
                      "runpy.run_module('emmatch.cli', run_name='__main__')\n",
                      argv, cwd=trees["module"])
    monkeypatch.chdir(trees["main"])
    frozen = gc.get_freeze_count()
    expected = run(capsys, *argv)
    assert gc.get_freeze_count() == frozen
    stdout, frozen_by_module = frozen_at_exit(proc.stdout)
    assert proc.returncode == code
    assert (proc.returncode, stdout, proc.stderr) == expected
    assert frozen_by_module > 0

    def written(tree):
        return {path.relative_to(tree): path.read_bytes()
                for path in tree.rglob("*") if path.is_file()}

    assert written(trees["module"]) == written(trees["main"])


@pytest.mark.skipif(shutil.which("emmatch") is None,
                    reason="no installed emmatch console script on PATH")
def test_installed_console_script(tmp_path):
    out = tmp_path / "c.pgm"
    proc = subprocess.run(["emmatch", "synth", "--kind", "circle", "--radius", "10",
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert load_pgm(out.read_bytes()) == synth_shape("circle", 32, 32, radius=10.0)
    if sys.version_info >= (3, 11):  # tomllib reads [project.scripts]
        installed = importlib.metadata.entry_points(group="console_scripts").select(
            name="emmatch")
        assert [ep.value for ep in installed] == [declared_console_script("emmatch")]


def test_help_exits_cleanly(capsys):
    code, stdout, _ = run(capsys, "--help")
    assert code == 0
    assert "synth" in stdout and "match" in stdout


# Each subcommand's arguments in order, -h aside: option string or positional dest,
# required, default, type and help.  Actions rather than help text, whose layout
# varies between Python versions.
IMAGE = [("image", True, None, None, "input PGM")]
PAIR = [("--img1", True, None, None, "moving image (PGM)"),
        ("--img2", True, None, None, "reference image (PGM)")]
EDGE = [("--threshold", False, 0.2, float,
         "edge threshold as a fraction of the max gradient magnitude (default 0.20)"),
        ("--strict-nms", False, False, None,
         "thin with strict > comparisons (suppresses plateau edges)"),
        ("--smooth", False, False, None, "apply 3x3 binomial smoothing before the gradient")]
FORCE = [("--strength", False, 1.0, float, "overall force scale constant (default 1)"),
         ("--height", False, 0.0, float,
          "vertical separation between the current planes in pixels (default 0)"),
         ("--min-r", False, 1e-9, float,
          "pairs closer than this contribute no force (default 1e-9)")]
OUT_DIR = [("--out-dir", False, ".", None, "directory for output files (default .)")]
ARGUMENTS = {
    "synth": [("--kind", True, None, None, None),
              ("--size", False, 32, int, "image side length (default 32)"),
              ("--width", False, None, int, "image width (overrides --size)"),
              ("--height", False, None, int, "image height (overrides --size)"),
              ("--side", False, None, int, "square side length"),
              ("--rect", False, None, None, "rectangle size as WxH"),
              ("--semi-axes", False, None, None, "ellipse semi-axes as AxB"),
              ("--radius", False, None, float, "circle radius"),
              ("--length", False, None, int, "line length"),
              ("--thickness", False, 1, int, "line thickness (default 1)"),
              ("--vertical", False, False, None, "draw the line vertically"),
              ("--center", False, None, None, "shape center as X,Y (default image center)"),
              ("--shift", False, None, None, "translate the result by DX,DY before writing"),
              ("--out", True, None, None, "output PGM path")],
    "edges": IMAGE + EDGE + OUT_DIR,
    "current": IMAGE + EDGE + OUT_DIR,
    "force": PAIR + [("--shift", False, None, None,
                      "translation of img1's current as DX,DY (default 0,0)")] + EDGE + FORCE,
    "map": PAIR + EDGE + FORCE + OUT_DIR,
    "classify": PAIR + EDGE + FORCE + OUT_DIR,
    "match": PAIR + EDGE + FORCE + [("--start", False, None, None,
                                     "initial offset on the shift grid as DX,DY (default 0,0)")]
    + OUT_DIR,
}


def test_subcommand_arguments():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert list(subparsers.choices) == list(ARGUMENTS)
    for command, parser in subparsers.choices.items():
        assert [(*(a.option_strings or [a.dest]), a.required, a.default, a.type, a.help)
                for a in parser._actions if a.dest != "help"] == ARGUMENTS[command], command


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


def test_readme_library_usage_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library usage\n+```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    shown, counts = capsys.readouterr().out.splitlines()
    # the first print's comment is its output; the second prints the label counts
    assert shown == re.search(r"^print\(.*?\)\s+# (.*)$", block, re.M).group(1)
    counts = ast.literal_eval(counts)
    assert set(counts) == {"convergence", "divergence", "locally_trapped"}
    assert sum(counts.values()) == 32 * 32
