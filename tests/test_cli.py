import ast
import errno
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
from emmatch import load_pgm, save_pgm, shift_image, synth_shape
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


def test_a_failed_write_leaves_nothing(shapes, tmp_path, capsys, monkeypatch):
    # A disk that fills at map's second file: no new out-dir, and an old TSV keeps its bytes.
    old = tmp_path / "old"
    old.mkdir()
    (old / "force_map.tsv").write_bytes(b"earlier bytes")
    write_bytes, writes = Path.write_bytes, []

    def disk_full_at_the_second_file(path, data):
        writes.append(path)
        if len(writes) % 2 == 0:  # each run's second file
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", disk_full_at_the_second_file)
    for out in (tmp_path / "new", old):
        code, stdout, err = run(capsys, "map", "--img1", str(shapes / "moved.pgm"),
                                "--img2", str(shapes / "rect.pgm"), "--out-dir", str(out))
        assert (code, stdout) == (1, "") and "No space left on device" in err
    assert sorted(tmp_path.rglob("*")) == [old, old / "force_map.tsv"]
    assert (old / "force_map.tsv").read_bytes() == b"earlier bytes"


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
