"""Time every stage of the pipeline in process at fixed sizes, and write one JSON record.

Usage, from the repository root, with emmatch importable (installed, or
``PYTHONPATH=src``):

    python bench/sweep.py --out BENCH_<n>.json

Each case is a kind (ellipse, rectangle) drawn at n x n px, its copy moved by
(n // 8, -(n // 10)) as the moving image, and a height h (0, 8). Per case the
sweep times, as the median and interquartile range of --repeats in-process
runs, in milliseconds:

- ``load_pgm`` of the moving image's P5 bytes, and ``extract_current`` of it;
- the field lattice's set-up, its fill step (``_fill``) and its window step
  (``_windows``), which make up the map, and all of ``force_map_fast``;
- ``classify_map`` and ``force_map_tsv`` of that map;
- ``match_images``, and the walk's floor: one ``_field_sums`` call over the
  lattice points that the match's walk filled, so that the walk's pair terms
  and its bookkeeping show apart.

It also counts the elements of both currents, the lattice points and the fill's
pair terms, the walk's steps, filled points and pair terms, the share of cells
that classify as convergent, and whether the match recovered the planted shift.

Then the ``match``, ``map`` and ``classify`` commands run at 128 px (ellipse,
``--height 8``) as fresh children, --repeats times each. Each child starts from
a small launcher process, because a child reports at least its parent's peak
RSS; the launcher times the child and reads its peak RSS from ``wait4``. Two
baselines run the same way: a bare interpreter (``-c pass``) and
``-m emmatch.cli --help``, which imports the package and builds the parser.
Start-up is the first; import and parser, the second less the first; a
command's own work, its wall less the second. As ``perfbench/run.py`` does, the
sweep byte-compiles the package before the first child, so that no child
compiles a module whose bytecode is missing or stale and cannot write it
(``PYTHONDONTWRITEBYTECODE``, or a read-only install).

emmatch is imported from the environment: the sweep never puts ``src/`` on the
path, and its children import the package this process imported. The
environment record comes from ``perfbench/run.py``'s ``environment()``, which
reads the checkout's sources; importing that file pins the BLAS threads to 1
before numpy loads. Beside it, ``src_modified`` says whether ``git status``
finds ``src/`` changed from ``git_revision``: true, false, or null outside a git
work tree.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_run)

import numpy as np  # noqa: E402  (after the BLAS threads are pinned)

import emmatch  # noqa: E402
from emmatch import (ForceParams, MatchStatus, classify_map, extract_current,  # noqa: E402
                     force_map_fast, force_map_tsv, load_pgm, match_images, save_pgm,
                     shift_image, summarize_map, synth_shape)
from emmatch import emforce, matchmap  # noqa: E402

KINDS = ("ellipse", "rectangle")
HEIGHTS = (0.0, 8.0)
SIZES = (32, 64, 128, 256)
STAGES = ("load_pgm", "extract_current", "lattice_setup", "fill", "windows", "force_map_fast",
          "classify_map", "force_map_tsv", "match_images", "walk_field_sums")
COMMANDS = ("match", "map", "classify")
CLI_CASE = ("ellipse", 128, 8.0)
# Children that do none of a command's work: interpreter start-up and exit, and that
# plus importing emmatch.cli and building its parser.
BASELINES = {"interpreter": ["-c", "pass"], "help": ["-m", "emmatch.cli", "--help"]}

# Runs the rest of its argv as its child, and prints the child's wall seconds, exit
# code and peak RSS in KiB.  A child's peak RSS starts at its parent's, so this
# small parent lets it read as the child's own.
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spread(values: list[float], scale: float = 1.0) -> dict:
    """Median and interquartile range of values, times scale, to 4 decimals."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values) * scale, 4),
            "iqr": round((q3 - q1) * scale, 4)}


def timed(call) -> tuple[float, object]:
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def walked_lattice(c1, c2, ref, params):
    """The lattice of match_images' walk from the origin, after that walk, and its trace."""
    lattice = emforce._FieldLattice(c1, c2, params)
    w, h = ref.width, ref.height
    origin = (w // 2, h // 2)
    trace = matchmap._walk(lattice.cell, origin, w, h, origin, False)
    return lattice, trace


def run_case(kind: str, n: int, height: float, repeats: int) -> dict:
    ref = synth_shape(kind, n, n)
    shift = (n // 8, -(n // 10))
    moved = shift_image(ref, *shift)
    data = save_pgm(moved)
    params = ForceParams(height_px=height)
    c1, c2 = extract_current(moved), extract_current(ref)
    times = {stage: [] for stage in STAGES}
    for _ in range(repeats):
        times["load_pgm"].append(timed(lambda: load_pgm(data))[0])
        times["extract_current"].append(timed(lambda: extract_current(moved))[0])
        seconds, lattice = timed(lambda: emforce._FieldLattice(c1, c2, params))
        times["lattice_setup"].append(seconds)
        times["fill"].append(timed(lattice._fill)[0])
        times["windows"].append(timed(lattice._windows)[0])
        seconds, fmap = timed(lambda: force_map_fast(c1, c2, params))
        times["force_map_fast"].append(seconds)
        seconds, cls = timed(lambda: classify_map(fmap))
        times["classify_map"].append(seconds)
        times["force_map_tsv"].append(timed(lambda: force_map_tsv(fmap))[0])
        seconds, result = timed(lambda: match_images(moved, ref, force_params=params))
        times["match_images"].append(seconds)
    walked, trace = walked_lattice(c1, c2, ref, params)
    if trace != result.path:
        raise RuntimeError(f"{kind} {n} px h {height}: the replayed walk left match_images' path")
    rows, cols = np.nonzero(walked._filled)
    px, py = (cols + walked._x0).astype(np.float64), (rows + walked._y0).astype(np.float64)
    for _ in range(repeats):
        times["walk_field_sums"].append(timed(
            lambda: emforce._field_sums(c2, px, py, params, walked._operands))[0])
    counts = {
        "elements": len(c1), "reference_elements": len(c2),
        "lattice_points": lattice.values.size, "fill_pair_terms": lattice.values.size * len(c2),
        "steps": result.steps, "filled_points": len(px), "walk_pair_terms": len(px) * len(c2),
        "convergent_cell_ratio": summarize_map(cls)["convergence"] / (n * n),
        "recovered": result.status is MatchStatus.MATCHED and result.detected_shift == shift,
    }
    return {"kind": kind, "n": n, "height_px": height, "shift": list(shift),
            "stages_ms": {stage: spread(times[stage], 1e3) for stage in STAGES},
            "counts": counts}


def src_modified() -> bool | None:
    """Whether git status lists a change under src/, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def child_env() -> dict:
    """This environment, with the directory this process imported emmatch from leading the path."""
    package_root = str(Path(emmatch.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([package_root] + ([path] if path else [])))


def launched(args: list, env: dict, repeats: int) -> dict:
    """Wall time and peak RSS of `repeats` fresh children ``python ARGS``, each from LAUNCHER."""
    walls, peaks = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, *args], env=env,
                              capture_output=True, text=True, check=True)
        wall, code, peak_kib = proc.stdout.split()
        if code != "0":
            raise RuntimeError(f"{' '.join(args)} exited {code}: {proc.stderr.strip()}")
        walls.append(float(wall))
        peaks.append(int(peak_kib))
    return {"wall_ms": spread(walls, 1e3), "peak_rss_mib": spread(peaks, 1 / 1024)}


def run_commands(repeats: int) -> dict:
    kind, n, height = CLI_CASE
    ref = synth_shape(kind, n, n)
    env = child_env()
    compileall.compile_dir(str(Path(emmatch.__file__).parent), quiet=1)
    record = {"kind": kind, "n": n, "height_px": height,
              "baselines": {name: launched(args, env, repeats) for name, args in BASELINES.items()},
              "commands": {}}
    with tempfile.TemporaryDirectory(prefix="sweep-") as work:
        img1, img2 = Path(work, "img1.pgm"), Path(work, "img2.pgm")
        img1.write_bytes(save_pgm(shift_image(ref, n // 8, -(n // 10))))
        img2.write_bytes(save_pgm(ref))
        for command in COMMANDS:
            record["commands"][command] = launched(
                ["-m", "emmatch.cli", command, "--img1", str(img1), "--img2", str(img2),
                 "--height", str(height), "--out-dir", work], env, repeats)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="where to write the JSON record")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                    help="image sides in px (default %(default)s)")
    ap.add_argument("--repeats", type=int, default=5, help="runs per stage (default 5)")
    args = ap.parse_args(argv)
    cases = [run_case(kind, n, height, args.repeats)
             for n in args.sizes for kind in KINDS for height in HEIGHTS]
    record = {"environment": perfbench_run.environment(), "src_modified": src_modified(),
              "repeats": args.repeats, "cases": cases, "cli": run_commands(args.repeats)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for case in cases:
        stages = case["stages_ms"]
        print(f"{case['kind']:9} {case['n']:4} px h {case['height_px']:g}: "
              + ", ".join(f"{s} {stages[s]['median']:.2f}" for s in STAGES) + " ms")
    cli = record["cli"]
    for name, times in {**cli["baselines"], **cli["commands"]}.items():
        print(f"{name}: {times['wall_ms']['median']:.0f} ms, "
              f"{times['peak_rss_mib']['median']:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
