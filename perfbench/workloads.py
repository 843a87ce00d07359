"""The benchmark's workloads: seeded cases, one timed op, output checks.

Every workload is a closed loop with one client: op i starts only after
op i-1 has returned.  Each workload builds a fixed list of cases from
``random.Random(seed)`` and emmatch's own ``synth_shape``/``shift_image``;
the program only ever sees the generated images.  Every combination of
the discrete parameters appears in the list equally often, and the seed
picks the signs of fixed planted-shift lengths (and, where it does not
move the peak RSS, the order of the cases), so runs on different seeds do
the same amount of work on different inputs.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from emmatch import cli, edgecurrent, emforce, matchmap, raster
from emmatch.emforce import ForceParams, Vec2
from emmatch.matchmap import Label, MatchStatus, PathStatus

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAUNCHER = HERE / "launcher.py"

KINDS = ("rectangle", "square", "ellipse", "circle")
HEIGHTS = (0.0, 8.0)
CHILD_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What the checks of one op found."""

    problem: str = ""       # empty when every check passed
    digest: bytes = b""     # canonical bytes of the op's outputs
    planted: int = 0        # planted shifts examined
    recovered: int = 0      # planted shifts the output recovers
    cells: int = 0          # classified shift cells
    convergent: int = 0     # of those, Convergence cells
    output_bytes: int = 0   # bytes the op wrote to files


def shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def planted_shifts(rng: random.Random, size: int, n: int) -> list:
    """n planted shifts spanning the box +-size/8 per axis, with seeded signs.

    Shift k has lengths ((k+1)/n, (n-k)/n) * size/8 on the two axes.  A walk
    takes about as many steps as the shift is long, so uniformly drawn
    shifts moved the median op time by 20% between seeds; the shapes are
    mirror-symmetric, so the signs change the input but not the work.
    """
    r = size // 8
    return [(rng.choice((-1, 1)) * round(r * (k + 1) / n),
             rng.choice((-1, 1)) * round(r * (n - k) / n)) for k in range(n)]


def run_child(argv: list, log_dir: Path) -> tuple[int, int]:
    """Run a child to completion; return its exit code and peak RSS in KiB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def walk_label(trace: matchmap.PathTrace, origin: tuple[int, int]) -> Label:
    """The label classify_map gives a cell whose walk is `trace`."""
    if trace.status is PathStatus.ARRIVED_AT_ORIGIN:
        return Label.CONVERGENCE
    if trace.status is PathStatus.BALANCE_OSCILLATION:
        return Label.CONVERGENCE if trace.terminal == origin else Label.LOCALLY_TRAPPED
    if trace.status is PathStatus.OUT_OF_BOUNDS:
        return Label.DIVERGENCE
    return Label.LOCALLY_TRAPPED


def classification_problem(fmap: emforce.ForceMap, cls: matchmap.ClassificationMap) -> str:
    """The first cell whose label contradicts its walk, or ''.

    A walk from cell p steps to the successor q that p's force picks and
    then goes on exactly as a walk started at q, so p's label is q's.  The
    exceptions end within two steps: p balanced, a step off the grid or
    onto the origin, or q bouncing straight back to p (which from the
    origin is an arrival).  This checks every cell for one discretization
    each, where re-walking every cell would repeat the op.
    """
    w, h, origin = fmap.width, fmap.height, fmap.origin
    succ = {}
    for y in range(h):
        for x in range(w):
            d = matchmap.discretize8(Vec2(float(fmap.fx[y, x]), float(fmap.fy[y, x])))
            succ[x, y] = None if d is None else (x + d.step[0], y + d.step[1])
    for p, q in succ.items():
        if q is None:
            want = Label.CONVERGENCE if p == origin else Label.LOCALLY_TRAPPED
        elif q not in succ:
            want = Label.DIVERGENCE
        elif q == origin:
            want = Label.CONVERGENCE
        elif succ[q] == p:
            want = Label.CONVERGENCE if p == origin else Label.LOCALLY_TRAPPED
        else:
            want = cls.label(*q)
        got = cls.label(*p)
        if got is not want:
            return f"cell {p} is {got.value}, its walk gives {want.value}"
    return ""


def match_problem(payload: dict, width: int, height: int) -> str:
    """What is wrong with a match.json payload on a width x height grid, or ''."""
    path = [tuple(p) for p in payload["path"]]
    origin = (width // 2, height // 2)
    if not path or path[0] != origin:
        return "path does not start at the zero-shift cell"
    if payload["steps"] != len(path) - 1:
        return f"steps {payload['steps']} != len(path) - 1 = {len(path) - 1}"
    for a, b in zip(path, path[1:]):
        if max(abs(b[0] - a[0]), abs(b[1] - a[1])) != 1:
            return f"{a} -> {b} is not an 8-neighbour step"
    if not all(0 <= x < width and 0 <= y < height for x, y in path):
        return "path leaves the shift grid"
    dx, dy = payload["detected_shift"]
    if (origin[0] - dx, origin[1] - dy) not in path:
        return "detected shift is not a visited cell"
    if payload["status"] not in {s.value for s in MatchStatus}:
        return f"unknown status {payload['status']!r}"
    return ""


def match_recovered(payload: dict, planted: tuple[int, int]) -> bool:
    return (payload["status"] == MatchStatus.MATCHED.value
            and tuple(payload["detected_shift"]) == planted)


class Workload:
    """Defaults for workloads that run in the benchmark's own process."""

    name = ""
    record: dict = {}
    PASS_SECONDS: float  # nominal wall time of one pass over the cases

    def warm_up(self) -> None:
        pass

    def child_spans(self, output) -> list:
        """Spans recorded in a child process by a traced op."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class MatchWalk(Workload):
    name = "match_walk"
    record = {
        "why": "on-the-fly matching is the paper's headline use; ~99% of an op is "
               "emforce.total_force, while the field lattice and classification never run",
        "loop": "closed", "clients": 1,
        "op": "matchmap.match_images(moved, ref, force_params=ForceParams(height_px=h))",
        "mix": "every kind x size x h with 2 planted shifts spanning +-size/8 per axis "
               "(seeded signs), in seeded order; moved = shift_image(ref, shift)",
        "sizes": {"size_px": [64, 96, 128], "kinds": list(KINDS), "height_px": list(HEIGHTS)},
    }
    # With only 64 and 128 px the op times form two clusters and the median
    # fell in the gap between them, where it moved by 27% between seeds; the
    # 96 px cases hold the median.
    SIZES = (64, 96, 128)
    SHIFTS = 2
    PASS_SECONDS = 10.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        cases = []
        for kind in KINDS:
            for size in self.SIZES:
                ref = raster.synth_shape(kind, size, size)
                for h in HEIGHTS:
                    for shift in planted_shifts(rng, size, self.SHIFTS):
                        cases.append((raster.shift_image(ref, *shift), ref,
                                      ForceParams(height_px=h), shift))
        self.cases = shuffled(rng, cases)

    def warm_up(self) -> None:
        ref = raster.synth_shape("rectangle", 32, 32)
        matchmap.match_images(raster.shift_image(ref, 2, -1), ref)

    def run(self, i: int, traced: bool = False):
        moved, ref, fp, _ = self.cases[i]
        return matchmap.match_images(moved, ref, force_params=fp)

    def check(self, i: int, result: matchmap.MatchResult, full: bool = True) -> Outcome:
        moved, ref, fp, shift = self.cases[i]
        payload = matchmap.match_result_json(result)
        digest = json.dumps(payload, sort_keys=True).encode()
        if not full:
            return Outcome(digest=digest)
        problem = match_problem(payload, ref.width, ref.height)
        path = payload["path"]
        if not problem and len(path) > 1:
            c1 = edgecurrent.extract_current(moved)
            c2 = edgecurrent.extract_current(ref)
            f = emforce.total_force(c1, c2, Vec2(0.0, 0.0), fp)
            d = matchmap.discretize8(Vec2(f.x, f.y))
            first = (path[1][0] - path[0][0], path[1][1] - path[0][1])
            if d is None or d.step != first:
                problem = f"first step {first} does not follow the force at the start cell"
        return Outcome(problem, digest, planted=1,
                       recovered=int(match_recovered(payload, shift)))


class ClassifyGrid(Workload):
    name = "classify_grid"
    record = {
        "why": "the only workload where emforce.force_map_fast and matchmap.classify_map "
               "do the work (basin-map usage); total_force never runs in an op",
        "loop": "closed", "clients": 1,
        "op": "c = extract_current(img); classify_map(force_map_fast(c, c, "
              "ForceParams(height_px=h)))",
        "mix": "every kind x h in a fixed order, each shape moved by (+-size/8, +-size/8) "
               "with seeded signs; 16 planted shifts spanning +-size/8 (seeded signs) and "
               "3 seeded probe cells checked per op",
        "sizes": {"size_px": [128], "kinds": list(KINDS), "height_px": list(HEIGHTS)},
    }
    SIZE = 128
    PLANTED = 16
    PROBES = 3
    PASS_SECONDS = 8.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        # A fixed order: the peak RSS depends on the order of the ops (172 or
        # 192 MiB), so the seed moves the shapes instead, which changes the
        # images but not the work.
        self.cases = []
        for kind, h in [(k, h) for k in KINDS for h in HEIGHTS]:
            (shift,) = planted_shifts(rng, self.SIZE, 1)
            img = raster.shift_image(raster.synth_shape(kind, self.SIZE, self.SIZE), *shift)
            planted = planted_shifts(rng, self.SIZE, self.PLANTED)
            probes = [(rng.randrange(self.SIZE), rng.randrange(self.SIZE))
                      for _ in range(self.PROBES)]
            self.cases.append((img, ForceParams(height_px=h), planted, probes))

    def warm_up(self) -> None:
        c = edgecurrent.extract_current(raster.synth_shape("rectangle", 32, 32))
        matchmap.classify_map(emforce.force_map_fast(c, c, ForceParams()))

    def run(self, i: int, traced: bool = False):
        img, fp, _, _ = self.cases[i]
        c = edgecurrent.extract_current(img)
        fmap = emforce.force_map_fast(c, c, fp)
        return c, fmap, matchmap.classify_map(fmap)

    def check(self, i: int, output, full: bool = True) -> Outcome:
        _, fp, planted, probes = self.cases[i]
        c, fmap, cls = output
        digest = cls.codes.tobytes() + fmap.fx.tobytes() + fmap.fy.tobytes()
        if not full:
            return Outcome(digest=digest)
        counts = matchmap.summarize_map(cls)
        problem = ""
        if sum(counts.values()) != cls.width * cls.height:
            problem = f"label counts {counts} do not add up to {cls.width}x{cls.height}"
        scale = max(float(abs(fmap.fx).max()), float(abs(fmap.fy).max()))
        for x, y in probes:
            if problem:
                break
            f = emforce.total_force(c, c, Vec2(float(x - fmap.ox), float(y - fmap.oy)), fp)
            err = max(abs(f.x - float(fmap.fx[y, x])), abs(f.y - float(fmap.fy[y, x])))
            if err > 1e-9 * scale:
                problem = f"force_map_fast differs from total_force by {err:.3g} at {(x, y)}"
            elif walk_label(matchmap.follow_path(fmap, (x, y)), fmap.origin) is not cls.label(x, y):
                problem = f"follow_path disagrees with classify_map at {(x, y)}"
        problem = problem or classification_problem(fmap, cls)
        recovered = sum(cls.label(fmap.ox + dx, fmap.oy + dy) is Label.CONVERGENCE
                        for dx, dy in planted)
        return Outcome(problem, digest, planted=len(planted), recovered=recovered,
                       cells=cls.width * cls.height, convergent=counts["convergence"])


@dataclass(frozen=True)
class CliCase:
    command: str
    img1: raster.GrayImage
    img2: raster.GrayImage
    h: float
    shift: tuple[int, int]
    path1: Path
    path2: Path


@dataclass(frozen=True)
class CliRun:
    opdir: Path
    code: int
    rss_kib: int


def pgm_bytes(img: raster.GrayImage, fmt: str) -> bytes:
    """Binary (P5) or ASCII (P2) PGM encoding."""
    if fmt == "P5":
        return raster.save_pgm(img)
    rows = "\n".join(" ".join(map(str, row)) for row in img.pixels.tolist())
    return f"P2\n{img.width} {img.height}\n255\n{rows}\n".encode("ascii")


# Files each command must write into its --out-dir.
CLI_OUTPUTS = {
    "match": ("match.json",),
    "map": ("force_map.tsv", "force_map.txt"),
    "classify": ("classification.json", "classification.ppm"),
}


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    record = {
        "why": "interpreter start and import dominate small CLI commands; the only "
               "workload that parses PGM (P5 and P2) and writes TSV, PPM and JSON",
        "loop": "closed", "clients": 1,
        "op": "one `python -m emmatch.cli {match|map|classify} --img1 moved.pgm "
              "--img2 ref.pgm --height h --out-dir DIR` subprocess",
        "mix": "every command x size x kind x h in seeded order; P5 for a seeded half "
               "of the cases, P2 for the rest; a planted shift of (+-size/8, +-size/8); "
               "match and map take the pair (moved, ref), classify the self-pair "
               "(moved, moved) as in the README",
        "sizes": {"size_px": [32, 64], "kinds": list(KINDS), "height_px": list(HEIGHTS),
                  "formats": ["P5", "P2"]},
    }
    PASS_SECONDS = 30.0

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True)
        combos = shuffled(rng, [(cmd, s, k, h) for cmd in CLI_OUTPUTS for s in (32, 64)
                                for k in KINDS for h in HEIGHTS])
        formats = shuffled(rng, ["P5", "P2"] * (len(combos) // 2))
        self.cases = []
        for j, ((command, size, kind, h), fmt) in enumerate(zip(combos, formats)):
            (shift,) = planted_shifts(rng, size, 1)
            ref = raster.synth_shape(kind, size, size)
            moved = raster.shift_image(ref, *shift)
            path1, path2 = inputs / f"{j}-moved.pgm", inputs / f"{j}-ref.pgm"
            path1.write_bytes(pgm_bytes(moved, fmt))
            # Classifying a shifted pair leaves whole regions of cells walking
            # 4*W*H steps into the step limit (1364 of 4096 cells, 38 s, for a
            # 64 px ellipse shifted by (-3, 0)); the basin map is a self-pair.
            if command == "classify":
                ref, path2 = moved, path1
            else:
                path2.write_bytes(pgm_bytes(ref, fmt))
            self.cases.append(CliCase(command, moved, ref, h, shift, path1, path2))
        self._peak_kib = 0

    def _argv(self, case: CliCase, out_dir: Path) -> list:
        return [case.command, "--img1", str(case.path1), "--img2", str(case.path2),
                "--height", repr(case.h), "--out-dir", str(out_dir)]

    def warm_up(self) -> None:
        """One fixed small match in a child, the same for every seed."""
        opdir = self.workdir / "warm-up"
        opdir.mkdir()
        ref = raster.synth_shape("rectangle", 32, 32)
        (opdir / "moved.pgm").write_bytes(raster.save_pgm(raster.shift_image(ref, 2, -1)))
        (opdir / "ref.pgm").write_bytes(raster.save_pgm(ref))
        case = CliCase("match", ref, ref, 0.0, (2, -1), opdir / "moved.pgm", opdir / "ref.pgm")
        code, _ = run_child([sys.executable, "-m", "emmatch.cli",
                             *self._argv(case, opdir / "out")], opdir)
        if code != 0:
            raise RuntimeError(f"warm-up match exited {code}")
        shutil.rmtree(opdir)

    def run(self, i: int, traced: bool = False) -> CliRun:
        case = self.cases[i]
        opdir = self.workdir / f"op{i}{'-traced' if traced else ''}"
        opdir.mkdir()
        argv = self._argv(case, opdir / "out")
        if traced:
            argv = [sys.executable, str(LAUNCHER), str(opdir / "spans.json"), *argv]
        else:
            argv = [sys.executable, "-m", "emmatch.cli", *argv]
        code, rss = run_child(argv, opdir)
        return CliRun(opdir, code, rss)

    def interpreter_probe(self) -> None:
        """Start and stop a bare interpreter, for the traced run's baseline."""
        opdir = self.workdir / "interpreter"
        opdir.mkdir(exist_ok=True)
        run_child([sys.executable, "-c", "pass"], opdir)

    def child_spans(self, run: CliRun) -> list:
        path = run.opdir / "spans.json"
        return json.loads(path.read_text(encoding="utf-8")) if path.exists() else []

    def peak_rss_mb(self) -> float:
        return self._peak_kib / 1024.0

    def _expect(self, i: int) -> dict:
        """The library's in-process result for case i, as the CLI writes it."""
        case = self.cases[i]
        fp = ForceParams(height_px=case.h)
        if case.command == "match":
            result = matchmap.match_images(case.img1, case.img2, force_params=fp)
            return {"match.json": matchmap.match_result_json(result)}
        fmap = emforce.force_map_fast(edgecurrent.extract_current(case.img1),
                                      edgecurrent.extract_current(case.img2), fp)
        if case.command == "map":
            return {"force_map.tsv": emforce.force_map_tsv(fmap).encode(),
                    "force_map.txt": cli.render_direction_glyphs(fmap).encode()}
        cls = matchmap.classify_map(fmap)
        return {"classification.json": {"width": cls.width, "height": cls.height,
                                        "origin": [cls.ox, cls.oy],
                                        "counts": matchmap.summarize_map(cls)},
                "classification.ppm": cli.render_classification_ppm(cls)}

    def check(self, i: int, run: CliRun, full: bool = True) -> Outcome:
        case = self.cases[i]
        self._peak_kib = max(self._peak_kib, run.rss_kib)
        out = run.opdir / "out"
        try:
            if run.code != 0:
                err = (run.opdir / "stderr").read_text(errors="replace").strip()
                return Outcome(f"exit code {run.code}: {err[-300:]}")
            missing = [n for n in CLI_OUTPUTS[case.command] if not (out / n).is_file()]
            if missing:
                return Outcome(f"missing outputs {missing}")
            got = {n: (out / n).read_bytes() for n in CLI_OUTPUTS[case.command]}
            outcome = Outcome(digest=b"".join(got[n] for n in sorted(got)),
                              output_bytes=sum(map(len, got.values())))
            if not full:
                return outcome
            for name, want in self._expect(i).items():
                have = json.loads(got[name]) if name.endswith(".json") else got[name]
                if have != want:
                    outcome.problem = f"{name} differs from the in-process result"
                    return outcome
            if case.command == "match":
                payload = json.loads(got["match.json"])
                outcome.problem = match_problem(payload, case.img2.width, case.img2.height)
                outcome.planted = 1
                outcome.recovered = int(match_recovered(payload, case.shift))
            elif case.command == "classify":
                counts = json.loads(got["classification.json"])["counts"]
                outcome.cells = case.img2.width * case.img2.height
                outcome.convergent = counts["convergence"]
            return outcome
        finally:
            shutil.rmtree(run.opdir)


WORKLOADS = {w.name: w for w in (MatchWalk, ClassifyGrid, CliRoundtrip)}
