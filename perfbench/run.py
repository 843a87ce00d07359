#!/usr/bin/env python3
"""Benchmark emmatch end to end, or per layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload match_walk --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for inputs, ops and checks): match_walk,
classify_grid, cli_roundtrip.  BENCHMARK.json lists match_walk and
cli_roundtrip; classify_grid's times spread too far between runs on a
shared host to gate on, but it still gives the per-layer profile of the
field lattice and classification at 128 px.  Each is a closed loop with
one client in this single process (cli_roundtrip starts one child per
op).  A run makes a fixed number of passes over the workload's cases,
set by --seconds.  Every op's output is checked outside its timed
region; a failed check counts as a failed op.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
and a traced run of every op and prints the per-layer metrics: self time,
calls and computed counts of each wrapped function (tracer.py), plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
repeat each metric by name with its unit and record the environment.
"""

import os

# Pinned before numpy loads; children inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5  # fresh-process set-ups per run; setup_s is their median
LOOP_LIMIT_S = 100  # start no pass after this, so a run ends within 180 s

# glibc's _SC_LEVEL{1_D,2_,3_}CACHE_SIZE, which os.sysconf_names lacks.
_CACHE_SYSCONF = {"L1d": 188, "L2": 191, "L3": 194}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("match_walk", "classify_grid", "cli_roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up once and exit (times setup_s)")
    return p.parse_args(argv)


class Ledger:
    """Op times and check outcomes of one side (untraced or traced) of a run.

    Latency statistics are taken over every timed op of the run.  On a
    shared 2-vCPU KVM guest the speed of a fixed kernel swung by 1.6x from
    one 2 s window to the next and drifted by a third over minutes; over
    the same six runs the median of all op times spread 40% less between
    runs than the median of each case's fastest pass.
    """

    def __init__(self, cases: int):
        self.times: list[float] = []  # seconds, one per timed op
        self.digests: list = [None] * cases
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.planted = self.recovered = self.cells = self.convergent = 0
        self.output_bytes = 0
        self.completed = 0

    def fail(self, i: int, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"case {i}: {problem}")

    def add(self, i: int, seconds: float, outcome) -> None:
        self.times.append(seconds)
        self.output_bytes += outcome.output_bytes
        if outcome.problem:
            self.fail(i, outcome.problem)
            return
        if self.digests[i] is None:
            self.digests[i] = outcome.digest
            self.planted += outcome.planted
            self.recovered += outcome.recovered
            self.cells += outcome.cells
            self.convergent += outcome.convergent
        elif outcome.digest != self.digests[i]:
            self.fail(i, "output differs from the case's first run")
            return
        self.completed += 1

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.digests:
            h.update(hashlib.sha256(d or b"").digest())
        return h.hexdigest()

    def latency_ms(self) -> tuple[float, float, float, int, int]:
        """Median, tail value, tail percentile, sample count and samples above the tail.

        The tail is the highest nearest-rank percentile with at least ten
        samples above it (the maximum when there are ten or fewer).
        """
        ms = sorted(s * 1e3 for s in self.times)
        n = len(ms)
        k = n - 11 if n > 10 else n - 1
        return statistics.median(ms), ms[k], 100.0 * (k + 1) / n, n, n - 1 - k

    def ops_per_s(self) -> float:
        """Completed ops per second spent in the timed regions of all ops.

        Checks run between the timed regions and are left out.
        """
        return self.completed / sum(self.times)


def timed_op(w, i: int, ledger: Ledger, tracer=None):
    """Run, time and check case i; return its outcome, or None if it raised.

    A case's first run is checked in full; later runs only have to give
    the same output.
    """
    ledger.attempted += 1
    try:
        if tracer is None:
            start = perf_counter()
            output = w.run(i)
            seconds = perf_counter() - start
        else:
            tracer.op = i
            tracer.install()
            try:
                with tracer.span("op") as root:
                    output = w.run(i, traced=True)
            finally:
                tracer.uninstall()
            seconds = tracer.spans[root][2] - tracer.spans[root][1]
            tracer.adopt(w.child_spans(output), root)
        outcome = w.check(i, output, full=ledger.digests[i] is None)
    except Exception:  # a failing op is counted and the loop goes on
        ledger.fail(i, traceback.format_exc(limit=-3).strip())
        return None
    ledger.add(i, seconds, outcome)
    return outcome


def passes_for(w, seconds: float) -> int:
    """Passes a run makes: --seconds over the workload's nominal pass time.

    The count depends on --seconds alone, never on how fast the code runs,
    so every commit times the same ops.
    """
    return max(1, round(seconds / w.PASS_SECONDS))


def measure(w, seconds: float, tracer=None):
    """The closed loop: a fixed number of passes over every case.

    The run's time limit only caps the loop, so that it ends within 180 s
    on a slow host.  With a tracer, each untraced op is followed by its
    traced twin, which must give the same output.
    """
    n = len(w.cases)
    plain, traced, interpreter_s = Ledger(n), Ledger(n), []
    traced.digests = plain.digests
    start = perf_counter()
    passes = 0
    for _ in range(passes_for(w, seconds)):
        if passes and perf_counter() > start + LOOP_LIMIT_S:
            break
        for i in range(n):
            timed_op(w, i, plain)
            if tracer is not None:
                if hasattr(w, "interpreter_probe"):
                    t0 = perf_counter()
                    w.interpreter_probe()
                    interpreter_s.append(perf_counter() - t0)
                timed_op(w, i, traced, tracer)
        passes += 1
    return plain, traced, interpreter_s, passes


def setup_seconds(args, workdir: Path) -> float:
    """Median wall time of fresh processes that only set the workload up."""
    import workloads
    walls = []
    for k in range(SETUP_REPEATS):
        logs = workdir / f"setup{k}"
        logs.mkdir()
        start = perf_counter()
        code, _ = workloads.run_child(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"], logs)
        walls.append(perf_counter() - start)
        if code != 0:
            err = (logs / "stderr").read_text(errors="replace")
            raise RuntimeError(f"set-up process exited {code}: {err[-500:]}")
    return statistics.median(walls)


def git_revision():
    """HEAD's commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ,
                                                  GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    caches = {}
    for level, name in _CACHE_SYSCONF.items():
        try:
            caches[level] = os.sysconf(name)
        except (OSError, ValueError):
            caches[level] = None
    return {
        "git_revision": git_revision(),
        "source_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end_metrics(w, ledger: Ledger, setup_s: float) -> tuple[dict, list]:
    p50, tail, pct, n, above = ledger.latency_ms()
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (p50, "ms/op"),
        "latency_ms_tail": (tail, "ms/op"),
        "ops_per_s": (ledger.ops_per_s(), "ops/s"),
        "peak_rss_mb": (w.peak_rss_mb(), "MiB"),
        "shift_recovered_ratio": (ledger.recovered / ledger.planted, "1"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh-process set-ups",
        "latency_ms_tail": f"p{pct:.1f} of {n} timed ops, {above} above it",
        "shift_recovered_ratio": f"{ledger.recovered} of {ledger.planted} planted shifts",
    }
    lines = [f"metric {k} {v!r} {u}" + (f"  ({notes[k]})" if k in notes else "")
             for k, (v, u) in metrics.items()]
    lines.append(f"metric error_ratio {ledger.failed / ledger.attempted!r} 1  "
                 f"({ledger.failed} of {ledger.attempted} ops failed)")
    if ledger.cells:
        lines.append(f"metric convergent_cell_ratio {ledger.convergent / ledger.cells!r} 1  "
                     f"({ledger.convergent} of {ledger.cells} classified cells)")
    return metrics, lines


def layer_metrics(tracer, plain: Ledger, traced: Ledger,
                  interpreter_s: list) -> tuple[dict, list]:
    from tracer import self_times
    agg = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        a = agg[span[0]]
        a["calls"] += 1
        a["wall"] += span[2] - span[1]
        a["self"] += own
        for key, value in (span[5] or {}).items():
            a[key] += value
    n = traced.attempted - traced.failed

    def ms(name, key="wall"):
        return agg[name][key] * 1e3 / n

    def per_op(name, key):
        return agg[name][key] / n

    def ratio(num, den):
        return num / den if den else 0.0

    tf, fmf = agg["emforce.total_force"], agg["emforce.force_map_fast"]
    ec, mi, fp = agg["edgecurrent.extract_current"], agg["matchmap.match_images"], \
        agg["matchmap.follow_path"]
    traced_p50, untraced_p50 = traced.latency_ms()[0], plain.latency_ms()[0]
    metrics = {
        "raster.load_pgm.ms": (ms("raster.load_pgm"), "ms/op"),
        "raster.load_pgm.calls": (per_op("raster.load_pgm", "calls"), "count/op"),
        "raster.load_pgm.bytes": (per_op("raster.load_pgm", "bytes"), "bytes/op"),
        "raster.save.ms": (ms("raster.save"), "ms/op"),
        "gradient.sobel_field.ms": (ms("gradient.sobel_field"), "ms/op"),
        "gradient.sobel_field.calls": (per_op("gradient.sobel_field", "calls"), "count/op"),
        "edgecurrent.extract_current.self_ms": (ms("edgecurrent.extract_current", "self"),
                                                "ms/op"),
        "edgecurrent.extract_current.calls": (per_op("edgecurrent.extract_current", "calls"),
                                              "count/op"),
        "edgecurrent.elements": (ratio(ec["elements"], ec["calls"]), "count"),
        "edgecurrent.dropped": (ratio(ec["dropped"], ec["calls"]), "count"),
        "emforce.total_force.ms": (ms("emforce.total_force"), "ms/op"),
        "emforce.total_force.calls": (per_op("emforce.total_force", "calls"), "count/op"),
        "emforce.total_force.pair_evals": (per_op("emforce.total_force", "pair_evals"),
                                           "count/op"),
        "emforce.total_force.pair_evals_per_s": (ratio(tf["pair_evals"], tf["wall"]), "1/s"),
        "emforce.force_map_fast.ms": (ms("emforce.force_map_fast"), "ms/op"),
        "emforce.force_map_fast.calls": (per_op("emforce.force_map_fast", "calls"),
                                         "count/op"),
        "emforce.lattice_pair_evals": (per_op("emforce.force_map_fast", "lattice_pair_evals"),
                                       "count/op"),
        "emforce.window_madds": (per_op("emforce.force_map_fast", "window_madds"), "count/op"),
        "emforce.force_map_fast.pair_evals_per_s": (
            ratio(fmf["lattice_pair_evals"], fmf["wall"]), "1/s"),
        "emforce.force_map_tsv.ms": (ms("emforce.force_map_tsv"), "ms/op"),
        "matchmap.match_images.self_ms": (ms("matchmap.match_images", "self"), "ms/op"),
        "matchmap.match_steps": (ratio(mi["steps"], mi["calls"]), "count"),
        "matchmap.force_evals_per_cell": (ratio(tf["calls"], mi["cells"]), "1"),
        "matchmap.classify_map.self_ms": (ms("matchmap.classify_map", "self"), "ms/op"),
        "matchmap.follow_path.ms": (ms("matchmap.follow_path"), "ms/op"),
        "matchmap.follow_path.calls": (per_op("matchmap.follow_path", "calls"), "count/op"),
        "matchmap.walk_steps": (per_op("matchmap.follow_path", "steps"), "count/op"),
        "matchmap.walk_steps_per_cell": (ratio(fp["steps"], fp["calls"]), "count"),
        "cli.interpreter_ms": (statistics.median(interpreter_s) * 1e3 if interpreter_s
                               else 0.0, "ms"),
        "cli.import_ms": (ms("cli.import"), "ms/op"),
        "cli.main.self_ms": (ms("cli.main", "self"), "ms/op"),
        "cli.render.ms": (ms("cli.render"), "ms/op"),
        "cli.output_bytes": (traced.output_bytes / n, "bytes/op"),
        "trace.latency_ms_p50": (traced_p50, "ms/op"),
        "trace.untraced_latency_ms_p50": (untraced_p50, "ms/op"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms/op"),
        "trace.unattributed_ms": (ms("op", "self"), "ms/op"),
    }
    lines = [f"metric {k} {v!r} {u}" for k, (v, u) in metrics.items()]
    op_ms = ms("op")
    for name in sorted((k for k in agg if agg[k]["calls"]), key=lambda k: -agg[k]["self"]):
        lines.append(f"self {name} {ms(name, 'self'):.3f} ms/op "
                     f"({100.0 * ms(name, 'self') / op_ms:.1f}% of the mean traced op)")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emmatch" / "__init__.py").is_file():
        print(f"perfbench: no emmatch sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)
    import workloads
    from tracer import Tracer

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir).warm_up()
            return 0
        setup_s = 0.0 if args.trace else setup_seconds(args, workdir)
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        w.warm_up()
        tracer = Tracer() if args.trace else None
        plain, traced, interpreter_s, passes = measure(w, args.seconds, tracer)
        if plain.failed == plain.attempted or (tracer and traced.failed == traced.attempted):
            print("\n".join(["perfbench: no op succeeded"] + plain.problems + traced.problems),
                  file=sys.stderr)
            return 1

        print(f"workload {w.name} seed {args.seed} trace {args.trace}: closed loop, "
              f"1 client, {len(w.cases)} cases x {passes} of "
              f"{passes_for(w, args.seconds)} passes")
        print("record " + json.dumps({"environment": environment(), "workload": w.record},
                                     sort_keys=True))
        print(f"digest sha256:{plain.digest()} over the outputs of all {len(w.cases)} cases")
        if args.trace:
            metrics, lines = layer_metrics(tracer, plain, traced, interpreter_s)
        else:
            metrics, lines = end_to_end_metrics(w, plain, setup_s)
        print("\n".join(lines))
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        for problem in (plain.problems + traced.problems)[:5]:
            print(f"problem {problem}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
