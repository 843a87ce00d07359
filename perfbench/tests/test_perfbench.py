"""Tests of the benchmark itself, on short runs.

Run from the repository root:  python -m pytest perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from emmatch import matchmap  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)  # classify_grid too, which BENCHMARK.json omits
SHORT = "0.5"  # seconds; every run still makes one cycle of ops


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SHORT, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


_runs = {}


def short_run(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = run_bench(workload, seed, trace)
    return _runs[key]


def test_benchmark_json_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(unit.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_name_and_unit(workload, trace):
    proc = short_run(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for m in spec:
        assert printed[m["name"]] == m["unit"]
    if trace:
        # What no wrapped call covers; negative if layer spans overran the op.
        assert result["metrics"]["trace.unattributed_ms"]["value"] >= 0.0
    else:
        assert printed["error_ratio"] == "1"
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_same_digest():
    digests = [next(line for line in proc.stdout.splitlines() if line.startswith("digest "))
               for proc in (short_run("match_walk", 3, 0), run_bench("match_walk", 3, 0),
                            run_bench("match_walk", 4, 0))]
    assert digests[0] == digests[1] != digests[2]


def test_flipped_classification_cell_is_an_error(tmp_path):
    w = workloads.ClassifyGrid(7, tmp_path)
    c, fmap, cls = w.run(0)
    assert w.check(0, (c, fmap, cls)).problem == ""
    for x, y in [(0, 0), (fmap.ox + 3, fmap.oy - 2), (101, 17)]:
        codes = cls.codes.copy()
        codes[y, x] = (codes[y, x] + 1) % 3
        bad = matchmap.ClassificationMap(cls.width, cls.height, cls.ox, cls.oy, codes)
        assert w.check(0, (c, fmap, bad)).problem


def test_broken_match_path_is_an_error(tmp_path):
    w = workloads.MatchWalk(7, tmp_path)
    result = w.run(0)
    assert result.steps >= 2 and w.check(0, result).problem == ""
    payload = matchmap.match_result_json(result)
    width = w.cases[0][1].width
    skipped = dict(payload, path=payload["path"][:1] + payload["path"][2:],
                   steps=payload["steps"] - 1)
    assert "8-neighbour" in workloads.match_problem(skipped, width, width)
    assert workloads.match_problem(dict(payload, steps=payload["steps"] + 1), width, width)


def test_corrupted_cli_output_is_an_error(tmp_path):
    w = workloads.CliRoundtrip(7, tmp_path)
    i = next(j for j, case in enumerate(w.cases) if case.command == "map")
    assert w.check(i, w.run(i)).problem == ""
    run = w.run(i)
    tsv = run.opdir / "out" / "force_map.tsv"
    tsv.write_bytes(tsv.read_bytes().replace(b"\t", b"\t-", 1))
    assert "force_map.tsv" in w.check(i, run).problem
    w.cases[i].path1.unlink()
    assert "exit code 2" in w.check(i, w.run(i)).problem


def test_traced_self_times_fit_in_the_op_time(tmp_path):
    # CLI ops: their layer spans are timed in a child process and adopted.
    w = workloads.CliRoundtrip(7, tmp_path)
    w.cases = [next(c for c in w.cases if c.command == cmd and c.img1.width == 64)
               for cmd in workloads.CLI_OUTPUTS]
    tracer = Tracer()
    plain, traced, _, passes = bench.measure(w, 0.0, tracer)
    assert passes == 1 and plain.failed == traced.failed == 0
    own = self_times(tracer.spans)
    for op in range(len(w.cases)):
        (root,) = [i for i, s in enumerate(tracer.spans) if s[4] == op and s[0] == "op"]
        start, end = tracer.spans[root][1:3]
        inside = [i for i, s in enumerate(tracer.spans) if s[4] == op and i != root]
        assert {"cli.import", "cli.main", "raster.load_pgm"} <= \
            {tracer.spans[i][0] for i in inside}
        assert all(start <= tracer.spans[i][1] <= tracer.spans[i][2] <= end for i in inside)
        assert all(own[i] >= 0.0 for i in inside)
        # The traced op time is the untraced op time plus the tracing overhead.
        assert sum(own[i] for i in inside) <= end - start


def test_pass_count_does_not_depend_on_speed():
    class Instant(workloads.Workload):
        PASS_SECONDS = 1.0
        cases = [None] * 4

        def run(self, i, traced=False):
            return i

        def check(self, i, output, full=True):
            return workloads.Outcome(digest=bytes([output]))

    plain, _, _, passes = bench.measure(Instant(), 3.0)
    assert passes == 3 and plain.attempted == plain.completed == 12
    assert plain.ops_per_s() > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("match_walk", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
