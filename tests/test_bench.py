"""bench/sweep.py at 16 and 32 px with one repeat: every stage runs and every count is there."""

import json
import math
import subprocess
import sys
from pathlib import Path

from conftest import package_env

SWEEP = Path(__file__).resolve().parent.parent / "bench" / "sweep.py"


def test_sweep_runs_every_stage_and_counts(tmp_path):
    # The sweep imports the emmatch this process imported, from the environment.
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SWEEP), "--sizes", "16", "32", "--repeats", "1",
                           "--out", str(out)], env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert {"git_revision", "source_sha256", "python", "numpy", "nproc"} <= set(
        record["environment"])
    assert record["src_modified"] in (True, False, None)
    assert record["repeats"] == 1
    assert sorted((c["kind"], c["n"], c["height_px"]) for c in record["cases"]) == [
        (kind, n, h) for kind in ("ellipse", "rectangle") for n in (16, 32) for h in (0.0, 8.0)]
    stages = {"load_pgm", "extract_current", "lattice_setup", "fill", "windows",
              "force_map_fast", "classify_map", "force_map_tsv", "match_images",
              "walk_field_sums"}
    for case in record["cases"]:
        assert set(case["stages_ms"]) == stages
        assert all(t["median"] > 0.0 and t["iqr"] == 0.0 for t in case["stages_ms"].values())
        counts = case["counts"]
        assert set(counts) == {"elements", "reference_elements", "lattice_points",
                               "fill_pair_terms", "steps", "filled_points", "walk_pair_terms",
                               "convergent_cell_ratio", "recovered"}
        assert case["shift"] == [case["n"] // 8, -(case["n"] // 10)]
        assert counts["recovered"] is True
        assert counts["fill_pair_terms"] == counts["lattice_points"] * counts["reference_elements"]
        assert counts["walk_pair_terms"] == counts["filled_points"] * counts["reference_elements"]
        assert 0 < counts["filled_points"] <= counts["lattice_points"]
        assert counts["elements"] > 0 and counts["steps"] > 0
        assert 0.0 <= counts["convergent_cell_ratio"] <= 1.0
    cli = record["cli"]
    assert (cli["kind"], cli["n"], cli["height_px"]) == ("ellipse", 128, 8.0)
    assert set(cli["commands"]) == {"match", "map", "classify"}
    assert set(cli["baselines"]) == {"interpreter", "help"}
    for times in (*cli["baselines"].values(), *cli["commands"].values()):
        assert times["wall_ms"]["median"] > 0.0
        assert math.isfinite(times["peak_rss_mib"]["median"])
        assert times["peak_rss_mib"]["median"] > 1.0
