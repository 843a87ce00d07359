"""A seeded mutation sample: how many one-token faults in the source does the suite catch?

Each mutant changes one token of one module in place: a comparison, arithmetic
or boolean operator, or one of the literals 0, 1, 2, 0.0 and 1.0, replaced as
REPLACEMENTS says. The rest of the file, comments and layout included, stays
byte for byte, so a check that reads the source fails only on what changed.
``*``, ``/``, ``//``, ``%`` and ``**`` count only as binary operators, after
an operand, not as star-arguments or parameter markers. Each replacement
keeps its token's role, so every mutant compiles; the sampler checks that of
the mutants it draws.

Usage, from the repository root:

    python bench/mutants.py --seed 0 --count 80 --out mutants-0.json \\
        src/emmatch/raster.py src/emmatch/edgecurrent.py

``--root OTHER`` tests another checkout of the same layout instead, such as
the commit a change starts from.

It first runs the unmutated suite, which must pass. Then each sampled mutant
gets a fresh copy of the tree (``--root``, default this repository) in a new
temporary directory and one ``pytest -x -q`` there, less STALE_CHECK, two at a
time, under the suite's ``ci`` hypothesis profile, so a rerun draws the same
examples. A mutant is killed when pytest exits nonzero or times out. The JSON
record holds, per mutant, the site, the line's text, killed or survived, the
first failing test id and the seconds taken. Mutants on the EQUIVALENT list
still run, but the score leaves them out. The sample depends only on the seed,
the count and the modules' sources, so two trees with the same sources run the
same mutants.
"""

from __future__ import annotations

import argparse
import io
import json
import keyword
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

REPLACEMENTS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "/", "/": "*", "//": "*", "%": "//", "**": "*",
    "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
    "and": "or", "or": "and",
    "0": "1", "1": "2", "2": "1", "0.0": "1.0", "1.0": "0.0",
}
BINARY_ONLY = {"*", "/", "//", "%", "**"}  # sites only after an operand

# Mutants that no test can tell from the source, keyed by (module, the line's
# text stripped, token, replacement): line numbers drift, the text rarely does.
# A fifth item n names only the line's n-th site of that token, counted from 1.
# sample() refuses an entry that matches no site. STALE_CHECK checks that against
# the package's own source, so a mutant run deselects it: it would kill every
# mutant of an entry's line.
EQUIVALENT = {
    # A side of exactly the largest intp is refused either way, by this check or by
    # numpy's allocation after it, with ValueError.
    ("raster.py", "if width > _MAX_SIDE or height > _MAX_SIDE:", ">", ">="),
    # A number of more digits than the largest intp has is above every bound either way,
    # and the messages show its digit count, not this value.
    ("raster.py", 'return _MAX_SIDE + 1, f"of {len(digits)} digits"', "1", "2"),
    # Every caller's columns have one length, so the second column's is the first's.
    ("raster.py", "for i in range(0, len(columns[0]), _TSV_ROWS):", "0", "1", 2),
    # Where start and end meet, both slices are empty and the copy writes nothing.
    ("raster.py", "if sx0 < sx1 and sy0 < sy1:", "<", "<="),
    # No point's value depends on the points evaluated with it, so any number of lattice
    # rows per fill gives the same values; only the fill's memory changes.
    ("emforce.py", "run = max(1, _BLOCK_TERMS // 4 // lw)  # lattice rows per fill", "1", "2"),
    ("emforce.py", "run = max(1, _BLOCK_TERMS // 4 // lw)  # lattice rows per fill", "//", "*"),
    # Lifting a vector whose larger component is exactly 2**-500 by 2**600 scales each
    # rotated component exactly, or leaves it below half an ulp of the other, so the
    # sector counts see the same signs and ties either way.
    ("matchmap.py", "lift = np.where(np.maximum(np.abs(fx), np.abs(fy)) < 2.0 ** -500, "
     "2.0 ** 600, 1.0)", "<", "<="),
    ("matchmap.py", "lift = 2.0 ** 600 if max(abs(fx), abs(fy)) < 2.0 ** -500 else 1.0",
     "<", "<="),
    # argparse exits with an int status only, so e.code is never None.
    ("cli.py", "return int(e.code) if e.code is not None else 0", "0", "1"),
    # |F| is at least each component, so once either exceeds the cutoff, np.hypot's |F|
    # leaves the vector unbalanced just as math.inf does.
    ("matchmap.py", "if not (abs(fx) > cut or abs(fy) > cut):", "or", "and"),
    # On the axis (wy == 0) with wx <= 0 the count is -4 instead of 4; (k + 1) % 8 is 5 either way.
    ("matchmap.py", "k = (wy > 0.0) * above + (wy < 0.0) * below + (wy == 0.0) * 4 * (wx <= 0.0)",
     "+", "-", 2),
    # wx == wy == 0 only for a zero vector, which every cutoff balances, g being nonnegative.
    ("matchmap.py", "k = (wy > 0.0) * above + (wy < 0.0) * below + (wy == 0.0) * 4 * (wx <= 0.0)",
     "<=", "<"),
    # No cell's sector depends on the other cells of its block, so any number of rows per
    # block gives the same labels and glyphs; at least two rows changes only the memory of
    # a map wider than _CLASSIFY_CELLS // 2.
    ("matchmap.py", "rows = max(1, _CLASSIFY_CELLS // fmap.width)", "1", "2"),
    # The sinks point at themselves, so a further pointer-jumping round moves no pointer on or
    # off a sink, and the labels read only the sinks.
    ("matchmap.py", "for _ in range(n.bit_length() + 1):  # 2**rounds > n moves, the longest path "
     "to a sink", "1", "2"),
    # The only caller's bound, _EXACT_TANGENT, is at least 1, so a maximum raised to 1.0
    # passes or fails it the same.
    ("emforce.py", "if not np.maximum.reduce(magnitudes, axis=None, initial=0.0) <= bound:  "
     "# nan fails too", "0.0", "1.0"),
    # No point's sums depend on the other points of its block, so the points per block
    # change only the memory that a call takes.
    ("emforce.py", "step = max(1, _BLOCK_TERMS // max(m, 1))", "1", "2"),
    # Without t1 only out[0] is written and returned; a second row is never read.
    ("emforce.py", "out = np.empty((1 if t1 is None else 3, len(px)), dtype=np.float64)", "1", "2"),
    # Where h equals min_r, every r^2 is at least h^2: the sum of h^2 and squares, rounded
    # upward if at all, or exact in the product form. So the pass finds no close pair.
    ("emforce.py", "if h2 < cut:  # a close pair's r^2 becomes +inf", "<", "<="),
    # Negating the dy steps swaps N with S, NW with SW and NE with SE: the rows name the
    # same four opposite pairs, in another order, and the rule counts the pairs.
    ("edgecurrent.py", "v = bordered.ravel()[(_NEIGHBORS[0] + stride * _NEIGHBORS[1])[:, None] "
     "+ at]  # (9, len(k))", "+", "-", 1),
}

WORKERS = 2
# A mutant may ask for a huge array; its suite gets this much address space, not the host's memory.
ADDRESS_SPACE = 3 << 30
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".benchmarks", ".perfbench_work")
STALE_CHECK = "tests/test_mutants.py::test_every_equivalent_entry_matches_a_site"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-profile=ci", "--deselect", STALE_CHECK]


def sites(source: str) -> list[tuple[int, int, str, str]]:
    """Every (line, column, token, replacement) of source, in order."""
    found, prev = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if (tok.type in (tokenize.OP, tokenize.NAME, tokenize.NUMBER) and tok.string in REPLACEMENTS
                and (tok.string not in BINARY_ONLY or ends_operand(prev))):
            found.append((*tok.start, tok.string, REPLACEMENTS[tok.string]))
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            prev = tok
    return found


def ends_operand(tok) -> bool:
    """Whether tok can end the left operand of a binary operator."""
    return tok is not None and (tok.type in (tokenize.NUMBER, tokenize.STRING)
                                or tok.string in (")", "]", "}")
                                or tok.type == tokenize.NAME and not keyword.iskeyword(tok.string))


def mutate(source: str, site: tuple[int, int, str, str]) -> str:
    """source with the token at site replaced."""
    line, col, old, new = site
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(old)] == old, (site, text)
    lines[line - 1] = text[:col] + new + text[col + len(old):]
    return "".join(lines)


def sample(root: Path, modules: list[str], seed: int, count: int) -> list[dict]:
    """count mutants drawn with seed from the modules' sites, in site order."""
    population = []
    for module in modules:
        source = (root / module).read_text()
        lines = source.splitlines()
        seen = Counter()  # sites so far per (line, token)
        for site in sites(source):
            key = (Path(module).name, lines[site[0] - 1].strip(), *site[2:])
            seen[site[0], site[2]] += 1
            population.append((module, source, key, site, {key, (*key, seen[site[0], site[2]])}))
    keys = set().union(*(names for *_, names in population))
    stale = {key for key in EQUIVALENT if key[0] in {Path(m).name for m in modules}} - keys
    if stale:
        raise ValueError(f"EQUIVALENT entries that match no site: {sorted(stale)}")
    chosen = sorted(random.Random(seed).sample(range(len(population)), min(count, len(population))))
    drawn = []
    for module, source, key, site, names in (population[i] for i in chosen):
        compile(mutate(source, site), f"{module} mutated at {site}", "exec")
        drawn.append({"module": module, "line": site[0], "column": site[1], "text": key[1],
                      "change": f"{site[2]} -> {site[3]}", "equivalent": bool(names & EQUIVALENT)})
    return drawn


def first_failure(output: str) -> str | None:
    """The first FAILED or ERROR id of pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ", 1)[0]
    return None


def run_suite(tree: Path, timeout: float) -> tuple[bool, str | None, float]:
    """(passed, first failure, seconds) of one pytest run in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.Popen(PYTEST, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    resource.prlimit(proc.pid, resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, f"timeout after {timeout:.0f} s", time.perf_counter() - start
    passed = proc.returncode == 0
    # A conftest that fails to import names no test: keep pytest's last line instead.
    failure = None if passed else first_failure(output) or output.strip().rsplit("\n", 1)[-1]
    return passed, failure, time.perf_counter() - start


def run_mutant(root: Path, work: Path, index: int, mutant: dict, timeout: float) -> dict:
    tree = work / f"mutant-{index}"
    shutil.copytree(root, tree, ignore=IGNORED)
    try:
        path = tree / mutant["module"]
        site = (mutant["line"], mutant["column"], *mutant["change"].split(" -> "))
        path.write_text(mutate(path.read_text(), site))
        passed, failure, seconds = run_suite(tree, timeout)
    finally:
        shutil.rmtree(tree)
    return {**mutant, "status": "survived" if passed else "killed", "first_failure": failure,
            "seconds": round(seconds, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="+", help="module paths relative to --root")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="the tree to test (default: this repository)")
    ap.add_argument("--out", type=Path, required=True, help="where to write the JSON record")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    mutants = sample(root, args.modules, args.seed, args.count)
    work = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        shutil.copytree(root, work / "unmutated", ignore=IGNORED)
        passed, failure, baseline = run_suite(work / "unmutated", timeout=600)
        shutil.rmtree(work / "unmutated")
        if not passed:
            print(f"the unmutated suite fails: {failure}", file=sys.stderr)
            return 1
        timeout = max(60.0, 10 * baseline)
        with ThreadPoolExecutor(WORKERS) as pool:
            records = list(pool.map(partial(run_mutant, root, work, timeout=timeout),
                                    range(len(mutants)), mutants))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    scored = [r for r in records if not r["equivalent"]]
    killed = sum(r["status"] == "killed" for r in scored)
    summary = {"root": str(root), "seed": args.seed, "count": args.count,
               "modules": args.modules, "baseline_seconds": round(baseline, 1),
               "scored": len(scored), "killed": killed, "survived": len(scored) - killed,
               "mutants": records}
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"seed {args.seed}: {killed} of {len(scored)} scored mutants killed "
          f"({len(records) - len(scored)} equivalent)")
    for r in scored:
        if r["status"] == "survived":
            print(f"  survived {r['module']}:{r['line']} {r['change']}  {r['text']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
