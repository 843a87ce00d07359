"""bench/mutants.py's sites and mutants, checked without running a suite."""

import importlib.util
import io
import random
import tokenize
from pathlib import Path

import pytest

import emmatch

PACKAGE = Path(emmatch.__file__).parent
_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "bench" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def tokens(source):
    return [(t.type, t.string) for t in tokenize.generate_tokens(io.StringIO(source).readline)]


def test_sites_are_operators_and_literals_outside_comments_and_strings():
    source = ('def f(a, /, *args, b=0, **kw):  # a < 1\n'
              '    """2 * 2"""\n'
              '    x = a * b ** 2 - -1.0 % 3\n'
              '    return g(*args) if x <= 0.0 and a != 10 else [*kw]\n')
    assert [(line, old, new) for line, _, old, new in mutants.sites(source)] == [
        (1, "0", "1"),
        (3, "*", "/"), (3, "**", "*"), (3, "2", "1"), (3, "-", "+"), (3, "-", "+"),
        (3, "1.0", "0.0"), (3, "%", "//"),
        (4, "<=", "<"), (4, "0.0", "1.0"), (4, "and", "or"), (4, "!=", "==")]
    assert mutants.first_failure("..F\nFAILED tests/t.py::a[x-1] - assert 0\nERROR b\n") == \
        "FAILED tests/t.py::a[x-1]"


@pytest.mark.parametrize("module", ["raster.py", "edgecurrent.py"])
def test_a_mutant_differs_from_its_source_in_one_token(module):
    source = (PACKAGE / module).read_text()
    before = tokens(source)
    found = mutants.sites(source)
    assert len(found) > 100
    for site in random.Random(0).sample(found, 5):
        mutant = mutants.mutate(source, site)
        compile(mutant, module, "exec")
        after = tokens(mutant)
        assert len(after) == len(before)
        assert [(a[1], b[1]) for a, b in zip(before, after) if a != b] == [site[2:]]


def test_the_sample_is_seeded_and_marks_equivalent_mutants(tmp_path, monkeypatch):
    (tmp_path / "a.py").write_text("x = 1 + 2 * 3\nif x > 0 and x < 9:\n    x -= 1\n")
    (tmp_path / "b.py").write_text("y = [0, 1.0, 2]\n")
    modules = ["a.py", "b.py"]
    drawn = mutants.sample(tmp_path, modules, 0, 5)
    assert len(drawn) == 5 and drawn == mutants.sample(tmp_path, modules, 0, 5)
    assert drawn != mutants.sample(tmp_path, modules, 1, 5)
    monkeypatch.setattr(mutants, "EQUIVALENT", {("a.py", "x = 1 + 2 * 3", "+", "-")})
    every = mutants.sample(tmp_path, modules, 0, 100)
    assert len(every) == 13
    assert [(m["line"], m["change"]) for m in every if m["equivalent"]] == [(1, "+ -> -")]
    # a fifth item names one of a line's sites of the same token
    (tmp_path / "c.py").write_text("z = 1 + 2 + 3\n")
    monkeypatch.setattr(mutants, "EQUIVALENT", {("c.py", "z = 1 + 2 + 3", "+", "-", 2)})
    assert [m["equivalent"] for m in mutants.sample(tmp_path, ["c.py"], 0, 5)
            if m["change"] == "+ -> -"] == [False, True]
    # an entry whose line has changed is named, not silently ignored
    monkeypatch.setattr(mutants, "EQUIVALENT", {("a.py", "x = 1 + 2", "+", "-")})
    with pytest.raises(ValueError, match="match no site"):
        mutants.sample(tmp_path, modules, 0, 5)


def test_every_equivalent_entry_matches_a_site():
    # A count of 0 draws no mutant, but sample still refuses a stale entry.  Mutant
    # runs deselect this test by name, since it fails on any mutant of an entry's line.
    modules = ["raster.py", "edgecurrent.py", "emforce.py", "matchmap.py", "cli.py"]
    assert mutants.sample(PACKAGE, modules, 0, 0) == []
    assert mutants.STALE_CHECK.endswith("::" + test_every_equivalent_entry_matches_a_site.__name__)
