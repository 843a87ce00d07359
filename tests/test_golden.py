"""The committed golden outputs in tests/golden/, regenerated in process, hold byte for byte.

tests/golden/regenerate.py writes them; see its docstring for the corpus.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fresh():
    return _regenerate().golden_files()


def test_golden_files_are_the_committed_ones(fresh):
    assert sorted(fresh) == sorted(p.name for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", ["matches.json", "cli-sha256.json", "rectangle-32-match.json"])
def test_golden_output_is_unchanged(fresh, name):
    committed = (GOLDEN / name).read_bytes()
    # Lines first, so that a failure names the records that moved.
    assert fresh[name].decode().splitlines() == committed.decode().splitlines()
    assert fresh[name] == committed
