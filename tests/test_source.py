"""Source checks that need no tool beyond the standard library."""

import ast
import re
from pathlib import Path

import pytest

import emmatch

PACKAGE = sorted(Path(emmatch.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]  # __init__ imports names to re-export them
TESTS = Path(__file__).resolve().parent

# Private module-level names that no module of the package reads, and why each stays.
UNREAD_PRIVATE = {
    "matchmap._REEXPORTED": "keeps emmatch.matchmap.total_force, which perfbench's tracer patches",
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["os (line 1)", "b (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.rglob("*.py"))
                         + sorted((TESTS.parent / "bench").glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> dict[str, int]:
    """Private module-level names, as module.name, that no module reads, with their lines.

    A name counts as read where some module loads it, reads it as an
    attribute or imports it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound = [(t.id, node.lineno) for t in ast.walk(node)
                         if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
            else:
                continue
            for name, line in bound:
                if name.startswith("_") and not name.startswith("__") and name not in read:
                    unread[f"{module}.{name}"] = line
    return unread


def test_guard_sees_an_unread_private_name():
    sources = {"a": "_A, _B = 1, 2\n_C: int = 3\ndef _f(): return _A\nclass _K: pass\n"
                    "__all__ = []\n",
               "b": "from .a import _K\nimport a\na._f()\n"}
    assert unread_private_names(sources) == {"a._B": 1, "a._C": 2}


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert set(unread_private_names(sources)) == set(UNREAD_PRIVATE)


# Calls that create, write, rename or remove a file or directory.  In cli.py
# only _emit makes them, so every command keeps one set of output-path rules.
WRITING_CALLS = {"write_bytes", "write_text", "mkdir", "makedirs", "open",
                 "replace", "rename", "unlink", "rmdir"}
# dataclasses.replace, called bare, copies a value and touches no file.
PURE_MODULES = {"dataclasses"}


def writing_calls(source: str) -> dict:
    """The writing calls that each top-level definition makes, under None for module-level code."""
    tree = ast.parse(source)
    pure = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in PURE_MODULES
            for alias in node.names}
    found = {}
    for node in tree.body:
        owner = getattr(node, "name", None)
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in WRITING_CALLS and not (isinstance(func, ast.Name) and name in pure):
                    found.setdefault(owner, set()).add(name)
    return found


def test_guard_sees_a_writing_call():
    source = ("import os\ndef _emit(p):\n    p.mkdir()\n    p.write_bytes(b'')\n"
              "def _cmd(p):\n    with open(p, 'w'):\n        pass\nos.makedirs('d')\n")
    assert writing_calls(source) == {"_emit": {"mkdir", "write_bytes"}, "_cmd": {"open"},
                                     None: {"makedirs"}}
    source = ("from dataclasses import replace\nfrom os import rename\n"
              "def _a(p):\n    replace(p)\n    p.replace(p)\n"
              "def _b(p):\n    rename(p, p)\n    os.unlink(p)\n    p.rmdir()\n")
    assert writing_calls(source) == {"_a": {"replace"}, "_b": {"rename", "unlink", "rmdir"}}


def test_only_the_cli_writer_writes():
    cli = Path(emmatch.__file__).parent / "cli.py"
    assert writing_calls(cli.read_text()) == {
        "_emit": {"mkdir", "write_bytes", "replace", "unlink", "rmdir"}}


# emmatch.__all__ as published; a module merge or split must leave it as it is.
PUBLIC = [
    "GrayImage", "PnmFormatError", "load_pgm", "save_pgm", "save_ppm", "shift_image",
    "synth_shape",
    "SOBEL_X", "SOBEL_Y", "VectorField", "sobel_field",
    "CurrentElement", "EdgeCurrent", "EdgeMask", "EdgeParams", "EmptyCurrentError",
    "build_current", "current_tsv", "extract_current", "mask_image", "nms_mask",
    "threshold_mask",
    "ForceMap", "ForceParams", "Vec2", "Vec3", "bz_at", "force_map", "force_map_fast",
    "force_map_tsv", "force_on_element", "pair_force", "total_force",
    "ClassificationMap", "Direction8", "Label", "MatchResult", "MatchStatus", "PathStatus",
    "PathTrace", "classification_rgb", "classify_map", "discretize8", "follow_path",
    "match_images", "match_result_json", "summarize_map",
    "__version__",
]


def test_public_names_are_unchanged():
    assert emmatch.__all__ == PUBLIC and len(PUBLIC) == 48
    for name in PUBLIC:
        assert hasattr(emmatch, name), name
    for name in ("SOBEL_X", "SOBEL_Y", "VectorField", "sobel_field"):  # defined in edgecurrent itself
        assert getattr(emmatch, name) is getattr(emmatch.edgecurrent, name), name


README = TESTS.parent / "README.md"

# A test id as pytest prints it: tests/FILE.py::name or tests/FILE.py::Class::name.
TEST_ID = re.compile(r"tests/(\w+\.py)::(\w+)(?:::(\w+))?")


def collected_tests(source: str) -> set[str]:
    """Ids, name or Class::name, of the test functions pytest collects from a module."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            found.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name.startswith("test"))
    return found


def test_every_promise_names_a_test():
    # Each item of the README's Promises list names the tests that check it.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Promises\n", 1)[1].split("\n## ", 1)[0]
    promises = re.split(r"^- ", section, flags=re.M)[1:]
    assert promises
    named = []
    for promise in promises:
        ids = TEST_ID.findall(promise)
        assert ids, f"a promise names no test: {promise.splitlines()[0]}"
        named += [(filename, "::".join(filter(None, names))) for filename, *names in ids]
    defined = {filename: collected_tests((TESTS / filename).read_text())
               if (TESTS / filename).is_file() else set() for filename, _ in named}
    missing = [f"tests/{filename}::{name}" for filename, name in named
               if name not in defined[filename]]
    assert not missing, f"promises name tests that do not exist: {', '.join(missing)}"


def bare_raises(source: str) -> list[int]:
    """Lines of the pytest.raises calls that pin nothing: no match= and no `as` name.

    Such a block passes on any exception of the class, from anywhere.
    """
    tree = ast.parse(source)
    bound = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With)
             for item in node.items if item.optional_vars is not None}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "raises"
             and getattr(node.func.value, "id", None) == "pytest"]
    return sorted(call.lineno for call in calls
                  if not any(k.arg == "match" for k in call.keywords) and id(call) not in bound)


def test_guard_sees_a_bare_raises():
    source = ("with pytest.raises(ValueError):\n    f()\n"
              "with pytest.raises(ValueError, match='x'):\n    f()\n"
              "with pytest.raises(ValueError) as e, open(p):\n    f()\n"
              "with open(p), pytest.raises(KeyError):\n    f()\n")
    assert bare_raises(source) == [1, 7]


def test_every_raises_pins_its_message():
    bare = {p.relative_to(TESTS).as_posix(): bare_raises(p.read_text())
            for p in sorted(TESTS.rglob("*.py"))}
    assert {name: lines for name, lines in bare.items() if lines} == {}
