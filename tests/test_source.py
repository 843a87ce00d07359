"""Source checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import pytest

import emmatch

PACKAGE = sorted(Path(emmatch.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]  # __init__ imports names to re-export them

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
