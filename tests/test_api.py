from __future__ import annotations

import ast
import re
from pathlib import Path

import taudec

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(taudec.__file__).resolve().parent
# Called only by tests (criterion 7) until the root-system engine of
# ROADMAP item 3 uses them or they move to tests/oracles.py.
TEST_ONLY = {
    "matrices.identity_matrix",
    "matrices.mat_vec",
    "matrices.reflect_at",
    "matrices.sink_reflection_matrix",
}


def test_every_export_exists():
    assert sorted(set(taudec.__all__)) == sorted(taudec.__all__)
    for name in taudec.__all__:
        assert hasattr(taudec, name), name


def test_every_export_is_documented_in_readme():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    documented = set(re.findall(r"`(\w+)`", library))
    missing = [name for name in taudec.__all__ if name not in documented]
    assert not missing, f"exported but not listed in README's Library section: {missing}"


def test_every_top_level_definition_is_exported_or_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in taudec.__all__
        and node.name not in used
    }
    assert unused == TEST_ONLY, (
        f"defined in src/ but neither exported nor used there: {sorted(unused - TEST_ONLY)}; "
        f"used now, drop from TEST_ONLY: {sorted(TEST_ONLY - unused)}"
    )
