from __future__ import annotations

import ast
import re
from pathlib import Path

import taudec

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(taudec.__file__).resolve().parent


def test_every_export_exists():
    assert sorted(set(taudec.__all__)) == sorted(taudec.__all__)
    for name in taudec.__all__:
        assert hasattr(taudec, name), name


def test_every_export_is_documented_in_readme():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    documented = set(re.findall(r"`(\w+)`", library))
    missing = [name for name in taudec.__all__ if name not in documented]
    assert not missing, f"exported but not listed in README's Library section: {missing}"


# a module's own attribute hooks (PEP 562), which the import system calls
_MODULE_HOOKS = ("__getattr__", "__dir__")


def _definitions(tree: ast.Module):
    """Top-level functions and classes other than the PEP 562 hooks, and the
    non-dunder methods of those classes, as (qualified name, name) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in _MODULE_HOOKS:
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _instance_attributes(tree: ast.Module):
    """The attributes set as `self.X = ...` in the top-level classes that are
    not exported, as (qualified name, name) pairs."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name not in taudec.__all__:
            for item in ast.walk(node):
                if (
                    isinstance(item, ast.Attribute)
                    and isinstance(item.ctx, ast.Store)
                    and isinstance(item.value, ast.Name)
                    and item.value.id == "self"
                ):
                    yield f"{node.name}.{item.attr}", item.attr


def test_every_top_level_definition_is_exported_or_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used, read = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
    unused = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if name not in taudec.__all__ and name not in used
    ) + sorted({
        # an attribute counts where some object's attribute of its name is read
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _instance_attributes(tree)
        if name not in read
    })
    assert not unused, (
        f"defined in src/ but neither exported nor used there: {unused}; "
        "code that only tests call belongs in tests/oracles.py"
    )


_CACHE_DECORATORS = {"cache", "lru_cache"}
_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_CALLS
    return False


def _kept_state(tree: ast.Module):
    """What can carry results from one call into the next, as (line, what)
    pairs: functools caches, `global` rebinding, and mutable containers bound
    at module level or in a class body (`__all__` aside)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in _CACHE_DECORATORS:
                    yield node.lineno, f"functools.{alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in _CACHE_DECORATORS
        ):
            yield node.lineno, f"functools.{node.attr}"
        elif isinstance(node, ast.Global):
            yield node.lineno, f"global {', '.join(node.names)}"
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            names = [ast.unparse(target) for target in targets]
            if names != ["__all__"] and _is_mutable_container(stmt.value):
                yield stmt.lineno, f"{' = '.join(names)} = {ast.unparse(stmt.value)[:40]}"


def test_no_state_kept_between_calls():
    # repeated in-process calls of `cli.main` must each do their whole work
    kept = sorted(
        f"{path.stem}:{line}: {what}"
        for path in SRC.glob("*.py")
        for line, what in _kept_state(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not kept, (
        f"state kept between calls in src/: {kept}; a memo belongs to an object "
        "that one call builds and drops, such as `SliceEngine`"
    )


def _private_imports(tree: ast.Module):
    """The underscore names, dunders aside, that a module imports from
    another taudec module, at top level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "taudec"
        ):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    yield node.lineno, f"from {source} import {alias.name}"


def test_no_module_imports_another_modules_private_name():
    # a module that needs another's private name needs a public one, or the
    # knowledge behind it belongs in the other module
    found = sorted(
        f"{path.stem}:{line}: {what}"
        for path in SRC.glob("*.py")
        for line, what in _private_imports(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not found, f"private names imported across src/ modules: {found}"
