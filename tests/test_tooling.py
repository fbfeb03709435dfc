"""Module hygiene by an ast walk: __all__ entries exist, top-level imports are used."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msqglab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _declared_all(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def _top_level_imports(tree: ast.Module) -> dict:
    """Bound name -> line of every import statement in the module body."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_modules_found():
    assert {"cli", "evolution", "kernels", "spectral", "trajectories", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", [m for m in MODULES if _declared_all(_tree(m)) is not None])
def test_all_entries_exist(name):
    exported = _declared_all(_tree(name))
    module = importlib.import_module(f"msqglab.{name}")
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"msqglab.{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"msqglab.{name}.__all__ repeats a name"


@pytest.mark.parametrize("name", MODULES)
def test_top_level_imports_used(name):
    tree = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(_declared_all(tree) or ())
    unused = {imp: line for imp, line in _top_level_imports(tree).items()
              if imp not in used and imp not in exported}
    assert not unused, f"msqglab/{name}.py imports unused names (name: line): {unused}"
