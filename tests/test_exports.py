"""Each public name has one import path, the module that defines it."""

import ast
import importlib
import inspect
from pathlib import Path

import romlab

_PACKAGE = Path(romlab.__file__).parent
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py")
                  if p.stem != "__init__")


def _defined_names(path: Path) -> set:
    """Names bound at module level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names.add(node.target.id)
    return names


def test_one_import_path_per_public_name():
    """Each module's __all__ names only what the module defines, and the
    package top level holds submodules and __version__ but no function
    or class, so that no public name gains a second path."""
    for name in _MODULES:
        module = importlib.import_module(f"romlab.{name}")
        exported = set(getattr(module, "__all__", ()))
        assert exported - _defined_names(_PACKAGE / f"{name}.py") == set(), \
            name
    exposed = [name for name, value in vars(romlab).items()
               if inspect.isfunction(value) or inspect.isclass(value)]
    assert exposed == []


def test_no_private_name_crosses_modules():
    """No romlab module imports an underscore name from another romlab
    module: what one module shares with another is named without one."""
    for name in _MODULES + ["__init__"]:
        tree = ast.parse((_PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("romlab")):
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert private == [], (name, node.module, private)
